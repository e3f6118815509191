"""The numpy engine's scratch arena (``core._arena``): warm engine calls
allocate little beyond their results, and no result is a view of the
arena that a later call overwrites."""

import random
import tracemalloc

from nctoggles import dynamics
from nctoggles.core import _orbit_sums_numpy, _pairs_python, _swap_pass, orbit_sums
from nctoggles.dynamics import Statistic, check_homomesy
from nctoggles.ncpartition import arc_index, arc_slots, catalan, conflict_masks, enumerate_masks
from nctoggles.words import kreweras_word, row_word
from test_orbit_engine import needs_numpy

#: Bytes a warm call may allocate beyond its state-sized arrays: the
#: orbit-sized run starts, sums and lists (about 67 KB for the orbit sizes
#: and 89 KB for the alpha report of NC(11)'s row word, 2,694 orbits),
#: under a cast of the largest swap table of NC(11) to intp (269 KB) or an
#: argsort of its 58,786 labels (470 KB).
SLACK = 128 * 1024


def traced_peak(run) -> int:
    """Bytes ``run()`` allocates at its peak, above what it started with."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@needs_numpy
def test_warm_engine_calls_allocate_the_image_and_one_column_per_mask():
    word, alpha, states = row_word(11), Statistic.alpha(), catalan(11)
    # The image is 4 B per state; alpha sums one popcount column, 1 B per
    # state.
    for run, columns in (
        (lambda: dynamics.orbit_sizes(word), 0),
        (lambda: check_homomesy(word, alpha), 1),
    ):
        run()
        run()
        assert traced_peak(run) <= (4 + columns) * states + SLACK


@needs_numpy
def test_no_result_is_a_view_of_the_arena():
    n = 11
    states, adj = enumerate_masks(n), conflict_masks(n)
    first, second, third = row_word(n), kreweras_word(n), row_word(n).inverse()
    images = [dynamics.word_image(w) for w in (first, second)]
    kept = [image.copy() for image in images]
    sizes = dynamics.orbit_sizes(third)
    masks = [(1 << arc_slots(n)) - 1, 1 << arc_index(n, (1, 2)), 12345]
    assert dynamics.orbit_sums(third, masks)[0] == sizes
    tables = _pairs_python(adj, set(range(arc_slots(n))), states)
    for word, image, copy in zip((first, second), images, kept):
        assert (image == copy).all()
        slots = [arc_index(n, arc) for arc in word.arcs]
        assert image.tolist() == _swap_pass(len(states), [tables[k] for k in slots])


@needs_numpy
def test_numpy_sums_match_the_list_engine_on_seeded_permutations():
    import numpy as np

    rng = random.Random(26)
    # Sizes alternate, so the arena is rebuilt between calls.
    for size in (0, 1, 2, 3, 500, 2, 17, 4096, 1, 0, 4096):
        perm = rng.sample(range(size), size)
        columns = [[rng.randrange(256) for _ in perm] for _ in range(3)]
        columns.append([c & 1 for c in columns[2]])
        # Columns as the engine's callers pass them: uint8 popcounts, int64
        # and bool arrays, and a list.
        arrays = [
            np.array(columns[0], np.uint8),
            np.array(columns[1], np.int64),
            columns[2],
            np.array(columns[3], np.bool_),
        ]
        want = orbit_sums(perm, columns)
        assert _orbit_sums_numpy(np.array(perm, np.int32), arrays) == want
        assert _orbit_sums_numpy(np.array(perm, np.int64), []) == (want[0], [])


"""Per-orbit sizes and sums read off a word's image (``core.orbit_sums``),
on both engines, against popcount sums over listed orbits (tests/brute.py)."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles import cli, core, dynamics, verify
from nctoggles.core import (
    _cycle_labels,
    cycles,
    independent_sets,
    orbit_partition,
    orbit_sums,
    stepper,
    vectorized,
    word_orbit_sums,
)
from nctoggles.ncpartition import arc_index, arc_slots, conflict_masks, enumerate_masks
from nctoggles.words import ToggleWord, kreweras_word, row_word
from test_orbit_engine import LONG_CYCLE, needs_numpy, permutations, run_python, toggle_words


def nc_masks(n, rng, ks=None):
    """Masks to sum on NC(n): every arc, the two masks of psi_k for each k
    of ``ks`` (default all), the arcs around the lane boundary, and three
    random masks."""
    slots, adj = arc_slots(n), conflict_masks(n)
    masks = [(1 << slots) - 1]
    for k in range(1, n) if ks is None else ks:
        s = arc_index(n, (k, k + 1))
        masks += [1 << s, adj[s]]
    masks += [1 << s for s in (0, 63, 64, 65) if s < slots]
    return masks + [rng.getrandbits(slots) for _ in range(3)]


def listed(adj, slots, states, masks):
    """Sizes and popcount sums over the orbits of one stepper call per state."""
    return brute.orbit_popcount_sums(orbit_partition(states, stepper(adj, slots)), masks)


@settings(max_examples=60, deadline=None)
@given(toggle_words(max_n=9, max_len=14), st.randoms(use_true_random=False))
@example(row_word(9), random.Random(0))
@example(kreweras_word(9), random.Random(1))
@example(ToggleWord(9), random.Random(2))
@example(ToggleWord(0), random.Random(3))
def test_nc_sums_match_listed_orbits_on_the_list_engine(word, rng):
    n, states = word.n, enumerate_masks(word.n)
    assert not vectorized(len(states), arc_slots(n))
    masks = nc_masks(n, rng)
    slots = [arc_index(n, arc) for arc in word.arcs]
    assert dynamics.orbit_sums(word, masks) == listed(conflict_masks(n), slots, states, masks)


@needs_numpy
@pytest.mark.parametrize("n", [11, 12])
def test_nc_sums_match_listed_orbits_on_numpy(n):
    rng = random.Random(n)
    states = enumerate_masks(n)
    assert vectorized(len(states), arc_slots(n))
    arcs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    word = ToggleWord(n, [(1, n), (n - 1, n), (5, 6)] + rng.choices(arcs, k=9))
    masks = nc_masks(n, rng, ks=(1, 5, n - 1))
    slots = [arc_index(n, arc) for arc in word.arcs]
    assert dynamics.orbit_sums(word, masks) == listed(conflict_masks(n), slots, states, masks)


def threshold_graph(k):
    """Edges of a graph with 2**k - 1 independent sets: for each level, a
    lone vertex beside the graph so far (doubling its sets) and a vertex
    joined to all of them (adding one set), on 2 * (k - 1) vertices."""
    edges, vertices = [], []
    for level in range(k - 1):
        lone, top = 2 * level, 2 * level + 1
        vertices += [lone]
        edges += [(v, top) for v in vertices]
        vertices += [top]
    return vertices, edges


def paths_of_four(copies):
    """Edges of ``copies`` disjoint paths on 4 vertices, each with 8
    independent sets: 8 ** copies in all."""
    vertices = list(range(4 * copies))
    edges = [(v, v + 1) for v in vertices if v % 4 != 3]
    return vertices, edges


@pytest.mark.parametrize("build, count", [
    (lambda: threshold_graph(15), 2**15 - 1),
    (lambda: paths_of_four(5), 2**15),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_graph_sums_match_listed_orbits_at_the_engine_threshold(build, count, seed):
    # 2**15 - 1 sets run on the list engine, 2**15 on numpy if it imports.
    rng = random.Random(seed)
    vertices, edges = build()
    label = list(range(len(vertices)))
    rng.shuffle(label)
    adj = [0] * len(vertices)
    for u, v in edges:
        adj[label[u]] |= 1 << label[v]
        adj[label[v]] |= 1 << label[u]
    states = independent_sets(adj)
    assert len(states) == count
    slots = [rng.randrange(len(adj)) for _ in range(30)]
    masks = [(1 << len(adj)) - 1, *adj[:6], rng.getrandbits(len(adj))]
    assert word_orbit_sums(adj, slots, states, masks) == listed(adj, slots, states, masks)


def engines():
    """The list engine, and the numpy one where numpy imports."""
    yield list
    try:
        import numpy as np
    except ImportError:
        return
    yield np.array


@pytest.mark.parametrize("engine", list(engines()))
def test_a_field_summing_to_all_ones_does_not_carry(engine):
    # Column 0 gets (5 * 3).bit_length() == 4 bits, and the one cycle sums
    # it to 15 = 2**4 - 1, the most the field holds.
    image = engine([1, 2, 0])
    columns = [engine(c) for c in ([5, 5, 5], [1, 0, 1], [0, 0, 0], [7, 0, 7])]
    assert orbit_sums(image, columns) == ([3], [[15], [2], [0], [14]])
    # A fixed point beside a 2-cycle; the all-zero column gets no bits.
    image = engine([1, 0, 2])
    columns = [engine(c) for c in ([3, 3, 1], [0, 0, 0], [1, 2, 3])]
    assert orbit_sums(image, columns) == ([2, 1], [[6, 1], [0, 0], [3, 3]])
    assert orbit_sums(image, []) == ([2, 1], [])
    assert orbit_sums(engine([]), [engine([]), engine([])]) == ([], [[], []])


@st.composite
def permutations_with_columns(draw):
    perm = draw(permutations())
    values = st.lists(st.integers(0, 255), min_size=len(perm), max_size=len(perm))
    return perm, draw(st.lists(values, max_size=4))


#: One cycle of 2,000 indices.
CYCLE_2000 = list(range(1, 2000)) + [0]


@settings(max_examples=40, deadline=None)
@given(permutations_with_columns())
@example(([], []))
@example((CYCLE_2000, [[255] * 2000, [i % 256 for i in range(2000)]]))
def test_sums_match_listed_cycles_on_any_permutation(case):
    perm, columns = case
    listed_cycles = cycles(range(len(perm)), perm)
    want = (
        list(map(len, listed_cycles)),
        [[sum(column[i] for i in cycle) for cycle in listed_cycles] for column in columns],
    )
    for engine in engines():
        image = engine(perm)
        if engine is not list:
            # uint8 columns, as the popcounts are: the sums must not wrap.
            import numpy as np

            columns = [np.array(c, dtype=np.uint8) for c in columns]
        assert orbit_sums(image, columns) == want
        assert list(image) == perm


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(permutations(), st.sampled_from(["int32", "int64"]))
@example([], "int32")
@example(list(range(1000)), "int64")
@example(LONG_CYCLE, "int32")
@example(LONG_CYCLE, "int64")
def test_cycle_labels_are_least_indices_on_any_permutation(perm, dtype):
    import numpy as np

    image = np.array(perm, dtype=dtype)
    want = list(range(len(perm)))
    for cycle in cycles(range(len(perm)), perm):
        for i in cycle:
            want[i] = cycle[0]
    assert _cycle_labels(image).tolist() == want
    assert image.tolist() == perm


def no_listing(*args):
    raise AssertionError("an orbit was listed")


@needs_numpy
def test_homomesy_at_11_lists_no_orbit(monkeypatch, capsys):
    word = row_word(11)
    orbit_list = dynamics.orbit_masks(word)
    monkeypatch.setattr(core, "cycles", no_listing)
    argv = ["homomesy", "11", "--word", word.to_text(), "--stat", "alpha", "--format", "json",
            "--max-n", "11"]
    assert cli.main(argv) == 0
    orbits = json.loads(capsys.readouterr().out)["result"]["orbits"]
    assert orbits == [
        {"size": len(o), "average": str(Fraction(sum(map(int.bit_count, o)), len(o)))}
        for o in orbit_list
    ]


def test_the_sweeps_list_no_orbit(monkeypatch):
    monkeypatch.setattr(core, "cycles", no_listing)
    assert verify.check_arc_count_homomesy(3, 7, 5).passed
    assert verify.check_psi_balance(3, 7, 5).passed
    assert verify.check_even_orbits((4, 6), 5).passed
    assert verify.check_nc6_orbit_sizes().passed
    assert verify.check_independent_set_generalization(4, 3).passed


#: A numpy older than 2.0, which has no ``bitwise_count``.
OLD_NUMPY = """
import sys, types
sys.modules["numpy"] = types.ModuleType("numpy")
from nctoggles import cli, core
from nctoggles.ncpartition import arc_slots, catalan
assert not core.vectorized(catalan(11), arc_slots(11))
sys.exit(cli.main(sys.argv[1:]))
"""


@needs_numpy
def test_a_numpy_without_bitwise_count_leaves_the_list_engine_running(capsys):
    argv = ["homomesy", "11", "--word", row_word(11).to_text(), "--stat", "psi:3",
            "--format", "json", "--max-n", "11"]
    assert cli.main(argv) == 0
    assert run_python(OLD_NUMPY, *argv) == capsys.readouterr().out

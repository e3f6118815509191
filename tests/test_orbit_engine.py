"""The swap-list orbit engine against the one-state-at-a-time stepper, and
its numpy engine (n >= 11) against the pure-Python one."""

import importlib.util
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles import cli, ncpartition
from nctoggles.core import (
    PackedSets,
    _cycle_sizes,
    _pair_tables,
    _pairs_numpy,
    _pairs_python,
    _swap_pass,
    _swap_pass_numpy,
    cycles,
    independent_sets,
    toggle_pairs,
    vectorized,
)
from nctoggles.dynamics import (
    Statistic,
    check_homomesy,
    orbit_masks,
    orbit_sizes,
)
from nctoggles.ncpartition import (
    EnumerationLimitError,
    NCPartition,
    _enum_masks_cached,
    arc_index,
    arc_slots,
    catalan,
    conflict_masks,
    enumerate_masks,
)
from nctoggles.words import ToggleWord, kreweras_word, row_word


def stepper_orbits(word):
    """Orbits by chasing ``word.stepper()``: each state not yet seen, in
    enumeration order, starts an orbit listed in the direction of the word."""
    step = word.stepper()
    seen = set()
    out = []
    for start in enumerate_masks(word.n):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = step(start)
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = step(cur)
        out.append(orbit)
    return out


@st.composite
def toggle_words(draw, max_n=7, max_len=12):
    """Words on [n] for n <= max_n; arcs may repeat, so most are not partial
    Coxeter."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    arcs = brute.all_arcs(n)
    if not arcs:
        return ToggleWord(n)
    return ToggleWord(n, draw(st.lists(st.sampled_from(arcs), max_size=max_len)))


@settings(max_examples=150, deadline=None)
@given(toggle_words())
@example(ToggleWord(0))
@example(ToggleWord(1))
@example(ToggleWord(5))
@example(ToggleWord(6, [(2, 5)]))
@example(ToggleWord(4, [(1, 2), (1, 2), (2, 3)]))
@example(ToggleWord(7, [(1, 7), (3, 5), (1, 7), (2, 6), (3, 5)]))
def test_orbit_masks_match_stepper_chase(word):
    assert orbit_masks(word) == stepper_orbits(word)


def test_toggle_pairs_match_bruteforce_toggle():
    for n in range(6):
        states = enumerate_masks(n)
        as_arcs = [frozenset(NCPartition._raw(n, m).arcs()) for m in states]
        arcs = brute.all_arcs(n)
        tables = toggle_pairs(conflict_masks(n), [arc_index(n, a) for a in arcs], states)
        assert sorted(tables) == sorted(arc_index(n, a) for a in arcs)
        for arc in arcs:
            pairs = tables[arc_index(n, arc)]
            half = len(pairs) // 2
            assert all(a < b for a, b in zip(pairs[:half], pairs[1:half]))
            partner = {}
            for i, j in zip(pairs[:half], pairs[half:]):
                assert arc in as_arcs[i] and as_arcs[j] == as_arcs[i] - {arc}
                partner[i], partner[j] = j, i
            assert len(partner) == len(pairs)
            for idx, arcset in enumerate(as_arcs):
                assert as_arcs[partner.get(idx, idx)] == brute.toggle(arcset, arc)


def test_toggle_pairs_cover_only_requested_slots():
    states, slot = enumerate_masks(5), arc_index(5, (2, 4))
    assert list(toggle_pairs(conflict_masks(5), [slot, slot], states)) == [slot]
    assert toggle_pairs(conflict_masks(5), [], states) == {}


def test_tables_built_in_steps_equal_a_fresh_build():
    for n in (4, 6, 7):
        every, states = list(range(arc_slots(n))), enumerate_masks(n)
        _pair_tables.cache_clear()
        subset = toggle_pairs(conflict_masks(n), every[::3], states)
        superset = toggle_pairs(conflict_masks(n), every[::3] + every[1::3], states)
        stepwise = toggle_pairs(conflict_masks(n), every, states)
        repeat = toggle_pairs(conflict_masks(n), every, states)
        assert all(superset[k] is subset[k] for k in subset)
        assert all(stepwise[k] is superset[k] for k in superset)
        assert all(repeat[k] is stepwise[k] for k in every)
        _pair_tables.cache_clear()
        fresh = toggle_pairs(conflict_masks(n), every, states)
        assert sorted(stepwise) == sorted(fresh) == every
        for k in every:
            assert stepwise[k] is not fresh[k] and stepwise[k] == fresh[k]


def test_orbit_masks_survive_an_enumeration_cache_clear():
    for word in (row_word(6), kreweras_word(7), ToggleWord(7, [(2, 5), (1, 7), (2, 3)])):
        toggle_pairs(conflict_masks(word.n), range(arc_slots(word.n)), enumerate_masks(word.n))
        _enum_masks_cached.cache_clear()
        assert orbit_masks(word) == stepper_orbits(word)


def test_a_table_off_the_closed_form_fails_loudly():
    # Either engine's table for an arc of length m must hold C(n-m) * C(m-1)
    # pairs (toggles.counts); one pair short is an error, not an orbit.
    word, adj, states = row_word(6), conflict_masks(6), enumerate_masks(6)
    slot = arc_index(6, word.arcs[0])
    _pair_tables.cache_clear()
    try:
        table = toggle_pairs(adj, [slot], states)[slot]
        half = len(table) // 2
        _pair_tables(adj)[slot] = table[1:half] + table[half + 1:]
        for decompose in (orbit_masks, orbit_sizes):
            with pytest.raises(RuntimeError, match=f"swaps {half - 1} pairs, not {half}"):
                decompose(word)
    finally:
        _pair_tables.cache_clear()


def run_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this source tree,
    with the caller's environment (``PYTHONDONTWRITEBYTECODE`` included)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_fresh_interpreter_keeps_the_callers_bytecode_setting(monkeypatch):
    # Dropping it would let every run_python write .pyc files into src/.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    code = "import os, sys; print(os.environ['PYTHONDONTWRITEBYTECODE'], sys.dont_write_bytecode)"
    assert run_python(code) == "1 True\n"


TRACED_PEAK = """
import tracemalloc
from nctoggles.ncpartition import enumerate_masks
tracemalloc.start()
enumerate_masks(12)
print(tracemalloc.get_traced_memory()[1])
"""


def test_the_nc12_enumeration_peaks_below_6_mb():
    # 208,012 states in two lanes take 3.3 MB; as ints in a tuple, 11 MB.
    assert int(run_python(TRACED_PEAK)) < 6_000_000


CEILING_FIRST = """
import sys
from nctoggles.dynamics import orbit_masks, orbit_sizes
from nctoggles.ncpartition import EnumerationLimitError
from nctoggles.core import _pair_tables
from nctoggles.words import row_word
for decompose in (orbit_masks, orbit_sizes):
    try:
        decompose(row_word(13), limit=12)
    except EnumerationLimitError:
        continue
    sys.exit(f"{decompose.__name__} passed the ceiling")
print(_pair_tables.cache_info().currsize, "numpy" in sys.modules)
"""


def test_toggle_pairs_ceiling_fails_before_caching():
    before = _pair_tables.cache_info()
    for decompose in (orbit_masks, orbit_sizes):
        with pytest.raises(EnumerationLimitError):
            decompose(row_word(13), limit=12)
    assert _pair_tables.cache_info() == before
    # A fresh process shows the ceiling also fails before numpy is imported.
    assert run_python(CEILING_FIRST) == "0 False\n"


def test_an_explicit_ceiling_reaches_the_whole_decomposition(monkeypatch, capsys):
    # The ceiling is checked once, by orbit_masks; nothing below it may
    # enumerate again under the default.
    monkeypatch.setattr(ncpartition, "DEFAULT_ENUM_LIMIT", 5)
    word = row_word(6)
    with pytest.raises(EnumerationLimitError):
        orbit_masks(word)
    assert sum(map(len, orbit_masks(word, limit=6))) == 132
    assert check_homomesy(word, Statistic.alpha(), limit=6).mean == Fraction(5, 2)
    argv = ["orbits", "6", "--max-n", "6", "--sizes-only", "--word", word.to_text()]
    assert cli.main(argv) == 0
    assert sum(map(int, capsys.readouterr().out.split())) == 132


# --- the numpy engine ------------------------------------------------------

needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy is not installed"
)


def numpy_engine(word):
    """``(orbit_masks, orbit_sizes)`` of ``word`` from the numpy engine's own
    functions, whatever n is."""
    n, states = word.n, enumerate_masks(word.n)
    slots = [arc_index(n, arc) for arc in word.arcs]
    tables = _pairs_numpy(conflict_masks(n), set(slots), states)
    image = _swap_pass_numpy(len(states), [tables[k] for k in slots])
    return cycles(states, image.tolist()), _cycle_sizes(image)


def dense_graph(vertices=100, p=0.9, seed=1):
    """A random graph on two lanes of vertices whose every pair is an edge
    with probability ``p``: 805 independent sets by default."""
    rng, adj = random.Random(seed), [0] * vertices
    for v, w in combinations(range(vertices), 2):
        if rng.random() < p:
            adj[v] |= 1 << w
            adj[w] |= 1 << v
    return tuple(adj)


@needs_numpy
def test_numpy_tables_equal_the_pure_python_build():
    # Every slot of NC(n) for n <= 12, and of a dense graph on two lanes of
    # vertices (indsets.independent_set_masks takes at most 24).
    cases = [(conflict_masks(n), enumerate_masks(n)) for n in range(13)]
    adj = dense_graph()
    cases.append((adj, independent_sets(adj)))
    assert len(cases[-1][1]) == 805
    for adj, states in cases:
        slots = set(range(len(adj)))
        fast, slow = _pairs_numpy(adj, slots, states), _pairs_python(adj, slots, states)
        assert sorted(fast) == sorted(slow) == sorted(slots)
        for k in slots:
            assert fast[k].dtype.name == "int32"
            # Below 2**15 states the pure-Python tables are lists.
            assert type(slow[k]) is (list if len(states) < 2**15 else array)
            assert fast[k].tolist() == list(slow[k])


@needs_numpy
@pytest.mark.parametrize("n,slots", [(11, {0, 27, 54}), (12, {0, 63, 64, 65})])
def test_tables_on_packed_states_equal_those_from_a_tuple(n, slots):
    # Without numpy, _pairs_python builds the tables from the packed states.
    states, adj = enumerate_masks(n), conflict_masks(n)
    assert isinstance(states, PackedSets) and len(states.lanes) == 1 + (n > 11)
    want = _pairs_numpy(adj, slots, tuple(states))
    for build in (_pairs_numpy, _pairs_python):
        got = build(adj, slots, states)
        assert all(got[k].tobytes() == want[k].tobytes() for k in slots)


def repeated_long_arcs(n):
    """A word that toggles the longest arcs several times around a row word."""
    long = [(1, n), (2, n), (1, n - 1)]
    return ToggleWord(n, long + list(row_word(n).arcs) + long[::-1] + long)


@needs_numpy
@pytest.mark.parametrize("n", [10, 11])
def test_numpy_image_equals_the_pure_python_image(n):
    states = enumerate_masks(n)
    fast = _pairs_numpy(conflict_masks(n), set(range(arc_slots(n))), states)
    slow = _pairs_python(conflict_masks(n), set(range(arc_slots(n))), states)
    for word in (row_word(n), kreweras_word(n), repeated_long_arcs(n)):
        slots = [arc_index(n, arc) for arc in word.arcs]
        image = _swap_pass_numpy(len(states), [fast[k] for k in slots])
        assert image.dtype.name == "int32"
        assert image.tolist() == _swap_pass(len(states), [slow[k] for k in slots])


def permutations():
    """Permutations of 0..2000 elements as index lists."""
    return st.integers(min_value=0, max_value=2000).flatmap(
        lambda size: st.permutations(range(size))
    )


#: One cycle 0 -> 1 -> ... -> 2**16 -> 0: index 1 reaches its least index 0
#: only after 2**16 steps, so doubling runs 17 rounds that change a label.
LONG_CYCLE = list(range(1, 2**16 + 1)) + [0]


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(permutations(), st.sampled_from(["int32", "int64"]))
@example(list(range(1000)), "int32")
@example(list(range(1000)), "int64")
@example([], "int32")
@example(LONG_CYCLE, "int32")
@example(LONG_CYCLE, "int64")
def test_cycle_sizes_match_cycles_on_any_permutation(perm, dtype):
    import numpy as np

    image = np.array(perm, dtype=dtype)
    sizes = _cycle_sizes(image)
    assert sizes == list(map(len, cycles(range(len(perm)), perm)))
    assert image.tolist() == perm


@needs_numpy
def test_cycle_sizes_do_not_depend_on_earlier_calls():
    # _cycle_sizes reuses its buffers between calls of the same size.
    import numpy as np

    rng = random.Random(7)
    perms = [rng.sample(range(500), 500) for _ in range(3)] + [list(range(500))]
    expected = [list(map(len, cycles(range(500), p))) for p in perms]
    for _ in range(2):
        for perm, sizes in zip(perms, expected):
            assert _cycle_sizes(np.array(perm, dtype=np.int32)) == sizes


@needs_numpy
@settings(max_examples=120, deadline=None)
@given(toggle_words(max_n=9))
@example(ToggleWord(0))
@example(ToggleWord(9))
@example(row_word(9))
@example(kreweras_word(9))
@example(ToggleWord(8, [(1, 8), (1, 8), (2, 7), (4, 5)]))
def test_numpy_engine_matches_stepper_chase(word):
    masks, sizes = numpy_engine(word)
    expected = stepper_orbits(word)
    assert masks == expected
    assert sizes == list(map(len, expected))


@needs_numpy
def test_row_word_orbits_at_12():
    word = row_word(12)
    sizes = orbit_sizes(word)
    assert len(sizes) == 8714 and sum(sizes) == 208012
    assert sizes == list(map(len, orbit_masks(word)))
    tables = _pair_tables(conflict_masks(12)).values()
    assert all(type(t).__name__ == "ndarray" and t.dtype.name == "int32" for t in tables)


FALLBACK = """
import sys
sys.modules["numpy"] = None
from array import array
from nctoggles import cli
from nctoggles.core import _pair_tables
from nctoggles.ncpartition import conflict_masks
code = cli.main(sys.argv[1:])
assert all(type(t) is array for t in _pair_tables(conflict_masks(11)).values())
sys.exit(code)
"""


@needs_numpy
def test_numpy_runs_from_n_11():
    # A cold run at n = 10 does not pay back importing numpy.
    assert [vectorized(catalan(n), arc_slots(n)) for n in (10, 11)] == [False, True]


@needs_numpy
def test_without_numpy_the_output_is_byte_identical(capsys):
    argv = ["orbits", "11", "--word", row_word(11).to_text(), "--sizes-only",
            "--format", "json"]
    assert cli.main(argv) == 0
    assert run_python(FALLBACK, *argv) == capsys.readouterr().out


def test_a_small_verify_run_never_imports_numpy():
    # Nor does importing the CLI load the process pool verify-all runs on.
    code = (
        "import sys\n"
        "import nctoggles.cli, nctoggles.verify\n"
        "print({'multiprocessing', 'concurrent.futures'} & set(sys.modules))\n"
        "from nctoggles import verify\n"
        "assert all(r.passed for r in verify.run_all(max_n=4, num_words=2))\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_python(code) == "set()\nFalse\n"


@needs_numpy
def test_numpy_tables_pair_states_whose_folded_lanes_collide():
    # lo ^ hi * K is K for both the second and the last state: a search
    # keyed by it cannot tell them apart, but their values differ.
    K = 0x9E3779B97F4A7C15
    states = PackedSets.of([0, K, K | 1 << 64, 1 << 64], 2)
    tables = _pairs_numpy((0,) * 65, {64}, states)
    assert {k: table.tolist() for k, table in tables.items()} == {64: [2, 3, 1, 0]}


@needs_numpy
def test_numpy_tables_fail_loudly_on_a_bad_state_list():
    states, slot = enumerate_masks(6), arc_index(6, (1, 6))
    with pytest.raises(RuntimeError, match="listed twice"):
        _pairs_numpy(conflict_masks(6), {slot}, states + states[-1:])
    with pytest.raises(RuntimeError, match="without arc slot"):
        _pairs_numpy(conflict_masks(6), {slot}, states[1:])
    # The empty set swapped for two crossing arcs, both free to take (1, 6):
    # the counts still match, but a partner differs from its holder minus k.
    crossing = 1 << arc_index(6, (2, 4)) | 1 << arc_index(6, (3, 5))
    with pytest.raises(RuntimeError, match="without arc slot"):
        _pairs_numpy(conflict_masks(6), {slot}, (crossing,) + states[1:])
    with pytest.raises(RuntimeError, match="contain arc slot"):
        _pairs_numpy(conflict_masks(6), {slot}, tuple(m for m in states if m != 1 << slot))

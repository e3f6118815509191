"""The verification suite reports failures instead of crashing, on forked
workers and in-process alike, and its Kreweras oracle does not share the
fast route's conflict table."""

import multiprocessing
import os

import pytest

import brute
from nctoggles import core, dynamics, indsets, kreweras, ncpartition, verify
from nctoggles.ncpartition import arc_index
from test_orbit_engine import run_python

CHECK_NAMES = [
    "catalan_counts", "nc4_sample_word", "nc6_coxeter_orbit_sizes",
    "arc_count_homomesy", "psi_balance", "pair_orders", "arc_containment_counts",
    "kreweras_agreement", "row_column_identity", "even_orbits",
    "chi13_negative_control", "independent_set_generalization",
    "skeletal_multigraph_bijection", "chi_sum_conjugation",
]


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture(params=["forked", "in_process"])
def path(request, monkeypatch):
    """``run_all`` on two forked workers, or in-process as on one CPU."""
    _cpus(monkeypatch, 2 if request.param == "forked" else 1)


def _triples(results):
    return [(r.name, r.passed, r.detail) for r in results]


def _boom(*args):
    raise RuntimeError("coarsest complement is not unique")


def test_a_raising_check_is_a_fail_and_the_rest_still_run(monkeypatch, path):
    monkeypatch.setattr(verify, "check_kreweras_agreement", _boom)
    results = verify.run_all(max_n=4, num_words=2)
    assert [r.name for r in results] == CHECK_NAMES
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("kreweras_agreement", "RuntimeError: coarsest complement is not unique")
    ]
    assert failed[0].line().startswith("FAIL kreweras_agreement (")


def test_forked_and_in_process_runs_give_the_same_triples(monkeypatch):
    _cpus(monkeypatch, 2)
    forked = _triples(verify.run_all(max_n=5, num_words=3))
    _cpus(monkeypatch, 1)
    assert _triples(verify.run_all(max_n=5, num_words=3)) == forked


def test_no_worker_outlives_run_all(monkeypatch):
    _cpus(monkeypatch, 2)
    assert all(r.passed for r in verify.run_all(max_n=4, num_words=2))
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(verify, "check_kreweras_agreement", _boom)
    assert not all(r.passed for r in verify.run_all(max_n=4, num_words=2))
    assert multiprocessing.active_children() == []


DEAD_WORKER = """
import os
from nctoggles import verify
os.sched_getaffinity = lambda pid: {0, 1}
parent, real = os.getpid(), verify.check_kreweras_agreement

def dies_in_a_worker(*args):
    if os.getpid() != parent:
        os._exit(1)
    return real(*args)

verify.check_kreweras_agreement = dies_in_a_worker
for r in verify.run_all(max_n=4, num_words=2):
    print(r.name, r.passed, r.detail if not r.passed else "")
"""


def test_a_dead_worker_is_a_fail_and_the_rest_still_run():
    # The run is time-bounded, so a pool that hangs on the dead worker fails.
    lines = run_python(DEAD_WORKER).splitlines()
    assert [line.split()[0] for line in lines] == CHECK_NAMES
    assert [line for line in lines if " True " not in line] == [
        "kreweras_agreement False BrokenProcessPool: A process in the process "
        "pool was terminated abruptly while the future was running or pending."
    ]


def _clear_nc_caches():
    ncpartition._enum_masks_cached.cache_clear()
    core._pair_tables.cache_clear()
    kreweras._kreweras_stepper.cache_clear()
    kreweras._violation_masks.cache_clear()
    kreweras._blocked_slots.cache_clear()


def _break_conflict_table(monkeypatch, edit):
    """Route the fast route's conflict table through ``edit(n, masks)``:
    every module reads it as ``ncpartition.conflict_masks`` at call time, so
    this one attribute is the seam."""
    real = ncpartition.conflict_masks

    def broken(n):
        masks = list(real(n))
        edit(n, masks)
        return tuple(masks)

    monkeypatch.setattr(ncpartition, "conflict_masks", broken)
    _clear_nc_caches()


def _clash_12_and_34(n, masks):
    if n >= 4:
        a, b = arc_index(n, (1, 2)), arc_index(n, (3, 4))
        masks[a] |= 1 << b
        masks[b] |= 1 << a


@pytest.fixture
def arcs_12_and_34_conflict(monkeypatch):
    """The fast route's conflict table, broken so that (1,2) and (3,4) clash."""
    _break_conflict_table(monkeypatch, _clash_12_and_34)
    yield
    _clear_nc_caches()


def _allow_13_14_15(n, masks):
    if n >= 5:
        slots = [arc_index(n, (1, j)) for j in (3, 4, 5)]
        for a in slots:
            for b in slots:
                masks[a] &= ~(1 << b)


@pytest.fixture
def arcs_13_14_15_compatible(monkeypatch):
    """The fast route's conflict table, broken so that (1,3), (1,4) and (1,5)
    may share a state."""
    _break_conflict_table(monkeypatch, _allow_13_14_15)
    yield
    _clear_nc_caches()


@pytest.mark.parametrize("edit", [_clash_12_and_34, _allow_13_14_15])
def test_a_broken_conflict_table_finds_no_stale_subtrees(edit):
    # The enumeration's subtree memo is keyed by the table's value, so it
    # needs no clearing: a broken table is another graph.
    _clear_nc_caches()
    real = {n: ncpartition.enumerate_masks(n) for n in (5, 6, 8)}
    with pytest.MonkeyPatch.context() as patch:
        _break_conflict_table(patch, edit)
        try:
            for n, states in real.items():
                broken = ncpartition.enumerate_masks(n)
                assert broken == brute.independent_sets(ncpartition.conflict_masks(n))
                assert broken != states
        finally:
            _clear_nc_caches()
    assert {n: ncpartition.enumerate_masks(n) for n in real} == real


def test_kreweras_oracle_catches_a_broken_conflict_table(arcs_12_and_34_conflict):
    # The complement of the all-singletons partition of [4] is the single
    # block {1,2,3,4}, whose arcs (1,2) (2,3) (3,4) the broken table forbids.
    result = verify.check_kreweras_agreement(4)
    assert not result.passed
    assert result.detail.startswith("n=4 ")
    assert "!= oracle ((1, 2), (2, 3), (3, 4))" in result.detail


#: ``run_all(max_n=5, num_words=3)`` with (1,2) and (3,4) made to conflict:
#: eleven checks fail, each on its first counterexample.
BROKEN_TABLE_RESULTS = [
    ("catalan_counts", False, "n=4: 12 != C_4=14"),
    ("nc4_sample_word", False,
     "expected 5 orbits totalling 14, got sizes [2, 2, 4, 4]"),
    ("nc6_coxeter_orbit_sizes", False,
     "orbit sizes [3, 5, 6, 10, 12, 14, 68] != [4, 22, 46, 60]"),
    ("arc_count_homomesy", False,
     "seed=2026 n=4 word '1,2 2,4 2,3 3,4': alpha not homomesic: orbit 0 "
     "averages 4/3, orbit 1 averages 6/5; beta not homomesic: orbit 0 "
     "averages 8/3, orbit 1 averages 14/5"),
    ("psi_balance", False,
     "seed=2026 n=4 k=1 word '1,2 2,4 2,3 3,4': orbit sum 3 over 2, "
     "#zeros 0 vs #twos 1"),
    ("pair_orders", False, "n=4 (1, 2),(3, 4): formula 2, observed 6"),
    ("arc_containment_counts", False,
     "n=4 arc (1,2): formula ToggleCounts(containing=5, togglable=5, "
     "fixed=4), observed ToggleCounts(containing=3, togglable=3, fixed=6)"),
    ("kreweras_agreement", False,
     "n=4 NCPartition(4, []): word route ((2, 3), (3, 4)) != oracle "
     "((1, 2), (2, 3), (3, 4))"),
    ("row_column_identity", True,
     "row and column words equal as permutations for n <= 5"),
    ("even_orbits", False,
     "seed=2026 n=4 word '1,2 1,3 2,3 3,4': odd orbit of size 5"),
    ("chi13_negative_control", True,
     "chi:1,3 verdict: not homomesic: orbit 0 averages 1/3, orbit 1 "
     "averages 0"),
    ("independent_set_generalization", False,
     "n=4: independent sets of the base graph differ from NC(n)"),
    ("skeletal_multigraph_bijection", True,
     "23 multigraphs with |V|+|E| <= 5 roundtrip; pinned instances match"),
    ("chi_sum_conjugation", False,
     "seed=2026 n=4 word '1,3 1,4 2,4 1,2 2,3 3,4' source (1, 2): per-orbit "
     "chi sums not preserved"),
]


def test_every_fail_detail_under_a_broken_conflict_table(arcs_12_and_34_conflict, path):
    results = verify.run_all(max_n=5, num_words=3)
    assert _triples(results) == BROKEN_TABLE_RESULTS


def test_psi_balance_counts_zeros_and_twos_when_psi_reaches_3(arcs_13_14_15_compatible):
    # psi_1 at n = 5 counts (1,2) twice and each of (1,3), (1,4), (1,5) once.
    nbrs = ncpartition.conflict_masks(5)[arc_index(5, (1, 2))]
    assert max((m & nbrs).bit_count() for m in ncpartition.enumerate_masks(5)) == 3
    result = verify.check_psi_balance(3, 6, 3)
    assert (result.passed, result.detail) == (
        False,
        "seed=2026 n=5 k=1 word '2,4 1,4 3,4 1,2 2,5 2,3 4,5': orbit sum 8 "
        "over 6, #zeros 0 vs #twos 2",
    )


def test_psi_balance_compares_zeros_with_twos_when_every_psi_sum_is_right(monkeypatch):
    # One orbit of 3 states at n = 3, in 4-bit fields: psi_1 and psi_2 sum
    # to 3 each, psi_1 is 0 twice and psi_2 never, and neither is ever 2.
    # Only the zeros-against-twos comparisons can find this orbit.
    total = 3 | 3 << 4 | 2 << 8
    monkeypatch.setattr(verify.core, "orbit_sums", lambda image, columns: ([3], [[total]]))
    result = verify.check_psi_balance(3, 3, 1)
    assert (result.passed, result.detail) == (
        False,
        "seed=2026 n=3 k=1 word '1,3 1,2 2,3': orbit sum 3 over 3, #zeros 2 vs #twos 0",
    )


def _lists_an_orbit(*args, **kwargs):
    raise AssertionError("a check listed an orbit")


def test_no_check_lists_an_engine_orbit(monkeypatch):
    # Every check reads orbit sizes and sums off word images.
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(dynamics, "orbit_masks", _lists_an_orbit)
    monkeypatch.setattr(indsets, "orbit_partition", _lists_an_orbit)
    for module in (core, dynamics, indsets):
        monkeypatch.setattr(module, "word_orbits", _lists_an_orbit)
    results = verify.run_all(max_n=5, num_words=3)
    assert [(r.name, r.passed) for r in results] == [(name, True) for name in CHECK_NAMES]

"""The verification suite reports failures instead of crashing, and its
Kreweras oracle does not share the fast route's conflict table."""

import pytest

from nctoggles import kreweras, ncpartition, toggles, verify, words
from nctoggles.ncpartition import arc_index

CHECK_NAMES = [
    "catalan_counts", "nc4_sample_word", "nc6_coxeter_orbit_sizes",
    "arc_count_homomesy", "psi_balance", "pair_orders", "arc_containment_counts",
    "kreweras_agreement", "row_column_identity", "even_orbits",
    "chi13_negative_control", "independent_set_generalization",
    "skeletal_multigraph_bijection", "chi_sum_conjugation",
]


def test_a_raising_check_is_a_fail_and_the_rest_still_run(monkeypatch):
    def boom(*args):
        raise RuntimeError("coarsest complement is not unique")

    monkeypatch.setattr(verify, "check_kreweras_agreement", boom)
    results = verify.run_all(max_n=4, num_words=2)
    assert [r.name for r in results] == CHECK_NAMES
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("kreweras_agreement", "RuntimeError: coarsest complement is not unique")
    ]
    assert failed[0].line().startswith("FAIL kreweras_agreement (")


def _clear_nc_caches():
    ncpartition._enum_masks_cached.cache_clear()
    toggles._pair_tables.cache_clear()
    kreweras._kreweras_stepper.cache_clear()
    kreweras._violation_masks.cache_clear()
    kreweras._blocked_slots.cache_clear()


def _break_conflict_table(monkeypatch, edit):
    """Route the fast route's conflict table through ``edit(n, masks)``."""
    real = ncpartition.conflict_masks

    def broken(n):
        masks = list(real(n))
        edit(n, masks)
        return tuple(masks)

    for module in (ncpartition, words, toggles):
        monkeypatch.setattr(module, "conflict_masks", broken)
    _clear_nc_caches()


@pytest.fixture
def arcs_12_and_34_conflict(monkeypatch):
    """The fast route's conflict table, broken so that (1,2) and (3,4) clash."""

    def edit(n, masks):
        if n >= 4:
            a, b = arc_index(n, (1, 2)), arc_index(n, (3, 4))
            masks[a] |= 1 << b
            masks[b] |= 1 << a

    _break_conflict_table(monkeypatch, edit)
    yield
    _clear_nc_caches()


@pytest.fixture
def arcs_13_14_15_compatible(monkeypatch):
    """The fast route's conflict table, broken so that (1,3), (1,4) and (1,5)
    may share a state."""

    def edit(n, masks):
        if n >= 5:
            slots = [arc_index(n, (1, j)) for j in (3, 4, 5)]
            for a in slots:
                for b in slots:
                    masks[a] &= ~(1 << b)

    _break_conflict_table(monkeypatch, edit)
    yield
    _clear_nc_caches()


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
     "seed=2026 n=4 word '1,4 2,3 2,4 1,2 1,3 3,4' source (3, 4): per-orbit "
     "chi sums not preserved"),
]


def test_every_fail_detail_under_a_broken_conflict_table(arcs_12_and_34_conflict):
    results = verify.run_all(max_n=5, num_words=3)
    assert [(r.name, r.passed, r.detail) for r in results] == BROKEN_TABLE_RESULTS


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

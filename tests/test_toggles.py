from itertools import combinations

import pytest

import brute
from nctoggles.indsets import base_graph
from nctoggles.ncpartition import (
    NCPartition,
    arc_index,
    arc_slots,
    conflict_masks,
    enumerate_masks,
    enumerate_nc,
    index_arc,
    validate,
)
from nctoggles.toggles import (
    PairType,
    ToggleCounts,
    classify_pair,
    commutes,
    counts,
    noncommuting_count,
    observed_counts,
    pair_order,
    pair_order_observed,
    toggle,
)
from nctoggles.words import ToggleWord

FIG = NCPartition(10, [(1, 4), (4, 5), (7, 10), (8, 9)])


def test_toggle_removes_present_arc():
    assert toggle(FIG, (1, 4)).arcs() == ((4, 5), (7, 10), (8, 9))


def test_toggle_adds_legal_arc():
    assert (2, 3) in toggle(FIG, (2, 3)).arcs()


def test_toggle_noop_on_blocked_arc():
    assert toggle(FIG, (3, 6)) == FIG


def test_toggle_effect_catalog_on_running_example():
    # on this partition exactly four arcs add, four remove, the rest fix
    added, removed, fixed = set(), set(), set()
    for arc in ((i, j) for i in range(1, 10) for j in range(i + 1, 11)):
        result = toggle(FIG, arc)
        if result == FIG:
            fixed.add(arc)
        elif arc in result.arcs():
            added.add(arc)
        else:
            removed.add(arc)
    assert removed == {(1, 4), (4, 5), (7, 10), (8, 9)}
    assert added == {(2, 3), (5, 6), (5, 7), (6, 7)}
    assert len(fixed) == 45 - 8


def test_toggle_out_of_range():
    with pytest.raises(ValueError):
        toggle(FIG, (0, 3))
    with pytest.raises(ValueError):
        toggle(FIG, (4, 11))


@pytest.mark.parametrize(
    "arc", [(0, 3), (4, 11), (3, 3), (1, 2, 3), (1.0, 3.0), ("1", "2"), 5, None]
)
def test_every_arc_taker_rejects_a_bad_arc_alike(arc):
    message = f"arc {arc} out of range for n=10"
    for call in (
        lambda: toggle(FIG, arc),
        lambda: pair_order(arc, (1, 2), 10),
        lambda: pair_order((1, 2), arc, 10),
        lambda: noncommuting_count(10, arc),
        lambda: ToggleWord(10, [(1, 2), arc]),
    ):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


def test_every_arc_taker_accepts_a_list_pair():
    # JSON gives arcs as lists: each taker reads [i, j] as (i, j).
    assert validate(10, [[1, 4], [4, 5]]) is None
    assert str(validate(10, [[1, 4], [1, 4]])) == "duplicate: (1,4)"
    assert str(validate(10, [[0, 4]])) == "out_of_range: (0,4)"
    assert NCPartition(10, [list(arc) for arc in FIG.arcs()]) == FIG
    assert ToggleWord(10, [[2, 3], [1, 2]]) == ToggleWord(10, [(2, 3), (1, 2)])
    assert toggle(FIG, [2, 3]) == toggle(FIG, (2, 3))
    assert pair_order([1, 2], (1, 2), 10) == 1 and pair_order([1, 3], [2, 4], 10) == 6
    assert noncommuting_count(10, [1, 4]) == noncommuting_count(10, (1, 4))


def test_toggle_matches_bruteforce_and_is_involution():
    for n in range(2, 6):
        arcs = brute.all_arcs(n)
        for state in brute.all_partitions(n):
            p = NCPartition(n, sorted(state))
            for arc in arcs:
                image = toggle(p, arc)
                assert frozenset(image.arcs()) == brute.toggle(state, arc)
                assert toggle(image, arc) == p


def test_toggle_involution_exhaustive_n7():
    for p in enumerate_nc(7):
        for arc in ((i, j) for i in range(1, 7) for j in range(i + 1, 8)):
            assert toggle(toggle(p, arc), arc) == p


@pytest.mark.parametrize(
    "a,b,kind",
    [
        ((1, 2), (3, 4), PairType.DISJOINT),
        ((1, 4), (2, 3), PairType.NESTING),
        ((1, 2), (2, 3), PairType.M_SHAPED),
        ((1, 2), (1, 3), PairType.LEFT_NESTING),
        ((1, 3), (2, 3), PairType.RIGHT_NESTING),
        ((1, 3), (2, 4), PairType.CROSSING),
    ],
)
def test_classify_pair_examples(a, b, kind):
    assert classify_pair(a, b) is kind
    assert classify_pair(b, a) is kind  # order-insensitive


def test_classify_pair_rejects_equal():
    with pytest.raises(ValueError):
        classify_pair((1, 2), (1, 2))


def test_classification_is_exhaustive_and_matches_conflicts():
    conflict_kinds = {PairType.LEFT_NESTING, PairType.RIGHT_NESTING, PairType.CROSSING}
    for a, b in combinations(brute.all_arcs(6), 2):
        kind = classify_pair(a, b)
        assert isinstance(kind, PairType)
        assert (kind in conflict_kinds) == brute.clash(a, b)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((1, 2), (2, 3), True),
        ((1, 2), (1, 3), False),
        ((1, 3), (2, 4), False),
        ((1, 2), (3, 4), True),
        ((1, 4), (2, 3), True),
    ],
)
def test_commutes_examples(a, b, expected):
    assert commutes(a, b) is expected


def test_commutes_matches_permutation_commutation():
    for n in range(2, 6):
        states = brute.all_partitions(n)
        for a, b in combinations(brute.all_arcs(n), 2):
            observed = all(
                brute.toggle(brute.toggle(s, b), a)
                == brute.toggle(brute.toggle(s, a), b)
                for s in states
            )
            assert commutes(a, b) == observed


def test_noncommuting_pair_never_coexists():
    for n in range(2, 7):
        for p in enumerate_nc(n):
            for a, b in combinations(p.arcs(), 2):
                assert commutes(a, b)


@pytest.mark.parametrize(
    "a,b,order",
    [
        ((1, 2), (1, 2), 1),
        ((1, 2), (3, 4), 2),
        ((1, 2), (1, 3), 6),
    ],
)
def test_pair_order_formula(a, b, order):
    assert pair_order(a, b, 4) == order


def test_pair_order_matches_observed():
    for n in range(2, 6):
        arcs = brute.all_arcs(n)
        for a in arcs:
            for b in arcs:
                assert pair_order(a, b, n) == pair_order_observed(a, b, n)


@pytest.mark.parametrize(
    "n,arc,expected",
    [(4, (1, 2), 2), (10, (1, 4), 22), (2, (1, 2), 0)],
)
def test_noncommuting_count_values(n, arc, expected):
    assert noncommuting_count(n, arc) == expected


def test_noncommuting_count_matches_bruteforce():
    for n in range(2, 9):
        arcs = brute.all_arcs(n)
        for a in arcs:
            observed = sum(1 for b in arcs if b != a and not commutes(a, b))
            assert noncommuting_count(n, a) == observed


def test_counts_examples():
    assert counts(4, 1, 1) == ToggleCounts(5, 5, 4)
    assert counts(5, 1, 2).containing == 5
    assert counts(3, 1, 2).containing == 1


def test_counts_matches_observed():
    # The closed form, the one-pass counts and the per-arc scan, every arc.
    for n in range(2, 11):
        states, adj, observed = enumerate_masks(n), conflict_masks(n), observed_counts(n)
        for k in range(1, n):
            for i in range(1, n - k + 1):
                slot = arc_index(n, (i, i + k))
                scanned = ToggleCounts(*brute.arc_counts(states, adj, slot))
                assert counts(n, i, k) == observed[slot] == scanned


def test_counts_symmetry_in_k():
    for n in range(2, 11):
        for k in range(1, n):
            other = n + 1 - k
            if 1 <= other <= n - 1:
                assert counts(n, 1, k).containing == counts(n, 1, other).containing


def test_counts_out_of_range():
    with pytest.raises(ValueError):
        counts(4, 2, 3)


def test_base_graph_small_cases():
    g2 = base_graph(2)
    assert g2.vertices == ((1, 2),)
    assert g2.edges() == []

    # (1,2)-(2,3) is m-shaped and commutes, so the n=3 base graph is the
    # path (1,2) - (1,3) - (2,3), matching the degree formula m(n+1-m)-2
    g3 = base_graph(3)
    assert set(g3.vertices) == {(1, 2), (1, 3), (2, 3)}
    assert set(map(frozenset, g3.edges())) == {
        frozenset({(1, 2), (1, 3)}),
        frozenset({(1, 3), (2, 3)}),
    }
    assert [g3.degree(a) for a in ((1, 2), (1, 3), (2, 3))] == [1, 2, 1]

    g4 = base_graph(4)
    assert g4.degree((1, 4)) == 4
    assert g4.degree((1, 4)) == noncommuting_count(4, (1, 4))


def test_base_graph_requires_n_at_least_2():
    for n in (1, 0, -1):
        with pytest.raises(ValueError):
            base_graph(n)


def test_base_graph_vertex_k_is_arc_slot_k():
    for n in range(2, 9):
        g = base_graph(n)
        assert g.adj == conflict_masks(n)
        assert g.vertices == tuple(index_arc(n, k) for k in range(arc_slots(n)))


def test_base_graph_degrees_match_formula():
    for n in range(2, 11):
        g = base_graph(n)
        for arc in g.vertices:
            assert g.degree(arc) == noncommuting_count(n, arc)


def test_base_graph_rows_and_columns_are_cliques():
    g = base_graph(6)
    for i in range(1, 6):
        row = [(i, j) for j in range(i + 1, 7)]
        for a, b in combinations(row, 2):
            assert g.has_edge(a, b)
    for j in range(2, 7):
        col = [(i, j) for i in range(1, j)]
        for a, b in combinations(col, 2):
            assert g.has_edge(a, b)


def test_base_graph_diagonal_edges_are_crossings():
    g = base_graph(6)
    for (i, j), (k, l) in g.edges():
        if i != k and j != l:
            lo, hi = sorted([(i, j), (k, l)])
            assert lo[0] < hi[0] < lo[1] < hi[1]


def test_base_graph_neighbors_and_text():
    g = base_graph(3)
    assert set(g.neighbors((1, 3))) == {(1, 2), (2, 3)}
    assert g.neighbors((1, 2)) == ((1, 3),)
    assert len(g.edges()) == 2

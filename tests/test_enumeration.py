"""The memoised enumeration of :func:`nctoggles.core.independent_sets`
against the plain recursion in tests/brute.py: the same sets, order
included, whatever was enumerated before, packed into lanes from
:data:`nctoggles.core.VECTOR_MIN_STATES` sets on."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles import core
from nctoggles.core import (
    SMALL_SUBTREE,
    VECTOR_MIN_STATES,
    PackedSets,
    independent_sets,
)
from nctoggles.ncpartition import (
    _enum_masks_cached,
    arc_index,
    catalan,
    conflict_masks,
    enumerate_masks,
)


def test_enumerate_masks_equals_the_plain_recursion_to_13():
    # One test: the oracle's side alone takes about half a second at n = 13.
    try:
        for n in range(14):
            assert tuple(enumerate_masks(n, limit=13)) == brute.independent_sets(
                conflict_masks(n)
            )
    finally:
        _enum_masks_cached.cache_clear()


def test_nc_enumerations_pack_from_n_11():
    # C_10 = 16,796 < 2**15 <= C_11; NC(11) has 55 arc slots, NC(12) 66.
    assert type(enumerate_masks(10)) is tuple
    try:
        for n, lanes in ((11, 1), (12, 2), (13, 2)):
            states = enumerate_masks(n, limit=13)
            assert isinstance(states, PackedSets) and len(states.lanes) == lanes
            # The test above checks iteration against the plain recursion.
            want = tuple(states)
            step = len(want) // 1000
            assert [states[i] for i in range(0, len(want), step)] == list(want[::step])
            assert states[-3:] == want[-3:] and states[7:9] == want[7:9]
    finally:
        _enum_masks_cached.cache_clear()


def _path(m):
    return [(v, v + 1) for v in range(m - 1)]


@st.composite
def larger_graphs(draw):
    """A graph on 17-24 vertices, with an edge density that keeps its
    independent sets to tens of thousands, and a vertex subset ``within``.

    At the sparser densities some candidate sets exceed
    :data:`SMALL_SUBTREE` vertices, so both the plain recursion and the memo
    run."""
    m = draw(st.integers(min_value=SMALL_SUBTREE + 1, max_value=24))
    density = draw(st.sampled_from([0.15, 0.2, 0.3, 0.5]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [pair for pair in combinations(range(m), 2) if rnd.random() < density]
    within = rnd.getrandbits(m)
    return m, edges, within


def _adj(m, edges):
    adj = [0] * m
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _threshold_graph(k):
    """A graph on 2k vertices with exactly 2**(k + 1) - 1 independent sets:
    k times, add an isolated vertex, then one adjacent to every vertex so
    far, which takes the count i to 2i + 1, from 1 for no vertices."""
    adj = []
    for _ in range(k):
        adj.append(0)
        hub = len(adj)
        adj = [a | 1 << hub for a in adj] + [(1 << hub) - 1]
    return tuple(adj)


def _seeded_graph(seed, m, density):
    rnd = random.Random(seed)
    return _adj(m, [pair for pair in combinations(range(m), 2) if rnd.random() < density])


def _clique_plus_isolated(m, t):
    """K_m on vertices 0..m-1 and t isolated vertices after it: (m + 1) * 2**t
    independent sets."""
    return tuple((1 << m) - 1 ^ 1 << v for v in range(m)) + (0,) * t


@pytest.mark.parametrize(
    "adj,count,lanes",
    [
        (_threshold_graph(14), VECTOR_MIN_STATES - 1, 0),
        (tuple([0] * 15), VECTOR_MIN_STATES, 1),
        (_seeded_graph(22, 24, 0.12), 71_556, 1),
        # The isolated vertices of K_55 + 10 straddle bit 64; K_119 + 10 has
        # 129 vertices, too many for two lanes.
        (_clique_plus_isolated(54, 10), 56_320, 1),
        (_clique_plus_isolated(55, 10), 57_344, 2),
        (_clique_plus_isolated(118, 10), 121_856, 2),
        (_clique_plus_isolated(119, 10), 122_880, 0),
    ],
    ids=["2**15-1", "2**15", "seeded-24", "K54+10", "K55+10", "K118+10", "K119+10"],
)
def test_packing_starts_at_vector_min_states(adj, count, lanes):
    want = brute.independent_sets(adj)
    assert len(want) == count
    got = independent_sets(adj)
    assert (len(got.lanes) if isinstance(got, PackedSets) else 0) == lanes
    assert len(got) == len(want) and list(got) == list(want)
    assert all(got[i] == want[i] for i in range(0, len(want), 97))
    # Every third vertex of the first half left out, which keeps each
    # K_m + 10 search above VECTOR_MIN_STATES.
    within = (1 << len(adj)) - 1 ^ sum(1 << v for v in range(0, len(adj) // 2, 3))
    assert independent_sets(adj, within) == brute.independent_sets(adj, within)


@settings(max_examples=15, deadline=None)
@given(larger_graphs())
@example((20, _path(20), (1 << 20) - 1))
@example((17, [], (1 << 17) - 1 - 0b100))
@example((20, list(combinations(range(20), 2)), 0))
def test_larger_graphs_equal_the_plain_recursion(case):
    m, edges, within = case
    adj = _adj(m, edges)
    assert independent_sets(adj) == brute.independent_sets(adj)
    assert independent_sets(adj, within) == brute.independent_sets(adj, within)


def test_results_do_not_depend_on_call_history():
    n = 8
    adj = conflict_masks(n)
    # The same table with one more edge, between two late vertices so that
    # it lies inside memoised subtrees: a memo keyed by anything coarser than
    # the table would hand one graph's subtrees to the other.
    a, b = arc_index(n, (4, 5)), arc_index(n, (6, 7))
    other = list(adj)
    other[a] |= 1 << b
    other[b] |= 1 << a
    full = (1 << len(adj)) - 1
    withins = [full, 0, *(0x5A5A5A5 * k & full for k in range(1, 9))]
    want = {w: brute.independent_sets(adj, w) for w in withins}
    core._small_subtrees.cache_clear()
    fresh = {w: independent_sets(adj, w) for w in withins}
    assert fresh == want
    # Repeated, reversed and interleaved with another graph's calls.
    for w in [*withins, *reversed(withins), *withins]:
        assert independent_sets(other, w) == brute.independent_sets(other, w)
        assert independent_sets(adj, w) == want[w]


def test_a_list_table_and_an_equal_tuple_give_the_same_sets():
    adj = conflict_masks(7)
    for first, second in ((list(adj), adj), (adj, list(adj))):
        core._small_subtrees.cache_clear()
        assert independent_sets(first) == independent_sets(second)
        assert independent_sets(first, 0xF0F0F) == independent_sets(second, 0xF0F0F)
    assert core._small_subtrees.cache_info().currsize == 1


def test_the_nc12_memo_is_far_smaller_than_the_enumeration():
    # A store that kept a copy of the enumeration would hold C_12 items.
    adj = conflict_masks(12)
    independent_sets(adj)
    memo = core._small_subtrees(adj).memo
    assert 0 < sum(map(len, memo.values())) < catalan(12) / 10

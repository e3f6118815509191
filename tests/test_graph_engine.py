"""The graph side of the toggle-system core against tests/brute.py."""

import random
from array import array
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles import core
from nctoggles.core import _pairs_numpy, _pairs_python, independent_sets
from nctoggles.indsets import (
    SimpleGraph,
    _vertex_word_stepper,
    check_cliquish_with,
    cycle_with_edge_triangles,
    independent_set_masks,
    orbit_partition,
    pendant_double,
    toggle_vertex,
    verify_cardinality_homomesy,
)
from test_orbit_engine import needs_numpy


@st.composite
def graphs_with_words(draw, max_vertices=7, max_len=10):
    """A graph on at most ``max_vertices`` vertices, whose labels are a
    shuffle of 0..m-1 (so position and label order differ), with a word
    that may be empty and may repeat vertices."""
    m = draw(st.integers(min_value=0, max_value=max_vertices))
    vertices = draw(st.permutations(range(m)))
    pairs = list(combinations(vertices, 2))
    edges = [p for p in pairs if draw(st.booleans())]
    word = draw(st.lists(st.sampled_from(vertices), max_size=max_len)) if m else []
    return vertices, edges, word


def complete(m):
    return list(combinations(range(m), 2))


EXAMPLES = [
    ([], [], []),
    ([0], [], []),
    ([0], [], [0, 0]),
    ([0, 1, 2, 3], [], [2, 0, 3, 1]),
    (list(range(5)), complete(5), [0, 1, 2, 3, 4]),
    (list(range(7)), complete(7), [6, 6, 3]),
    ([2, 0, 1], [(2, 0), (0, 1)], [1, 0, 1, 2]),
]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(graphs_with_words())
@with_examples
def test_independent_set_masks_match_subset_filter(case):
    vertices, edges, word = case
    graph = SimpleGraph(vertices, edges)
    want = [
        sum(1 << vertices.index(v) for v in state)
        for state in brute.graph_independent_sets(vertices, edges)
    ]
    assert list(independent_set_masks(graph)) == want
    # Restricted to the vertices the word names, in the same order.
    within = sum(1 << vertices.index(v) for v in set(word))
    assert list(independent_sets(graph.adj, within)) == [
        mask for mask in want if not mask & ~within
    ]


@settings(max_examples=150, deadline=None)
@given(graphs_with_words())
@with_examples
def test_independent_set_orbits_match_bruteforce_chase(case):
    vertices, edges, word = case
    graph = SimpleGraph(vertices, edges)
    orbits = [
        [frozenset(graph._unpack(m)) for m in orbit]
        for orbit in orbit_partition(graph, word)
    ]
    assert orbits == brute.graph_orbits(vertices, edges, word)


@settings(max_examples=150, deadline=None)
@given(graphs_with_words())
@with_examples
def test_toggle_vertex_matches_bruteforce_on_every_state(case):
    vertices, edges, _ = case
    graph = SimpleGraph(vertices, edges)
    for mask in independent_set_masks(graph):
        state = frozenset(graph._unpack(mask))
        for v in vertices:
            assert toggle_vertex(graph, state, v) == brute.toggle_vertex(
                edges, state, v
            )


@st.composite
def clustered_graphs(draw, max_vertices=24, max_cliques=6):
    """A graph on at most ``max_vertices`` vertices that ``max_cliques``
    cliques cover, with any other edges: an independent set takes at most
    one vertex of each clique, so it has at most 5**6 of them."""
    m = draw(st.integers(min_value=0, max_value=max_vertices))
    clique = draw(st.lists(st.integers(0, max_cliques - 1), min_size=m, max_size=m))
    pairs = list(combinations(range(m), 2))
    across = [(u, v) for u, v in pairs if clique[u] != clique[v]]
    extra = draw(st.sets(st.sampled_from(across))) if across else set()
    within = [(u, v) for u, v in pairs if clique[u] == clique[v]]
    return SimpleGraph(range(m), within + sorted(extra))


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(clustered_graphs())
@example(SimpleGraph([]))
@example(SimpleGraph(range(14)))
@example(SimpleGraph(range(24), combinations(range(24), 2)))
def test_numpy_tables_equal_the_pure_python_build_on_graphs(graph):
    states, slots = independent_set_masks(graph), set(range(graph.n_vertices))
    fast = _pairs_numpy(graph.adj, slots, states)
    slow = _pairs_python(graph.adj, slots, states)
    assert sorted(fast) == sorted(slow) == sorted(slots)
    for k in slots:
        assert fast[k].dtype.name == "int32"
        # Below 2**15 states the pure-Python tables are lists.
        assert type(slow[k]) is (list if len(states) < 2**15 else array)
        assert fast[k].tolist() == list(slow[k])


def test_graph_reports_equal_the_stepper_oracle():
    rng = random.Random(5)
    base = [e for e in combinations(range(7), 2) if rng.random() < 0.3]
    graph, u_set = pendant_double(SimpleGraph(range(7), base))
    word = list(graph.vertices)
    rng.shuffle(word)
    states = independent_set_masks(graph)
    assert len(states) >= 2**15
    oracle = core.orbit_partition(states, _vertex_word_stepper(graph, word))
    assert orbit_partition(graph, word) == oracle
    cert = check_cliquish_with(graph, u_set)
    fast = verify_cardinality_homomesy(graph, cert, word)
    assert fast.holds and len(fast.sub_reports) == len(u_set)
    # The reports list no orbit; their sums are checked state by state
    # over the oracle's orbits.
    values = {"card": int.bit_count}
    for u in u_set:
        v = graph.index_of(u)
        values[f"psi:{u}"] = lambda x, v=v: 2 * (x >> v & 1) + (x & graph.adj[v]).bit_count()
    for got in (fast, *fast.sub_reports):
        value = values[got.statistic]
        assert got.orbit_sizes == tuple(map(len, oracle))
        assert got.sums == tuple(sum(map(value, orbit)) for orbit in oracle)


@needs_numpy
def test_numpy_tables_fail_loudly_on_a_bad_graph_state_list():
    graph, _ = cycle_with_edge_triangles(5)
    states, k = independent_set_masks(graph), graph.index_of(1)
    with pytest.raises(RuntimeError, match="listed twice"):
        _pairs_numpy(graph.adj, {k}, states + states[:1])
    with pytest.raises(RuntimeError, match="without arc slot"):
        _pairs_numpy(graph.adj, {k}, states[1:])
    with pytest.raises(RuntimeError, match="contain arc slot"):
        _pairs_numpy(graph.adj, {k}, tuple(m for m in states if m != 1 << k))

"""The graph side of the toggle-system core against tests/brute.py."""

from itertools import combinations

from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles.core import independent_sets
from nctoggles.indsets import (
    SimpleGraph,
    enumerate_independent_sets,
    independent_set_masks,
    independent_set_orbits,
    toggle_vertex,
)


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
    assert independent_set_orbits(graph, word) == brute.graph_orbits(
        vertices, edges, word
    )


@settings(max_examples=150, deadline=None)
@given(graphs_with_words())
@with_examples
def test_toggle_vertex_matches_bruteforce_on_every_state(case):
    vertices, edges, _ = case
    graph = SimpleGraph(vertices, edges)
    for state in enumerate_independent_sets(graph):
        for v in vertices:
            assert toggle_vertex(graph, state, v) == brute.toggle_vertex(
                edges, state, v
            )

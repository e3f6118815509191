import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import brute
from nctoggles.indsets import (
    GraphSizeError,
    Multigraph,
    SimpleGraph,
    base_graph,
    check_cliquish_with,
    complete_minus_edge,
    count_labeled_augmentations,
    cycle_with_edge_triangles,
    enumerate_2cliquish_from_skeletal,
    graph_isomorphic,
    independent_set_masks,
    is_2_cliquish,
    is_skeletal,
    maximal_independent_sets,
    multigraph_isomorphic,
    multigraph_to_skeletal,
    pendant_double,
    skeletal_to_multigraph,
    skeletalize,
    toggle_vertex,
    verify_cardinality_homomesy,
)
from nctoggles import indsets, verify
from nctoggles.ncpartition import arc_index, enumerate_masks, enumerate_nc
from nctoggles.toggles import toggle
from nctoggles.dynamics import Statistic
from nctoggles.verify import enumerate_multigraphs

K4ME, K4ME_U = complete_minus_edge(4)
FIG10 = SimpleGraph(
    list("abcdefg"),
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d"),
     ("e", "f"), ("f", "g")],
)
FIG10_U = frozenset("aceg")


def label_sets(graph):
    """The graph's independent sets as frozensets of labels."""
    return [frozenset(graph._unpack(m)) for m in independent_set_masks(graph)]


def plus_edges(graph, *edges):
    return SimpleGraph(graph.vertices, graph.edges() + list(edges))


def brute_independent_sets(graph):
    vertices = graph.vertices
    out = set()
    for r in range(len(vertices) + 1):
        for combo in combinations(vertices, r):
            if all(not graph.has_edge(a, b) for a, b in combinations(combo, 2)):
                out.add(frozenset(combo))
    return out


def test_simple_graph_basics():
    g = SimpleGraph([1, 2, 3, 1], [(1, 2)])
    assert g.vertices == (1, 2, 3)
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert g.neighbors(1) == (2,)
    assert g.degree(3) == 0
    assert g.edges() == [(1, 2)]
    with pytest.raises(ValueError):
        SimpleGraph([1], [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph([1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        g.index_of(9)


def test_graph_text_roundtrip():
    text = "# sample\nvertices: a b c d\na b\nb c\n"
    g = SimpleGraph.from_text(text)
    assert g.vertices == ("a", "b", "c", "d")
    assert g.edges() == [("a", "b"), ("b", "c")]
    again = SimpleGraph.from_text(g.to_text())
    assert again == g
    with pytest.raises(ValueError):
        SimpleGraph.from_text("a b c")


def test_k4_minus_edge_independent_sets():
    sets = label_sets(K4ME)
    assert len(sets) == 6
    assert brute_independent_sets(K4ME) == set(sets)
    assert frozenset({1, 2}) in sets


def test_edgeless_graph_counts():
    for k in range(5):
        g = SimpleGraph(range(k))
        assert len(label_sets(g)) == 2 ** k


def test_gamma5_has_catalan_many_independent_sets():
    assert len(label_sets(base_graph(5))) == 42


def test_independent_set_ceiling():
    g = SimpleGraph(range(30))
    with pytest.raises(GraphSizeError):
        independent_set_masks(g)


def test_toggle_vertex_basics():
    g = SimpleGraph(["u", "v", "w"], [("u", "v")])
    empty = frozenset()
    assert toggle_vertex(g, empty, "w") == {"w"}
    assert toggle_vertex(g, frozenset({"u"}), "v") == {"u"}  # blocked
    assert toggle_vertex(g, frozenset({"u"}), "u") == frozenset()
    with pytest.raises(ValueError):
        toggle_vertex(g, empty, "x")


def test_gamma_graph_matches_partition_toggles():
    for n in range(2, 6):
        graph = base_graph(n)
        assert enumerate_masks(n) == independent_set_masks(graph)
        for p in enumerate_nc(n):
            state = frozenset(p.arcs())
            for arc in graph.vertices:
                assert frozenset(toggle(p, arc).arcs()) == toggle_vertex(
                    graph, state, arc
                )


def test_gamma_equivalence_checks_states_against_validate(monkeypatch):
    # Both enumerations agree and keep the Catalan count, but one state is
    # the crossing pair (1,3), (2,4): only the noncrossing rules catch it.
    states = list(enumerate_masks(4))
    states[-1] = 1 << arc_index(4, (1, 3)) | 1 << arc_index(4, (2, 4))
    monkeypatch.setattr(verify, "enumerate_masks", lambda n: tuple(states))
    monkeypatch.setattr(indsets, "independent_set_masks", lambda g: tuple(states))
    assert verify._check_gamma_equivalence(4) == (
        "n=4: NCPartition(4, [(1, 3), (2, 4)]) is not noncrossing"
    )


def test_psi_v_examples():
    g = SimpleGraph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("u", "w")])
    assert brute.psi_v(g.edges(), frozenset({"v"}), "v") == 2
    assert brute.psi_v(g.edges(), frozenset({"u"}), "v") == 1
    assert brute.psi_v(g.edges(), frozenset(), "v") == 0


def test_psi_v_matches_partition_psi_on_gamma():
    for n in range(2, 8):
        edges = base_graph(n).edges()
        for p in enumerate_nc(n):
            state = frozenset(p.arcs())
            for k in range(1, n):
                assert brute.psi_v(edges, state, (k, k + 1)) == Statistic.psi(k).evaluate(p)


def test_is_2_cliquish_k4_minus_edge():
    cert = is_2_cliquish(K4ME)
    assert cert is not None
    assert cert.u_set == {1, 2}
    assert cert.A == 2
    assert cert.u_neighbors == {3: (1, 2), 4: (1, 2)}


def test_is_2_cliquish_triangle_fails():
    k3 = SimpleGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert is_2_cliquish(k3) is None
    assert maximal_independent_sets(k3) == [
        frozenset({1}), frozenset({2}), frozenset({3})
    ]


def test_cycle_with_triangles_certificate():
    graph, u_set = cycle_with_edge_triangles(6)
    assert len(u_set) == 6
    cert = check_cliquish_with(graph, u_set)
    assert cert is not None and cert.A == 6
    assert is_2_cliquish(graph) is not None


def test_pendant_double_certificate():
    seed = SimpleGraph(["x", "y", "z"], [("x", "y"), ("y", "z")])
    doubled, u_set = pendant_double(seed)
    cert = check_cliquish_with(doubled, u_set)
    assert cert is not None
    # every original vertex has exactly its two new pendant U-neighbors
    for v in seed.vertices:
        assert set(cert.u_neighbors[v]) == {(v, "p1"), (v, "p2")}


def test_check_cliquish_with_rejects_bad_u():
    assert check_cliquish_with(K4ME, frozenset({1, 3})) is None  # not independent
    assert check_cliquish_with(K4ME, frozenset({1})) is None  # not maximal
    assert check_cliquish_with(FIG10, frozenset("ace")) is None


def test_maximality_is_implied_by_two_neighbor_condition():
    for graph, u_set in (
        (K4ME, K4ME_U),
        cycle_with_edge_triangles(5),
        (FIG10, FIG10_U),
    ):
        cert = check_cliquish_with(graph, u_set)
        assert cert is not None
        assert frozenset(u_set) in set(maximal_independent_sets(graph))


def test_verify_cardinality_homomesy_k4me():
    cert = is_2_cliquish(K4ME)
    report = verify_cardinality_homomesy(K4ME, cert, [1, 2, 3, 4])
    assert report.holds and report.mean == Fraction(1)
    assert all(sub.holds and sub.mean == 1 for sub in report.sub_reports)


def test_verify_cardinality_homomesy_c6_triangles():
    graph, u_set = cycle_with_edge_triangles(6)
    cert = check_cliquish_with(graph, u_set)
    rng = random.Random(4)
    word = list(graph.vertices)
    rng.shuffle(word)
    report = verify_cardinality_homomesy(graph, cert, word)
    assert report.holds and report.mean == Fraction(3)
    assert sum(report.orbit_sizes) == len(brute_independent_sets(graph))


def test_verify_cardinality_precondition():
    cert = is_2_cliquish(K4ME)
    report = verify_cardinality_homomesy(K4ME, cert, [1, 3, 4])  # misses 2
    assert report.precondition is not None and "2" in report.precondition
    report = verify_cardinality_homomesy(K4ME, cert, [1, 2, 1])
    assert report.precondition is not None and "repeats" in report.precondition


def test_pointwise_psi_sum_is_twice_cardinality():
    for graph, u_set in ((K4ME, K4ME_U), cycle_with_edge_triangles(4)):
        cert = check_cliquish_with(graph, u_set)
        for state in label_sets(graph):
            total = sum(brute.psi_v(graph.edges(), state, u) for u in cert.u_set)
            assert total == 2 * len(state)


def test_gamma_graph_short_arcs_reproduce_arc_count_homomesy():
    # U = short arcs embeds the partition theorem in the graph setting
    for n in (4, 5):
        graph = base_graph(n)
        u_set = frozenset((k, k + 1) for k in range(1, n))
        cert = check_cliquish_with(graph, u_set)
        assert cert is not None and cert.A == n - 1
        word = list(graph.vertices)
        report = verify_cardinality_homomesy(graph, cert, word)
        assert report.holds and report.mean == Fraction(n - 1, 2)


def test_remove_edge_preconditions():
    with pytest.raises(ValueError) as err:
        brute.remove_edge(K4ME, K4ME_U, (3, 4))  # 3 and 4 share U-neighbors
    assert "share a neighbor in U" in str(err.value)
    with pytest.raises(ValueError):
        brute.remove_edge(K4ME, K4ME_U, (1, 3))  # endpoint in U
    graph, u_set = cycle_with_edge_triangles(6)
    with pytest.raises(ValueError):
        brute.remove_edge(graph, u_set, (1, 2))  # they share the apex of edge 1-2
    augmented = plus_edges(FIG10, ("b", "f"))
    smaller = brute.remove_edge(augmented, FIG10_U, ("b", "f"))
    assert check_cliquish_with(smaller, FIG10_U) is not None
    with pytest.raises(ValueError):
        brute.remove_edge(smaller, FIG10_U, ("b", "f"))  # no longer present


def test_cycle_with_triangles_is_skeletal():
    graph, u_set = cycle_with_edge_triangles(6)
    assert is_skeletal(graph, u_set)


def test_add_then_remove_roundtrip():
    bigger = plus_edges(FIG10, ("b", "f"))
    assert brute.remove_edge(bigger, FIG10_U, ("b", "f")) == FIG10


def test_k4_minus_edge_is_skeletal():
    assert is_skeletal(K4ME, K4ME_U)
    assert skeletalize(K4ME, K4ME_U) == K4ME


def test_skeletalize_fig10_augmentations():
    assert is_skeletal(FIG10, FIG10_U)
    for extra in ([("b", "f")], [("d", "f")], [("b", "f"), ("d", "f")]):
        augmented = plus_edges(FIG10, *extra)
        assert not is_skeletal(augmented, FIG10_U)
        assert skeletalize(augmented, FIG10_U) == FIG10
    assert skeletalize(FIG10, FIG10_U) == FIG10  # idempotent


def test_skeletalize_is_order_independent():
    augmented = plus_edges(FIG10, ("b", "f"), ("d", "f"))
    for order in permutations([("b", "f"), ("d", "f")]):
        current = augmented
        for e in order:
            current = brute.remove_edge(current, FIG10_U, e)
        assert current == FIG10


def test_skeletal_ops_reject_non_cliquish():
    k3 = SimpleGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError):
        is_skeletal(k3, frozenset({1}))
    with pytest.raises(ValueError):
        skeletalize(k3, frozenset({1}))


def test_multigraph_basics():
    m = Multigraph("ABC", [("B", "A"), ("A", "B"), ("B", "C")])
    assert m.edges == (("A", "B"), ("A", "B"), ("B", "C"))
    assert m.degree("B") == 3 and m.degree("C") == 1
    assert Multigraph.from_text(m.to_text()) == Multigraph(
        "ABC", [("A", "B"), ("A", "B"), ("B", "C")]
    )
    with pytest.raises(ValueError):
        Multigraph("AB", [("A", "A")])


def test_pinned_nine_vertex_bijection_instance():
    m = Multigraph("ABCDE", [("A", "B"), ("A", "B"), ("B", "C"), ("C", "D")])
    graph, u_set = multigraph_to_skeletal(m)
    assert graph.n_vertices == 9
    assert u_set == frozenset("ABCDE")
    assert m.n_vertices + m.n_edges == 9
    # edge-vertices joined exactly when their multigraph edges share an endpoint
    expected_vv = {("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v3", "v4")}
    actual_vv = {
        tuple(sorted(e)) for e in graph.edges() if e[0].startswith("v") and e[1].startswith("v")
    }
    assert actual_vv == expected_vv
    assert is_skeletal(graph, u_set)
    assert skeletal_to_multigraph(graph, u_set) == m


def test_single_vertex_bijection():
    m = Multigraph("A")
    graph, u_set = multigraph_to_skeletal(m)
    assert graph.n_vertices == 1 and u_set == frozenset("A")
    assert skeletal_to_multigraph(graph, u_set) == m


def test_forward_map_requires_skeletal():
    augmented = plus_edges(FIG10, ("b", "f"))
    with pytest.raises(ValueError):
        skeletal_to_multigraph(augmented, FIG10_U)


def test_label_collision_rejected():
    m = Multigraph(["v1", "x"], [("v1", "x")])
    with pytest.raises(ValueError):
        multigraph_to_skeletal(m)


def test_bijection_roundtrip_small():
    for m in enumerate_multigraphs(6):
        graph, u_set = multigraph_to_skeletal(m)
        assert graph.n_vertices == m.n_vertices + m.n_edges
        assert is_skeletal(graph, u_set)
        assert multigraph_isomorphic(skeletal_to_multigraph(graph, u_set), m)


def test_enumerate_2cliquish_from_skeletal_fig10():
    graphs = enumerate_2cliquish_from_skeletal(FIG10, FIG10_U)
    assert count_labeled_augmentations(FIG10, FIG10_U) == 4
    assert len(graphs) == 3
    for g in graphs:
        assert check_cliquish_with(g, FIG10_U) is not None


def test_enumerate_2cliquish_no_addable_pairs():
    graphs = enumerate_2cliquish_from_skeletal(K4ME, K4ME_U)
    assert graphs == [K4ME]


def test_graph_isomorphic_examples():
    middle1 = plus_edges(FIG10, ("b", "f"))
    middle2 = plus_edges(FIG10, ("d", "f"))
    assert graph_isomorphic(middle1, middle2)
    assert not graph_isomorphic(middle1, FIG10)  # different edge counts
    path = SimpleGraph([1, 2, 3], [(1, 2), (2, 3)])
    star = SimpleGraph([1, 2, 3], [(1, 2), (1, 3)])
    assert graph_isomorphic(path, star)
    triangle = SimpleGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert not graph_isomorphic(path, triangle)


def test_graph_isomorphic_random_relabel():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(2, 8)
        edges = [
            (a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.4
        ]
        g = SimpleGraph(range(n), edges)
        relabeling = list(range(n))
        rng.shuffle(relabeling)
        h = SimpleGraph(
            range(n), [(relabeling[a], relabeling[b]) for a, b in edges]
        )
        assert graph_isomorphic(g, h)


def test_graph_isomorphic_ceiling():
    big = SimpleGraph(range(11))
    with pytest.raises(GraphSizeError):
        graph_isomorphic(big, big)


def test_multigraph_isomorphic_multiplicities():
    double = Multigraph("AB", [("A", "B"), ("A", "B")])
    single = Multigraph("AB", [("A", "B")])
    assert not multigraph_isomorphic(double, single)
    relabeled = Multigraph("XY", [("Y", "X"), ("X", "Y")])
    assert multigraph_isomorphic(double, relabeled)
    fork = Multigraph("ABC", [("A", "B"), ("A", "C")])
    twin = Multigraph("ABC", [("A", "B"), ("A", "B")])
    assert not multigraph_isomorphic(fork, twin)


def skeletalize_one_edge_at_a_time(graph, u_set):
    """Reference: remove the first removable edge, rescan, repeat."""
    u_set = frozenset(u_set)
    current = graph
    while True:
        removable = indsets._removable_edges(current, u_set)
        if not removable:
            return current
        current = brute.without_edge(current, *removable[0])


def test_one_pass_skeletalize_matches_the_edge_by_edge_reference():
    seed = 20261018
    rng = random.Random(seed)
    # Up to |V| + |E| = 8, so that some skeletal graphs have 2 to 4 addable
    # pairs and the reference removes edges over several rescans.
    for m in enumerate_multigraphs(8):
        skeletal, u_set = multigraph_to_skeletal(m)
        addable = indsets._addable_pairs(skeletal, u_set)
        for _ in range(4):
            added = [pair for pair in addable if rng.random() < 0.5]
            graph = SimpleGraph(skeletal.vertices, skeletal.edges() + added)
            fast = skeletalize(graph, u_set)
            reference = skeletalize_one_edge_at_a_time(graph, u_set)
            context = f"seed={seed} {m!r} + {added}"
            assert fast.to_text() == reference.to_text(), context
            assert fast.to_text() == skeletal.to_text(), context

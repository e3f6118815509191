import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from nctoggles.indsets import (
    GraphSizeError,
    Multigraph,
    SimpleGraph,
    add_edge,
    apply_vertex_word,
    check_cliquish_with,
    complete_minus_edge,
    count_labeled_augmentations,
    cycle_with_edge_triangles,
    disjoint_union,
    enumerate_2cliquish_from_skeletal,
    enumerate_independent_sets,
    gamma_graph,
    graph_isomorphic,
    independent_set_orbits,
    is_2_cliquish,
    is_skeletal,
    maximal_independent_sets,
    multigraph_isomorphic,
    multigraph_to_skeletal,
    parse_vertex_word,
    pendant_double,
    psi_v,
    remove_edge,
    skeletal_to_multigraph,
    skeletalize,
    toggle_vertex,
    verify_cardinality_homomesy,
)
from nctoggles.ncpartition import enumerate_masks, enumerate_nc
from nctoggles.toggles import toggle
from nctoggles.dynamics import Statistic, eval_statistic
from nctoggles.verify import enumerate_multigraphs

K4ME, K4ME_U = complete_minus_edge(4)
FIG10 = SimpleGraph(
    list("abcdefg"),
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d"),
     ("e", "f"), ("f", "g")],
)
FIG10_U = frozenset("aceg")


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
    sets = enumerate_independent_sets(K4ME)
    assert len(sets) == 6
    assert brute_independent_sets(K4ME) == set(sets)
    assert frozenset({1, 2}) in sets


def test_edgeless_graph_counts():
    for k in range(5):
        g = SimpleGraph(range(k))
        assert len(enumerate_independent_sets(g)) == 2 ** k


def test_gamma5_has_catalan_many_independent_sets():
    assert len(enumerate_independent_sets(gamma_graph(5))) == 42


def test_independent_set_ceiling():
    g = SimpleGraph(range(30))
    with pytest.raises(GraphSizeError):
        enumerate_independent_sets(g, limit=24)


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
        graph = gamma_graph(n)
        assert enumerate_masks(n) == tuple(
            graph._pack(s) for s in enumerate_independent_sets(graph)
        )
        for p in enumerate_nc(n):
            state = frozenset(p.arcs())
            for arc in graph.vertices:
                assert frozenset(toggle(p, arc).arcs()) == toggle_vertex(
                    graph, state, arc
                )


def test_psi_v_examples():
    g = SimpleGraph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("u", "w")])
    assert psi_v(g, frozenset({"v"}), "v") == 2
    assert psi_v(g, frozenset({"u"}), "v") == 1
    assert psi_v(g, frozenset(), "v") == 0


def test_psi_v_matches_partition_psi_on_gamma():
    for n in range(2, 8):
        graph = gamma_graph(n)
        for p in enumerate_nc(n):
            state = frozenset(p.arcs())
            for k in range(1, n):
                assert psi_v(graph, state, (k, k + 1)) == eval_statistic(
                    Statistic.psi(k), p
                )


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
        for state in enumerate_independent_sets(graph):
            total = sum(psi_v(graph, state, u) for u in cert.u_set)
            assert total == 2 * len(state)


def test_gamma_graph_short_arcs_reproduce_arc_count_homomesy():
    # U = short arcs embeds the partition theorem in the graph setting
    for n in (4, 5):
        graph = gamma_graph(n)
        u_set = frozenset((k, k + 1) for k in range(1, n))
        cert = check_cliquish_with(graph, u_set)
        assert cert is not None and cert.A == n - 1
        word = list(graph.vertices)
        report = verify_cardinality_homomesy(graph, cert, word)
        assert report.holds and report.mean == Fraction(n - 1, 2)


def test_disjoint_union_certificate():
    union, u_set = disjoint_union(K4ME, K4ME, K4ME_U, K4ME_U)
    assert len(u_set) == 4
    cert = check_cliquish_with(union, u_set)
    assert cert is not None and cert.A == 4


def test_add_edge_preconditions():
    graph, u_set = cycle_with_edge_triangles(6)
    with pytest.raises(ValueError):
        add_edge(graph, u_set, (("e", 1), 1))  # endpoint in U
    with pytest.raises(ValueError):
        add_edge(graph, u_set, (1, 2))  # already present
    bigger = add_edge(graph, u_set, (1, 3))
    assert check_cliquish_with(bigger, u_set) is not None


def test_remove_edge_preconditions():
    with pytest.raises(ValueError) as err:
        remove_edge(K4ME, K4ME_U, (3, 4))  # 3 and 4 share U-neighbors
    assert "share a neighbor in U" in str(err.value)
    with pytest.raises(ValueError):
        remove_edge(K4ME, K4ME_U, (1, 3))  # endpoint in U
    graph, u_set = cycle_with_edge_triangles(6)
    with pytest.raises(ValueError):
        remove_edge(graph, u_set, (1, 2))  # they share the apex of edge 1-2
    augmented = add_edge(FIG10, FIG10_U, ("b", "f"))
    smaller = remove_edge(augmented, FIG10_U, ("b", "f"))
    assert check_cliquish_with(smaller, FIG10_U) is not None
    with pytest.raises(ValueError):
        remove_edge(smaller, FIG10_U, ("b", "f"))  # no longer present


def test_cycle_with_triangles_is_skeletal():
    graph, u_set = cycle_with_edge_triangles(6)
    assert is_skeletal(graph, u_set)


def test_add_then_remove_roundtrip():
    bigger = add_edge(FIG10, FIG10_U, ("b", "f"))
    assert remove_edge(bigger, FIG10_U, ("b", "f")) == FIG10


def test_k4_minus_edge_is_skeletal():
    assert is_skeletal(K4ME, K4ME_U)
    assert skeletalize(K4ME, K4ME_U) == K4ME


def test_skeletalize_fig10_augmentations():
    assert is_skeletal(FIG10, FIG10_U)
    for extra in ([("b", "f")], [("d", "f")], [("b", "f"), ("d", "f")]):
        augmented = FIG10
        for e in extra:
            augmented = add_edge(augmented, FIG10_U, e)
        assert not is_skeletal(augmented, FIG10_U)
        assert skeletalize(augmented, FIG10_U) == FIG10
    assert skeletalize(FIG10, FIG10_U) == FIG10  # idempotent


def test_skeletalize_is_order_independent():
    augmented = add_edge(add_edge(FIG10, FIG10_U, ("b", "f")), FIG10_U, ("d", "f"))
    for order in permutations([("b", "f"), ("d", "f")]):
        current = augmented
        for e in order:
            current = remove_edge(current, FIG10_U, e)
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
    augmented = add_edge(FIG10, FIG10_U, ("b", "f"))
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
    middle1 = add_edge(FIG10, FIG10_U, ("b", "f"))
    middle2 = add_edge(FIG10, FIG10_U, ("d", "f"))
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


def test_vertex_word_parsing_and_orbits():
    word = parse_vertex_word(K4ME, "4 3 2 1")
    assert word == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        parse_vertex_word(K4ME, "1 9")
    orbits = independent_set_orbits(K4ME, word)
    assert sum(len(o) for o in orbits) == 6
    state = frozenset({1})
    assert apply_vertex_word(K4ME, word, state) in {s for o in orbits for s in o}

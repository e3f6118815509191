"""Toggling independent sets of graphs, 2-cliquish graphs, and the
skeletal/multigraph bijection.

Vertex toggles on the independent sets of a simple graph generalize arc
toggles: adding a vertex is legal when none of its neighbors is in the set.
Noncrossing partitions are the special case of the base graph
(:func:`base_graph`), whose independent sets are exactly the valid arc
diagrams.

A graph is 2-cliquish when it has a maximal independent set U such that
every u in U has a clique for its neighborhood and every vertex outside U
has exactly two neighbors in U.  For such (G, U) and any word using every
toggle of U, the cardinality statistic is |U|/2-mesic.  Removing an edge
between two non-U vertices with no common U-neighbor preserves the
property; graphs admitting no such removal are skeletal, and skeletal pairs
(G, U) on n vertices biject with loopless multigraphs M = (V, E) with
|V| + |E| = n (U becomes the vertex set, every other vertex an edge joining
its two U-neighbors).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import independent_sets, stepper, word_orbit_sums, word_orbits
from .dynamics import HomomesyReport, psi_terms, stat_masks, theorem_report
from .ncpartition import arc_slots, arcs_conflict, index_arc


class GraphSizeError(RuntimeError):
    """An operation exceeded its vertex-count ceiling."""


def _index_labels(vertices, edges, where=""):
    """The labels deduplicated in first-seen order, their index, and the
    edges as a list, each checked to be loop-free between declared labels."""
    seen = tuple(dict.fromkeys(vertices))
    index = {v: k for k, v in enumerate(seen)}
    edges = list(edges)
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at {u!r} not allowed{where}")
        if u not in index or v not in index:
            raise ValueError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
    return seen, index, edges


def _graph_text(vertices, edges) -> str:
    lines = ["vertices: " + " ".join(str(v) for v in vertices)]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines)


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class SimpleGraph:
    """An immutable loop-free simple graph with ordered, hashable labels.

    The vertex order fixed at construction drives every canonical
    iteration; adjacency is kept as bitmasks over vertex indices.
    """

    vertices: tuple
    _index: dict
    adj: tuple[int, ...]

    def __init__(self, vertices, edges=()):
        seen, index, edges = _index_labels(vertices, edges, " in a simple graph")
        adj = [0] * len(seen)
        for u, v in edges:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        object.__setattr__(self, "vertices", seen)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "adj", tuple(adj))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def index_of(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def has_edge(self, u, v) -> bool:
        return bool(self.adj[self.index_of(u)] >> self.index_of(v) & 1)

    def neighbors(self, v) -> tuple:
        return self._unpack(self.adj[self.index_of(v)])

    def degree(self, v) -> int:
        return self.adj[self.index_of(v)].bit_count()

    def edges(self) -> list[tuple]:
        return [
            (v, w)
            for k, v in enumerate(self.vertices)
            for w in self._unpack(self.adj[k] >> (k + 1) << (k + 1))
        ]

    def _unpack(self, mask: int) -> tuple:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.vertices[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def _pack(self, labels) -> int:
        mask = 0
        for v in labels:
            mask |= 1 << self.index_of(v)
        return mask

    def is_clique(self, labels) -> bool:
        labels = tuple(labels)
        return all(self.has_edge(a, b) for a, b in combinations(labels, 2))

    def to_text(self) -> str:
        return _graph_text(self.vertices, self.edges())

    @classmethod
    def from_text(cls, text: str) -> "SimpleGraph":
        """Parse edge-list text: one ``u v`` per line, ``#`` comments, and an
        optional ``vertices:`` header listing labels (covers isolated ones).
        All labels are read as strings."""
        vertices, edges = _parse_graph_lines(text)
        return cls(vertices, edges)

    def _key(self) -> tuple:
        return frozenset(self.vertices), frozenset(map(frozenset, self.edges()))

    def __eq__(self, other) -> bool:
        return isinstance(other, SimpleGraph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SimpleGraph({list(self.vertices)}, {self.edges()})"


def _parse_graph_lines(text: str):
    # Labels are listed as met; the graph constructors deduplicate them.
    vertices: list = []
    edges: list = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            vertices += line[len("vertices:"):].split()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"cannot parse graph line {raw!r}")
        vertices += parts
        edges.append((parts[0], parts[1]))
    return vertices, edges


DEFAULT_VERTEX_LIMIT = 24


def independent_set_masks(graph: SimpleGraph) -> Sequence[int]:
    """Bitsets of all independent sets, in lexicographic order on sorted
    index lists (the same canonical order the partition enumeration uses),
    packed from 2**15 sets on (:func:`nctoggles.core.independent_sets`).
    The only check of the vertex ceiling, :data:`DEFAULT_VERTEX_LIMIT`."""
    if graph.n_vertices > DEFAULT_VERTEX_LIMIT:
        raise GraphSizeError(
            f"{graph.n_vertices} vertices exceeds the ceiling of {DEFAULT_VERTEX_LIMIT}"
        )
    return independent_sets(graph.adj)


def toggle_vertex(graph: SimpleGraph, current: frozenset, v) -> frozenset:
    """Toggle vertex v: remove it, add it if no neighbor is present, else no-op."""
    return apply_vertex_word(graph, (v,), current)


def vertex_word_text(word) -> str:
    """Composition-order text of an application-order vertex word."""
    return " ".join(str(v) for v in reversed(tuple(word)))


def _vertex_word_stepper(graph: SimpleGraph, word):
    return stepper(graph.adj, [graph.index_of(v) for v in word])


def apply_vertex_word(graph: SimpleGraph, word, current: frozenset) -> frozenset:
    mask = _vertex_word_stepper(graph, word)(graph._pack(current))
    return frozenset(graph._unpack(mask))


def orbit_partition(graph: SimpleGraph, word) -> list[list[int]]:
    """Orbits of a vertex word (application order) on the independent sets
    as bitsets, on NC(n)'s engine (:func:`nctoggles.core.word_orbits`), the
    vertex ceiling checked first; ``core.orbit_partition`` over
    :func:`_vertex_word_stepper` is the test oracle."""
    states = independent_set_masks(graph)
    return word_orbits(graph.adj, [graph.index_of(v) for v in word], states)


# --- 2-cliquish graphs -------------------------------------------------------


@dataclass(frozen=True)
class CliquishCertificate:
    """Witness that (G, U) satisfies the 2-cliquish conditions.

    For each u in U, ``clique_neighborhoods`` lists N(u) (checked pairwise
    adjacent); for each v outside U, ``u_neighbors`` lists its exactly-two
    neighbors in U.
    """

    u_set: frozenset
    clique_neighborhoods: dict
    u_neighbors: dict

    @property
    def A(self) -> int:
        return len(self.u_set)


def maximal_independent_sets(graph: SimpleGraph) -> list[frozenset]:
    """Inclusion-maximal independent sets, in canonical enumeration order."""
    out = []
    full = (1 << graph.n_vertices) - 1
    for mask in independent_set_masks(graph):
        rest = full & ~mask
        maximal = True
        while rest:
            low = rest & -rest
            if not graph.adj[low.bit_length() - 1] & mask:
                maximal = False
                break
            rest ^= low
        if maximal:
            out.append(frozenset(graph._unpack(mask)))
    return out


def check_cliquish_with(graph: SimpleGraph, u_set) -> CliquishCertificate | None:
    """Certify the 2-cliquish conditions for one pinned candidate U."""
    u_set = frozenset(u_set)
    u_mask = graph._pack(u_set)
    # U must be independent.  Maximality needs no check of its own: the
    # exactly-two-U-neighbours test below rejects any vertex with none.
    for u in u_set:
        if graph.adj[graph.index_of(u)] & u_mask:
            return None
    cliques = {}
    for u in u_set:
        nbrs = graph.neighbors(u)
        if not graph.is_clique(nbrs):
            return None
        cliques[u] = nbrs
    two = {}
    for v in graph.vertices:
        if v in u_set:
            continue
        in_u = graph._unpack(graph.adj[graph.index_of(v)] & u_mask)
        if len(in_u) != 2:
            return None
        two[v] = in_u
    return CliquishCertificate(u_set, cliques, two)


def is_2_cliquish(graph: SimpleGraph) -> CliquishCertificate | None:
    """Search maximal independent sets for one satisfying both conditions."""
    for u_set in maximal_independent_sets(graph):
        cert = check_cliquish_with(graph, u_set)
        if cert is not None:
            return cert
    return None


def verify_cardinality_homomesy(
    graph: SimpleGraph, cert: CliquishCertificate, word
) -> HomomesyReport:
    """Check that cardinality is |U|/2-mesic under a word containing all of U.

    Sub-reports cover the per-vertex statistics psi_u for u in U, each of
    which should be 1-mesic.  A missing toggle or repeated vertex is noted
    as an unmet precondition, and the averages are reported anyway.  The
    orbits are not listed: their sizes and popcount sums come from
    :func:`nctoggles.core.word_orbit_sums`, after the vertex ceiling.
    """
    word = tuple(word)
    states = independent_set_masks(graph)
    slots = [graph.index_of(v) for v in word]
    missing = sorted(str(u) for u in cert.u_set - set(word))
    full = (1 << graph.n_vertices) - 1
    stats = [("card", (1, 0, ((full, 1),)), Fraction(cert.A, 2))]
    for u in sorted(cert.u_set, key=str):
        psi = (1, 0, psi_terms(graph.adj, graph.index_of(u)))
        stats.append((f"psi:{u}", psi, Fraction(1)))
    return theorem_report(
        word, "a vertex", missing, "toggles for U members", vertex_word_text(word),
        f"ind(G) on {graph.n_vertices} vertices",
        *word_orbit_sums(graph.adj, slots, states, stat_masks(stats)), stats,
    )


# --- constructions -----------------------------------------------------------


def complete_minus_edge(k: int) -> tuple[SimpleGraph, frozenset]:
    """K_k minus the edge {1, 2}; the two loose endpoints form U."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    vertices = list(range(1, k + 1))
    edges = [
        (a, b) for a, b in combinations(vertices, 2) if (a, b) != (1, 2)
    ]
    return SimpleGraph(vertices, edges), frozenset({1, 2})


def pendant_double(graph: SimpleGraph) -> tuple[SimpleGraph, frozenset]:
    """Attach two new pendant vertices to every vertex; the new ones form U."""
    vertices = list(graph.vertices)
    edges = graph.edges()
    added = []
    for v in graph.vertices:
        for tag in ("p1", "p2"):
            w = (v, tag)
            vertices.append(w)
            edges.append((v, w))
            added.append(w)
    return SimpleGraph(vertices, edges), frozenset(added)


def cycle_with_edge_triangles(m: int) -> tuple[SimpleGraph, frozenset]:
    """An m-cycle with one apex vertex per edge, joined to both endpoints.

    The m apexes form U.
    """
    if m < 3:
        raise ValueError(f"need a cycle of length >= 3, got {m}")
    vertices = list(range(1, m + 1))
    edges = []
    added = []
    for i in range(1, m + 1):
        j = i % m + 1
        apex = ("e", i)
        vertices.append(apex)
        edges += [(i, j), (i, apex), (j, apex)]
        added.append(apex)
    return SimpleGraph(vertices, edges), frozenset(added)


def _removable_edges(graph: SimpleGraph, u_set: frozenset) -> list[tuple]:
    """Edges between two vertices outside U with no common neighbour in U:
    the paper's removal rule, which keeps (G, U) 2-cliquish."""
    u_mask = graph._pack(u_set)
    adj, index_of = graph.adj, graph.index_of
    return [
        (v, w)
        for v, w in graph.edges()
        if v not in u_set
        and w not in u_set
        and not adj[index_of(v)] & adj[index_of(w)] & u_mask
    ]


def _require_cliquish(graph: SimpleGraph, u_set) -> CliquishCertificate:
    cert = check_cliquish_with(graph, u_set)
    if cert is None:
        raise ValueError("the given (graph, U) pair is not 2-cliquish")
    return cert


def is_skeletal(graph: SimpleGraph, u_set) -> bool:
    """True when no edge can be removed under the removal rule."""
    _require_cliquish(graph, u_set)
    return not _removable_edges(graph, frozenset(u_set))


def skeletalize(graph: SimpleGraph, u_set) -> SimpleGraph:
    """Remove removable edges until none remain; idempotent.

    Removability between two non-U vertices depends only on their
    U-adjacencies, which removals never touch, so every edge removable now
    stays removable and no other becomes so: one pass removes them all.
    """
    _require_cliquish(graph, u_set)
    removable = set(_removable_edges(graph, frozenset(u_set)))
    kept = [e for e in graph.edges() if e not in removable]
    return SimpleGraph(graph.vertices, kept)


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class Multigraph:
    """An immutable loopless multigraph: labeled vertices, edge multiset."""

    vertices: tuple
    edges: tuple[tuple, ...]

    def __init__(self, vertices, edges=()):
        seen, index, edges = _index_labels(vertices, edges)
        normalized = [(u, v) if index[u] < index[v] else (v, u) for u, v in edges]
        normalized.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "vertices", seen)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, v) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)

    def to_text(self) -> str:
        return _graph_text(self.vertices, self.edges)

    @classmethod
    def from_text(cls, text: str) -> "Multigraph":
        vertices, edges = _parse_graph_lines(text)
        return cls(vertices, edges)

    def _key(self) -> tuple:
        edges = sorted(tuple(sorted(e, key=str)) for e in self.edges)
        return frozenset(self.vertices), tuple(edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multigraph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Multigraph({list(self.vertices)}, {list(self.edges)})"


def skeletal_to_multigraph(graph: SimpleGraph, u_set) -> Multigraph:
    """Collapse a skeletal pair (G, U): U keeps its labels, every other
    vertex becomes an edge joining its two U-neighbors."""
    u_set = frozenset(u_set)
    cert = _require_cliquish(graph, u_set)
    if _removable_edges(graph, u_set):
        raise ValueError("graph is not skeletal; skeletalize it first")
    vertices = [v for v in graph.vertices if v in u_set]
    edges = [cert.u_neighbors[v] for v in graph.vertices if v not in u_set]
    return Multigraph(vertices, edges)


def multigraph_to_skeletal(multigraph: Multigraph) -> tuple[SimpleGraph, frozenset]:
    """Expand a loopless multigraph into the skeletal pair it encodes.

    Edge k becomes a new vertex ``v{k+1}`` (canonical edge order) adjacent
    to its two endpoints; edge-vertices sharing an endpoint get joined.
    """
    names = [f"v{k + 1}" for k in range(multigraph.n_edges)]
    clash = set(names) & {str(v) for v in multigraph.vertices}
    if clash:
        raise ValueError(f"vertex labels collide with edge-vertex names {sorted(clash)}")
    vertices = list(multigraph.vertices) + names
    edges = []
    for k, (a, b) in enumerate(multigraph.edges):
        edges += [(names[k], a), (names[k], b)]
    for x, y in combinations(range(multigraph.n_edges), 2):
        if set(multigraph.edges[x]) & set(multigraph.edges[y]):
            edges.append((names[x], names[y]))
    return SimpleGraph(vertices, edges), frozenset(multigraph.vertices)


def enumerate_2cliquish_from_skeletal(
    graph: SimpleGraph, u_set
) -> list[SimpleGraph]:
    """All 2-cliquish graphs over a skeletal pair, up to isomorphism.

    Every subset of the addable pairs (non-adjacent, both outside U) yields
    a 2-cliquish graph with the same U; the list is deduplicated by
    isomorphism and includes the skeletal graph itself.
    """
    u_set = frozenset(u_set)
    _require_cliquish(graph, u_set)
    addable = _addable_pairs(graph, u_set)
    if len(addable) > 16:
        raise GraphSizeError(f"{len(addable)} addable pairs exceeds the ceiling of 16")
    edges = graph.edges()
    out: list[SimpleGraph] = []
    for bits in range(1 << len(addable)):
        added = [pair for k, pair in enumerate(addable) if bits >> k & 1]
        candidate = SimpleGraph(graph.vertices, edges + added)
        if not any(graph_isomorphic(candidate, kept) for kept in out):
            out.append(candidate)
    return out


def _addable_pairs(graph: SimpleGraph, u_set: frozenset) -> list[tuple]:
    """Non-adjacent pairs of vertices outside U, in canonical order."""
    others = [v for v in graph.vertices if v not in u_set]
    return [(v, w) for v, w in combinations(others, 2) if not graph.has_edge(v, w)]


def count_labeled_augmentations(graph: SimpleGraph, u_set) -> int:
    """Number of labeled 2-cliquish graphs over a skeletal pair (subsets of
    the addable pairs)."""
    return 1 << len(_addable_pairs(graph, frozenset(u_set)))


# --- brute-force isomorphism --------------------------------------------------

ISO_VERTEX_LIMIT = 10


def _adjacency_counts(vertices, edge_iter):
    index = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    counts = [[0] * n for _ in range(n)]
    for u, v in edge_iter:
        counts[index[u]][index[v]] += 1
        counts[index[v]][index[u]] += 1
    return counts


def _count_matrix_isomorphic(a, b) -> bool:
    n = len(a)
    if len(b) != n:
        return False
    deg_a = [sum(row) for row in a]
    deg_b = [sum(row) for row in b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    order = sorted(range(n), key=lambda i: -deg_a[i])
    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j] or deg_b[j] != deg_a[i]:
                continue
            if any(
                a[i][order[q]] != b[j][mapping[order[q]]] for q in range(pos)
            ):
                continue
            mapping[i] = j
            used[j] = True
            if extend(pos + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    return extend(0)


def _isomorphic(vertices1, edges1, vertices2, edges2) -> bool:
    if max(len(vertices1), len(vertices2)) > ISO_VERTEX_LIMIT:
        raise GraphSizeError(
            f"isomorphism search is limited to {ISO_VERTEX_LIMIT} vertices per graph"
        )
    if len(vertices1) != len(vertices2) or len(edges1) != len(edges2):
        return False
    return _count_matrix_isomorphic(
        _adjacency_counts(vertices1, edges1), _adjacency_counts(vertices2, edges2)
    )


def graph_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    """Brute-force isomorphism with degree-sequence pruning (small graphs)."""
    return _isomorphic(g1.vertices, g1.edges(), g2.vertices, g2.edges())


def multigraph_isomorphic(m1: Multigraph, m2: Multigraph) -> bool:
    """Multigraph isomorphism respecting edge multiplicities."""
    return _isomorphic(m1.vertices, m1.edges, m2.vertices, m2.edges)


def base_graph(n: int) -> SimpleGraph:
    """The base graph of [n]: vertex k is the arc in slot k, and edges join
    non-commuting toggles, so ``adj`` is ``conflict_masks(n)`` and the
    independent sets are exactly the arc diagrams of noncrossing partitions.

    Laid out on the upper-triangular grid (rows by left endpoint, columns by
    right endpoint), every row and every column is a clique, and the
    remaining edges are the crossing pairs i < k < j < l.
    """
    if n < 2:
        raise ValueError(f"base graph needs n >= 2, got {n}")
    arcs = [index_arc(n, k) for k in range(arc_slots(n))]
    return SimpleGraph(
        arcs, [(a, b) for a, b in combinations(arcs, 2) if arcs_conflict(a, b)]
    )

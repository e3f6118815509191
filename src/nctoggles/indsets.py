"""Toggling independent sets of graphs, 2-cliquish graphs, and the
skeletal/multigraph bijection.

Vertex toggles on the independent sets of a simple graph generalize arc
toggles: adding a vertex is legal when none of its neighbors is in the set.
Noncrossing partitions are the special case of the base graph, whose
independent sets are exactly the valid arc diagrams.

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

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .core import independent_sets, orbit_partition, stepper
from .dynamics import HomomesyReport
from .toggles import base_graph


class GraphSizeError(RuntimeError):
    """An operation exceeded its vertex-count ceiling."""


class SimpleGraph:
    """An immutable loop-free simple graph with ordered, hashable labels.

    The vertex order fixed at construction drives every canonical
    iteration; adjacency is kept as bitmasks over vertex indices.
    """

    __slots__ = ("vertices", "_index", "adj")

    def __init__(self, vertices, edges=()):
        seen = []
        for v in vertices:
            if v not in seen:
                seen.append(v)
        index = {v: k for k, v in enumerate(seen)}
        adj = [0] * len(seen)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed in a simple graph")
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        object.__setattr__(self, "vertices", tuple(seen))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("SimpleGraph is immutable")

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
        out = []
        for k, v in enumerate(self.vertices):
            rest = self.adj[k] >> (k + 1) << (k + 1)
            while rest:
                low = rest & -rest
                out.append((v, self.vertices[low.bit_length() - 1]))
                rest ^= low
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

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

    def with_edge(self, u, v) -> "SimpleGraph":
        return SimpleGraph(self.vertices, self.edges() + [(u, v)])

    def without_edge(self, u, v) -> "SimpleGraph":
        drop = {u, v}
        kept = [e for e in self.edges() if set(e) != drop]
        return SimpleGraph(self.vertices, kept)

    def is_clique(self, labels) -> bool:
        labels = tuple(labels)
        return all(self.has_edge(a, b) for a, b in combinations(labels, 2))

    def to_text(self) -> str:
        lines = ["vertices: " + " ".join(str(v) for v in self.vertices)]
        lines += [f"{u} {v}" for u, v in self.edges()]
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "SimpleGraph":
        """Parse edge-list text: one ``u v`` per line, ``#`` comments, and an
        optional ``vertices:`` header listing labels (covers isolated ones).
        All labels are read as strings."""
        vertices, edges = _parse_graph_lines(text)
        return cls(vertices, edges)

    def to_dot(self) -> str:
        lines = ["graph g {"]
        lines += [f'  "{v}";' for v in self.vertices]
        lines += [f'  "{u}" -- "{v}";' for u, v in self.edges()]
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and set(self.vertices) == set(other.vertices)
            and {frozenset(e) for e in self.edges()}
            == {frozenset(e) for e in other.edges()}
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.vertices),
                frozenset(frozenset(e) for e in self.edges()),
            )
        )

    def __repr__(self) -> str:
        return f"SimpleGraph({list(self.vertices)}, {self.edges()})"


def _parse_graph_lines(text: str):
    vertices: list = []
    edges: list = []

    def declare(v):
        if v not in vertices:
            vertices.append(v)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            for tok in line[len("vertices:"):].split():
                declare(tok)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"cannot parse graph line {raw!r}")
        declare(parts[0])
        declare(parts[1])
        edges.append((parts[0], parts[1]))
    return vertices, edges


DEFAULT_VERTEX_LIMIT = 24


def independent_set_masks(graph: SimpleGraph, limit: int = DEFAULT_VERTEX_LIMIT) -> tuple[int, ...]:
    """Bitsets of all independent sets, in lexicographic order on sorted
    index lists (the same canonical order the partition enumeration uses)."""
    if graph.n_vertices > limit:
        raise GraphSizeError(
            f"{graph.n_vertices} vertices exceeds the ceiling of {limit}"
        )
    return independent_sets(graph.adj)


def enumerate_independent_sets(
    graph: SimpleGraph, limit: int = DEFAULT_VERTEX_LIMIT
) -> list[frozenset]:
    """All independent sets of the graph, as frozensets, in canonical order."""
    return [frozenset(graph._unpack(m)) for m in independent_set_masks(graph, limit)]


def toggle_vertex(graph: SimpleGraph, current: frozenset, v) -> frozenset:
    """Toggle vertex v: remove it, add it if no neighbor is present, else no-op."""
    k = graph.index_of(v)
    mask = graph._pack(current)
    bit = 1 << k
    if mask & bit:
        return current - {v}
    if mask & graph.adj[k]:
        return current
    return current | {v}


def psi_v(graph: SimpleGraph, current: frozenset, v) -> int:
    """Twice the indicator of v plus the number of its neighbors present.

    When the neighborhood of v is a clique this lands in {0, 1, 2}.
    """
    k = graph.index_of(v)
    mask = graph._pack(current)
    return 2 * (mask >> k & 1) + (mask & graph.adj[k]).bit_count()


def cardinality(current: frozenset) -> int:
    return len(current)


def parse_vertex_word(graph: SimpleGraph, text: str) -> tuple:
    """Parse a vertex word written in composition order (rightmost acts first).

    Tokens are matched against the string form of the graph's labels; the
    returned tuple is in application order.
    """
    by_name = {str(v): v for v in graph.vertices}
    word = []
    for pos, tok in enumerate(text.split()):
        if tok not in by_name:
            raise ValueError(f"bad vertex token {tok!r} at position {pos}")
        word.append(by_name[tok])
    return tuple(reversed(word))


def vertex_word_text(word) -> str:
    """Composition-order text of an application-order vertex word."""
    return " ".join(str(v) for v in reversed(tuple(word)))


def _vertex_word_stepper(graph: SimpleGraph, word):
    return stepper(graph.adj, [graph.index_of(v) for v in word])


def apply_vertex_word(graph: SimpleGraph, word, current: frozenset) -> frozenset:
    mask = _vertex_word_stepper(graph, word)(graph._pack(current))
    return frozenset(graph._unpack(mask))


def independent_set_orbits(
    graph: SimpleGraph, word, limit: int = DEFAULT_VERTEX_LIMIT
) -> list[list[frozenset]]:
    """Orbits of a vertex word on the independent sets, canonically ordered."""
    states = independent_set_masks(graph, limit)
    step = _vertex_word_stepper(graph, word)
    return [
        [frozenset(graph._unpack(m)) for m in orbit]
        for orbit in orbit_partition(states, step)
    ]


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


def maximal_independent_sets(
    graph: SimpleGraph, limit: int = DEFAULT_VERTEX_LIMIT
) -> list[frozenset]:
    """Inclusion-maximal independent sets, in canonical enumeration order."""
    out = []
    full = (1 << graph.n_vertices) - 1
    for mask in independent_set_masks(graph, limit):
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
    # U must be independent and inclusion-maximal.
    for u in u_set:
        if graph.adj[graph.index_of(u)] & u_mask:
            return None
    for v in graph.vertices:
        if v not in u_set and not graph.adj[graph.index_of(v)] & u_mask:
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


def is_2_cliquish(
    graph: SimpleGraph, limit: int = DEFAULT_VERTEX_LIMIT
) -> CliquishCertificate | None:
    """Search maximal independent sets for one satisfying both conditions."""
    for u_set in maximal_independent_sets(graph, limit):
        cert = check_cliquish_with(graph, u_set)
        if cert is not None:
            return cert
    return None


def verify_cardinality_homomesy(
    graph: SimpleGraph,
    cert: CliquishCertificate,
    word,
    limit: int = DEFAULT_VERTEX_LIMIT,
) -> HomomesyReport:
    """Check that cardinality is |U|/2-mesic under a word containing all of U.

    Sub-reports cover the per-vertex statistics psi_u for u in U, each of
    which should be 1-mesic.  A missing toggle or repeated vertex is noted
    as an unmet precondition, and the averages are reported anyway.
    """
    word = tuple(word)
    problems = []
    if len(set(word)) != len(word):
        problems.append("word repeats a vertex (not partial Coxeter)")
    missing = sorted((str(u) for u in cert.u_set - set(word)))
    if missing:
        problems.append(f"word is missing toggles for U members {missing}")
    precondition = "; ".join(problems) or None

    states = independent_set_masks(graph, limit)
    step = _vertex_word_stepper(graph, word)
    orbits = orbit_partition(states, step)
    sizes = tuple(len(o) for o in orbits)
    space = f"ind(G) on {graph.n_vertices} vertices"
    word_label = vertex_word_text(word)

    def build(stat_label, value_of, expected):
        return HomomesyReport(
            word=word_label,
            statistic=stat_label,
            space=space,
            orbit_sizes=sizes,
            averages=tuple(
                Fraction(sum(value_of(m) for m in orbit), len(orbit))
                for orbit in orbits
            ),
            expected_mean=expected,
            precondition=precondition,
        )

    subs = []
    for u in sorted(cert.u_set, key=str):
        k = graph.index_of(u)
        nbrs = graph.adj[k]
        subs.append(
            build(
                f"psi:{u}",
                lambda m, k=k, nbrs=nbrs: 2 * (m >> k & 1) + (m & nbrs).bit_count(),
                Fraction(1),
            )
        )
    card = build("card", lambda m: m.bit_count(), Fraction(cert.A, 2))
    return replace(card, sub_reports=tuple(subs))


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


def disjoint_union(
    g1: SimpleGraph, g2: SimpleGraph, u1=frozenset(), u2=frozenset()
) -> tuple[SimpleGraph, frozenset]:
    """Disjoint union with vertices tagged ("L", v) / ("R", v); U = U1 + U2."""
    vertices = [("L", v) for v in g1.vertices] + [("R", v) for v in g2.vertices]
    edges = [(("L", a), ("L", b)) for a, b in g1.edges()]
    edges += [(("R", a), ("R", b)) for a, b in g2.edges()]
    u_set = frozenset({("L", u) for u in u1} | {("R", u) for u in u2})
    return SimpleGraph(vertices, edges), u_set


def add_edge(graph: SimpleGraph, u_set, edge) -> SimpleGraph:
    """Add an edge between non-adjacent vertices outside U (stays 2-cliquish)."""
    v, w = edge
    u_set = frozenset(u_set)
    if v in u_set or w in u_set:
        raise ValueError(f"edge endpoints must avoid U; got ({v!r}, {w!r})")
    if graph.has_edge(v, w):
        raise ValueError(f"edge ({v!r}, {w!r}) already present")
    return graph.with_edge(v, w)


def _common_u_neighbor(graph: SimpleGraph, u_mask: int, v, w) -> bool:
    both = graph.adj[graph.index_of(v)] & graph.adj[graph.index_of(w)]
    return bool(both & u_mask)


def remove_edge(graph: SimpleGraph, u_set, edge) -> SimpleGraph:
    """Remove an edge between non-U vertices with no common U-neighbor."""
    v, w = edge
    u_set = frozenset(u_set)
    if v in u_set or w in u_set:
        raise ValueError(f"edge endpoints must avoid U; got ({v!r}, {w!r})")
    if not graph.has_edge(v, w):
        raise ValueError(f"edge ({v!r}, {w!r}) not present")
    if _common_u_neighbor(graph, graph._pack(u_set), v, w):
        raise ValueError(
            f"endpoints ({v!r}, {w!r}) share a neighbor in U; removal would "
            f"break the two-neighbor condition"
        )
    return graph.without_edge(v, w)


def _removable_edges(graph: SimpleGraph, u_set: frozenset) -> list[tuple]:
    u_mask = graph._pack(u_set)
    return [
        (v, w)
        for v, w in graph.edges()
        if v not in u_set
        and w not in u_set
        and not _common_u_neighbor(graph, u_mask, v, w)
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
    U-adjacencies, which removals never touch, so any removal order reaches
    the same graph.
    """
    _require_cliquish(graph, u_set)
    u_set = frozenset(u_set)
    current = graph
    while True:
        removable = _removable_edges(current, u_set)
        if not removable:
            return current
        current = current.without_edge(*removable[0])


class Multigraph:
    """An immutable loopless multigraph: labeled vertices, edge multiset."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges=()):
        seen = []
        for v in vertices:
            if v not in seen:
                seen.append(v)
        index = {v: k for k, v in enumerate(seen)}
        normalized = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed")
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
            normalized.append((u, v) if index[u] < index[v] else (v, u))
        normalized.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "vertices", tuple(seen))
        object.__setattr__(self, "edges", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, v) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)

    def to_text(self) -> str:
        lines = ["vertices: " + " ".join(str(v) for v in self.vertices)]
        lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "Multigraph":
        vertices, edges = _parse_graph_lines(text)
        return cls(vertices, edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return False
        mine = sorted(tuple(sorted(e, key=str)) for e in self.edges)
        theirs = sorted(tuple(sorted(e, key=str)) for e in other.edges)
        return set(self.vertices) == set(other.vertices) and mine == theirs

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.vertices),
                tuple(sorted(tuple(sorted(e, key=str)) for e in self.edges)),
            )
        )

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
    graph: SimpleGraph, u_set, max_addable: int = 16
) -> list[SimpleGraph]:
    """All 2-cliquish graphs over a skeletal pair, up to isomorphism.

    Every subset of the addable pairs (non-adjacent, both outside U) yields
    a 2-cliquish graph with the same U; the list is deduplicated by
    isomorphism and includes the skeletal graph itself.
    """
    u_set = frozenset(u_set)
    _require_cliquish(graph, u_set)
    others = [v for v in graph.vertices if v not in u_set]
    addable = [
        (v, w) for v, w in combinations(others, 2) if not graph.has_edge(v, w)
    ]
    if len(addable) > max_addable:
        raise GraphSizeError(
            f"{len(addable)} addable pairs exceeds the ceiling of {max_addable}"
        )
    out: list[SimpleGraph] = []
    for bits in range(1 << len(addable)):
        candidate = graph
        for k, pair in enumerate(addable):
            if bits >> k & 1:
                candidate = candidate.with_edge(*pair)
        if not any(graph_isomorphic(candidate, kept) for kept in out):
            out.append(candidate)
    return out


def count_labeled_augmentations(graph: SimpleGraph, u_set) -> int:
    """Number of labeled 2-cliquish graphs over a skeletal pair (subsets of
    the addable pairs)."""
    u_set = frozenset(u_set)
    others = [v for v in graph.vertices if v not in u_set]
    addable = sum(
        1 for v, w in combinations(others, 2) if not graph.has_edge(v, w)
    )
    return 1 << addable


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


def graph_isomorphic(
    g1: SimpleGraph, g2: SimpleGraph, limit: int = ISO_VERTEX_LIMIT
) -> bool:
    """Brute-force isomorphism with degree-sequence pruning (small graphs)."""
    if g1.n_vertices > limit or g2.n_vertices > limit:
        raise GraphSizeError(
            f"isomorphism search is limited to {limit} vertices per graph"
        )
    if g1.n_vertices != g2.n_vertices or g1.edge_count() != g2.edge_count():
        return False
    return _count_matrix_isomorphic(
        _adjacency_counts(g1.vertices, g1.edges()),
        _adjacency_counts(g2.vertices, g2.edges()),
    )


def multigraph_isomorphic(
    m1: Multigraph, m2: Multigraph, limit: int = ISO_VERTEX_LIMIT
) -> bool:
    """Multigraph isomorphism respecting edge multiplicities."""
    if m1.n_vertices > limit or m2.n_vertices > limit:
        raise GraphSizeError(
            f"isomorphism search is limited to {limit} vertices per graph"
        )
    if m1.n_vertices != m2.n_vertices or m1.n_edges != m2.n_edges:
        return False
    return _count_matrix_isomorphic(
        _adjacency_counts(m1.vertices, m1.edges),
        _adjacency_counts(m2.vertices, m2.edges),
    )


def gamma_graph(n: int) -> SimpleGraph:
    """The base graph as a SimpleGraph: vertices are arcs of [n], edges join
    non-commuting toggles.  Its independent sets are exactly the arc
    diagrams of noncrossing partitions."""
    base = base_graph(n)
    return SimpleGraph(base.vertices, base.edges())

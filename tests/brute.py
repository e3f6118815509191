"""Naive reference implementations used as independent oracles in tests.

Everything here works on frozensets (of (i, j) arcs, or of graph vertex
labels) with straight-from-the-definition checks: no bitmasks, no shared
code with the package.  Kept deliberately slow and obvious; usable up to
about n = 6, or graphs of about 8 vertices.

The exceptions work on bitsets: :func:`independent_sets`, the package's
plain depth-first enumeration, kept as the oracle for the order and
content of the memoised one at sizes the subset filters cannot reach;
:func:`orbit_popcount_sums`, which sums popcounts over listed orbits; and
:func:`conjugation_keeps_chi_sums`, which matches listed orbits by their
members.  The edge-removal and toric-search helpers take the package's
graph and orientation objects, but read only their public fields and
accessors.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import combinations


def all_arcs(n):
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def clash(a, b):
    (i, j), (k, l) = a, b
    if i == k or j == l:
        return True
    return i < k < j < l or k < i < l < j


def is_valid(arcs):
    return all(not clash(a, b) for a, b in combinations(sorted(arcs), 2))


def all_partitions(n):
    """Every valid arc set of [n], as a set of frozensets (subset filter)."""
    arcs = all_arcs(n)
    out = set()
    for r in range(len(arcs) + 1):
        for combo in combinations(arcs, r):
            if is_valid(combo):
                out.add(frozenset(combo))
    return out


def kreweras_complement(n, arcs, primes_clockwise=True):
    """The coarsest sigma in NC(n) whose primed copy, interleaved with [n] on
    2n points, crosses no arc of ``arcs``; with primes clockwise of their
    labels the points are 1, 1', 2, 2', ..., else 1', 1, 2', 2, ...  Raises
    unless the coarsest one (the most arcs) is unique."""
    plain, prime = (lambda i: 2 * i - 1, lambda i: 2 * i)
    if not primes_clockwise:
        plain, prime = prime, plain
    mapped = {(plain(i), plain(j)) for i, j in arcs}
    valid = [
        sigma
        for sigma in _partitions_cached(n)
        if is_valid(mapped | {(prime(i), prime(j)) for i, j in sigma})
    ]
    most = max(len(sigma) for sigma in valid)
    coarsest = [sigma for sigma in valid if len(sigma) == most]
    if len(coarsest) != 1:
        raise AssertionError(f"{len(coarsest)} coarsest complements of {sorted(arcs)}")
    return coarsest[0]


@lru_cache(maxsize=None)
def _partitions_cached(n):
    return frozenset(all_partitions(n))


def toggle(arcs, arc):
    if arc in arcs:
        return arcs - {arc}
    candidate = arcs | {arc}
    return candidate if is_valid(candidate) else arcs


def apply_composition(arcs, word_composition_order):
    """Apply a word written like a composition: rightmost toggle first."""
    current = arcs
    for arc in reversed(list(word_composition_order)):
        current = toggle(current, arc)
    return current


def orbits(n, word_composition_order):
    """Orbit partition of the word's action, as a set of frozensets of states."""
    states = all_partitions(n)
    seen = set()
    out = set()
    for start in states:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = apply_composition(start, word_composition_order)
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = apply_composition(cur, word_composition_order)
        out.add(frozenset(orbit))
    return out


def independent_sets(adj, within=None):
    """Every independent set of the graph ``adj`` (vertex v's neighbours as
    a bitset) inside ``within``, as bitsets, in lexicographic order on sorted
    vertex lists: one recursive call per set."""
    out = []

    def rec(mask, avail):
        out.append(mask)
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            rec(mask | low, rest & ~adj[low.bit_length() - 1])

    rec(0, (1 << len(adj)) - 1 if within is None else within)
    return tuple(out)


def orbit_popcount_sums(orbits, masks):
    """Sizes of listed orbits of bitsets and, for each mask, the bits of the
    mask set in each orbit's states, counted state by state with ``bin``:
    the oracle of the package's per-orbit sums, which list no orbit."""
    sizes = [len(orbit) for orbit in orbits]
    sums = [[sum(bin(x & m).count("1") for x in orbit) for orbit in orbits] for m in masks]
    return sizes, sums


def conjugation_keeps_chi_sums(orbits, conj_orbits, flip, slots):
    """Whether ``flip`` carries each listed orbit of bitsets onto a listed
    orbit of ``conj_orbits`` (matched by its members) of the same size with
    the same count of every bit of ``slots``: the oracle of the package's
    conjugation check, which lists no orbit."""
    by_members = {frozenset(orbit): orbit for orbit in conj_orbits}

    def chi(orbit):
        return [sum(x >> k & 1 for x in orbit) for k in slots]

    for orbit in orbits:
        target = by_members.get(frozenset(map(flip, orbit)))
        if target is None or len(target) != len(orbit) or chi(target) != chi(orbit):
            return False
    return True


def graph_independent_sets(vertices, edges):
    """Independent sets of a graph (subset filter), as frozensets of labels,
    in lexicographic order on their position lists in ``vertices``."""
    edge_set = {frozenset(e) for e in edges}
    found = [
        combo
        for r in range(len(vertices) + 1)
        for combo in combinations(range(len(vertices)), r)
        if all(
            frozenset((vertices[a], vertices[b])) not in edge_set
            for a, b in combinations(combo, 2)
        )
    ]
    return [frozenset(vertices[i] for i in combo) for combo in sorted(found)]


def toggle_vertex(edges, current, v):
    if v in current:
        return current - {v}
    edge_set = {frozenset(e) for e in edges}
    if any(frozenset((v, w)) in edge_set for w in current):
        return current
    return current | {v}


def psi_v(edges, current, v):
    """Twice the indicator of v plus the number of its neighbours in the set."""
    edge_set = {frozenset(e) for e in edges}
    return 2 * (v in current) + sum(frozenset((v, w)) in edge_set for w in current)


def without_edge(graph, v, w):
    """``graph`` with the edge {v, w} left out (a graph of the same type)."""
    kept = [e for e in graph.edges() if set(e) != {v, w}]
    return type(graph)(graph.vertices, kept)


def remove_edge(graph, u_set, edge):
    """The paper's removal of one edge from a 2-cliquish pair (G, U): both
    endpoints lie outside U and share no neighbour in U.  The edge-by-edge
    oracle of ``indsets.skeletalize``."""
    v, w = edge
    if v in u_set or w in u_set:
        raise ValueError(f"edge endpoints must avoid U; got ({v!r}, {w!r})")
    if not graph.has_edge(v, w):
        raise ValueError(f"edge ({v!r}, {w!r}) not present")
    if set(graph.neighbors(v)) & set(graph.neighbors(w)) & set(u_set):
        raise ValueError(
            f"endpoints ({v!r}, {w!r}) share a neighbor in U; removal would "
            f"break the two-neighbor condition"
        )
    return without_edge(graph, v, w)


def graph_orbits(vertices, edges, word):
    """Orbits of a vertex word (application order) on the independent sets:
    each state not yet seen, in :func:`graph_independent_sets` order, starts
    an orbit listed in the direction of the word."""

    def step(state):
        for v in word:
            state = toggle_vertex(edges, state, v)
        return state

    seen = set()
    out = []
    for start in graph_independent_sets(vertices, edges):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = step(start)
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = step(cur)
        out.append(orbit)
    return out


def blocks(n, arcs):
    """Blocks via union-find over the arc relation."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in arcs:
        parent[find(i)] = find(j)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return {frozenset(g) for g in groups.values()}


@lru_cache(maxsize=None)
def catalan_rec(n):
    if n <= 1:
        return 1
    return sum(catalan_rec(k) * catalan_rec(n - 1 - k) for k in range(n))


def flip_source(orientation, arc):
    """An orientation (``support`` and directed ``edges``) with the source
    ``arc`` turned into a sink by reversing all its edges."""
    if any(b == arc for _, b in orientation.edges) or arc not in orientation.support:
        raise ValueError(f"{arc} is not a source")
    flipped = frozenset((b, a) if a == arc else (a, b) for a, b in orientation.edges)
    return replace(orientation, edges=flipped)


def torically_equivalent(o1, o2):
    """Whether o2 is reachable from o1 by source-to-sink flips: a forward
    breadth-first search that gives up past 200,000 orientations."""
    if o1.support != o2.support:
        return False
    seen = {o1.edges}
    frontier = [o1]
    while frontier:
        nxt = []
        for o in frontier:
            if o.edges == o2.edges:
                return True
            heads = {b for _, b in o.edges}
            for s in o.support - heads:
                flipped = flip_source(o, s)
                if flipped.edges not in seen:
                    seen.add(flipped.edges)
                    nxt.append(flipped)
                    if len(seen) > 200_000:
                        raise RuntimeError("toric reachability search too large")
        frontier = nxt
    return False

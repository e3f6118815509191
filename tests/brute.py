"""Naive reference implementations used as independent oracles in tests.

Everything here works on frozensets (of (i, j) arcs, or of graph vertex
labels) with straight-from-the-definition checks: no bitmasks, no shared
code with the package.  Kept deliberately slow and obvious; usable up to
about n = 6, or graphs of about 8 vertices.
"""

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

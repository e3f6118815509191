"""The toggle system of a graph: enumeration, word stepper and cycle chase.

A state is an independent set of a graph on vertices 0..m-1, stored as a
bitset.  The graph is given as ``adj``, a tuple whose entry v is the bitset
of the neighbours of v.  The toggle at v removes v if present, adds it if no
neighbour is present, and otherwise does nothing.  Noncrossing partitions
of [n] are the independent sets of the base graph (``adj`` is
``conflict_masks(n)``, vertices are arc slots); vertex toggles on any simple
graph run on the same functions.

:func:`independent_sets` is one depth-first search, but a subtree whose
candidate vertices number at most :data:`SMALL_SUBTREE` is listed once per
graph and copied under each prefix at C speed.  The memo lives in a store
keyed by the graph's table and bounded to the 16 graphs used last, so the
Kreweras oracle's thousands of ``within`` searches share one.  For the base
graph it holds 191 subtrees and 18,321 sets at n = 12 (0.8 MB), 293 and
34,113 at n = 13 (1.5 MB), 447 and 61,723 at n = 14 (2.8 MB), against
catalan(n) sets in the enumeration itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence, TypeVar

S = TypeVar("S")


#: A search subtree with at most this many candidate vertices is read from
#: the per-graph memo instead of recursed into.  On a 2-core VM a fresh
#: process enumerated NC(12) in 0.10-0.17 s with no memo and in 0.04-0.06 s
#: with any bound from 12 to 20 (NC(13): 0.49-0.59 s against 0.12-0.20 s),
#: while the NC(12) memo grew from 7,725 sets at 12 to 18,321 at 16 and
#: 25,629 at 20.  16 sits in the flat stretch with the memo under C_12 / 10
#: (20,801 sets), which 18 would cross.
SMALL_SUBTREE = 16


def independent_sets(adj: Sequence[int], within: int | None = None) -> tuple[int, ...]:
    """Every independent set as a bitset, in lexicographic order on sorted
    vertex lists; with ``within``, only the sets inside that vertex bitset.

    The order is a contract: each set comes after the set minus its highest
    vertex, and every set in between extends that one
    (:func:`nctoggles.toggles.toggle_pairs` walks the states that way).

    Subtrees with at most :data:`SMALL_SUBTREE` candidates come from the
    graph's memo (see the module docstring), which keeps the result
    independent of earlier calls; ``adj`` may be any sequence, and equal
    tables share one memo.
    """
    adj = tuple(adj)
    small = _small_subtrees(adj)
    out: list[int] = []

    # Depth-first over increasing vertices; emitting the current set before
    # descending yields lexicographic order.  A subtree whose candidates are
    # few is the memoised list of sets inside them, each joined to the prefix.
    def rec(mask: int, avail: int) -> None:
        out.append(mask)
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = rest & ~adj[low.bit_length() - 1]
            if nxt.bit_count() <= SMALL_SUBTREE:
                out.extend(map((mask | low).__or__, small(nxt)))
            else:
                rec(mask | low, nxt)

    rec(0, (1 << len(adj)) - 1 if within is None else within)
    # rec's closure holds rec, and so ``out``: without this the list would
    # wait for the cycle collector, which the memo's allocations can push
    # to a later generation, past the caller's own peak.
    del rec
    return tuple(out)


@lru_cache(maxsize=16)
def _small_subtrees(adj: tuple[int, ...]) -> Callable[[int], tuple[int, ...]]:
    """For the graph ``adj``, a memoised ``avail -> independent_sets(adj,
    avail)`` meant for ``avail`` of at most :data:`SMALL_SUBTREE` vertices.

    Keyed by the table's value, so an edited table is a new graph; the store
    keeps the 16 graphs used last.  The memo is the callable's ``memo``.
    """
    memo: dict[int, tuple[int, ...]] = {}

    def small(avail: int) -> tuple[int, ...]:
        got = memo.get(avail)
        if got is None:
            sets = [0]
            rest = avail
            while rest:
                low = rest & -rest
                rest ^= low
                sets.extend(map(low.__or__, small(rest & ~adj[low.bit_length() - 1])))
            got = memo[avail] = tuple(sets)
        return got

    small.memo = memo  # type: ignore[attr-defined]
    return small


def stepper(adj: Sequence[int], slots: Sequence[int]) -> Callable[[int], int]:
    """A bitset -> bitset callable that toggles the vertices ``slots`` in
    order (application order: ``slots[0]`` acts first)."""
    ops = tuple((1 << v, adj[v]) for v in slots)

    def step(mask: int) -> int:
        for bit, nbrs in ops:
            if mask & bit:
                mask ^= bit
            elif not mask & nbrs:
                mask |= bit
        return mask

    return step


def cycles(states: Sequence[S], image: Sequence[int]) -> list[list[S]]:
    """Cycles of the permutation i -> ``image[i]`` of indices into ``states``,
    listed as states.

    Indices are scanned in increasing order and each one not yet seen starts
    a cycle, listed in the direction of the map; so cycles come out ordered
    by their least index and each starts at it.
    """
    seen = bytearray(len(states))
    out: list[list[S]] = []
    for i, start in enumerate(states):
        if seen[i]:
            continue
        orbit = [start]
        seen[i] = 1
        j = image[i]
        while j != i:
            orbit.append(states[j])
            seen[j] = 1
            j = image[j]
        out.append(orbit)
    return out


def orbit_partition(
    states: Sequence[S], step: Callable[[S], S]
) -> list[list[S]]:
    """Split ``states`` into orbits of the bijection ``step``, ordered as
    :func:`cycles` orders them."""
    index = {s: i for i, s in enumerate(states)}
    return cycles(states, [index[step(s)] for s in states])

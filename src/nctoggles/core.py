"""The toggle system of a graph: enumeration, word stepper and cycle chase.

A state is an independent set of a graph on vertices 0..m-1, stored as a
bitset.  The graph is given as ``adj``, a tuple whose entry v is the bitset
of the neighbours of v.  The toggle at v removes v if present, adds it if no
neighbour is present, and otherwise does nothing.  Noncrossing partitions
of [n] are the independent sets of the base graph (``adj`` is
``conflict_masks(n)``, vertices are arc slots); vertex toggles on any simple
graph run on the same functions.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

S = TypeVar("S")


def independent_sets(adj: Sequence[int]) -> tuple[int, ...]:
    """Every independent set as a bitset, in lexicographic order on sorted
    vertex lists.

    The order is a contract: each set comes after the set minus its highest
    vertex, and every set in between extends that one
    (:func:`nctoggles.toggles.toggle_pairs` walks the states that way).
    """
    out: list[int] = []

    # Depth-first over increasing vertices; emitting the current set before
    # descending yields lexicographic order.
    def rec(mask: int, avail: int) -> None:
        out.append(mask)
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            rec(mask | low, rest & ~adj[low.bit_length() - 1])

    rec(0, (1 << len(adj)) - 1)
    return tuple(out)


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

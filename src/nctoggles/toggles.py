"""Arc toggles on noncrossing partitions and their commutation structure.

The toggle at arc (i, j) removes the arc if present, adds it if the result
is still a noncrossing partition, and otherwise does nothing.  Every toggle
is an involution.  Whether two toggles commute depends only on how their
arcs sit relative to each other, which splits unordered pairs of arcs into
six classes; the non-commuting classes are exactly the ones whose arcs can
never coexist in a partition.  The base graph records that relation: its
vertices are the arcs and its edges join non-commuting pairs.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .core import orbit_partition, stepper
from .ncpartition import (
    Arc,
    NCPartition,
    arc_index,
    arc_slots,
    arcs_conflict,
    catalan,
    conflict_masks,
    enumerate_masks,
    index_arc,
)


class PairType(Enum):
    DISJOINT = "disjoint"
    NESTING = "nesting"
    M_SHAPED = "m_shaped"
    LEFT_NESTING = "left_nesting"
    RIGHT_NESTING = "right_nesting"
    CROSSING = "crossing"


def classify_pair(a: Arc, b: Arc) -> PairType:
    """Classify an unordered pair of distinct arcs into one of six types.

    After sorting so a = (i, j) starts no later than b = (k, l):
    disjoint (i<j<k<l), nesting (i<k<l<j), m-shaped (i<j=k<l),
    left-nesting (i=k<j<l), right-nesting (i<k<j=l), crossing (i<k<j<l).
    """
    if a == b:
        raise ValueError(f"classify_pair needs distinct arcs, got {a} twice")
    (i, j), (k, l) = sorted((a, b))
    if i == k:
        return PairType.LEFT_NESTING
    if j == l:
        return PairType.RIGHT_NESTING
    if j < k:
        return PairType.DISJOINT
    if j == k:
        return PairType.M_SHAPED
    if l < j:
        return PairType.NESTING
    return PairType.CROSSING


COMMUTING_TYPES = frozenset(
    {PairType.DISJOINT, PairType.NESTING, PairType.M_SHAPED}
)


def commutes(a: Arc, b: Arc) -> bool:
    """True iff the toggles at a and b commute as permutations.

    Equal arcs commute trivially; distinct arcs commute exactly when they
    are disjoint, nesting, or m-shaped.
    """
    return a == b or classify_pair(a, b) in COMMUTING_TYPES


def toggle(partition: NCPartition, arc: Arc) -> NCPartition:
    """Apply the toggle at ``arc``: remove it, add it if legal, else no-op."""
    n = partition.n
    if not (1 <= arc[0] < arc[1] <= n):
        raise ValueError(f"arc {arc} out of range for n={n}")
    k = arc_index(n, arc)
    mask = partition.mask
    bit = 1 << k
    if mask & bit:
        return NCPartition._raw(n, mask ^ bit)
    if mask & conflict_masks(n)[k]:
        return partition
    return NCPartition._raw(n, mask | bit)


def toggle_pairs(
    n: int, slots: Iterable[int], limit: int | None = None
) -> dict[int, array]:
    """The toggles at arc slots ``slots`` as swaps of NC(n) state indices.

    Indices point into ``enumerate_masks(n, limit)``.  For each slot k, a
    flat ``array('i')`` of index pairs i, j: state i contains the arc and
    state j is state i without it.  The toggle swaps each pair and fixes
    every other state, so a word acts on indices by swapping along these
    lists.  One pass over the states looks only at the requested slots; an
    arc of length m gives C(n-m) * C(m-1) pairs (see :func:`counts`).
    """
    states = enumerate_masks(n, limit)
    wanted = set(slots)
    tables = [array("i") if k in wanted else None for k in range(arc_slots(n))]
    bits = [1 << k for k in range(arc_slots(n))]
    index = dict(zip(states, range(len(states))))
    # In lexicographic order a state's parent (the state minus its top arc)
    # comes earlier, and every state in between extends the parent, so
    # path[:d] holds the arcs of the current state when it has d arcs.
    path = [0] * n
    for i, mask in enumerate(states):
        d = mask.bit_count()
        if d:
            path[d - 1] = mask.bit_length() - 1
        for k in path[:d]:
            table = tables[k]
            if table is not None:
                table.append(i)
                table.append(index[mask ^ bits[k]])
    return {k: table for k, table in enumerate(tables) if table is not None}


def pair_order(a: Arc, b: Arc, n: int) -> int:
    """Order of the composed permutation toggle(a) . toggle(b) on NC(n).

    The order is 1 when a = b, 2 for distinct commuting toggles, and 6 for
    non-commuting ones.  ``pair_order_observed`` computes the same number
    from the actual permutation and serves as the oracle.
    """
    for arc in (a, b):
        if not (1 <= arc[0] < arc[1] <= n):
            raise ValueError(f"arc {arc} out of range for n={n}")
    if a == b:
        return 1
    return 2 if commutes(a, b) else 6


def permutation_order(n: int, step, limit: int | None = None) -> int:
    """Order of a bijection of NC(n) given as a mask-to-mask callable."""
    return math.lcm(*map(len, orbit_partition(enumerate_masks(n, limit), step)))


def pair_order_observed(a: Arc, b: Arc, n: int, limit: int | None = None) -> int:
    """Oracle for :func:`pair_order` via cycle decomposition."""
    step = stepper(conflict_masks(n), [arc_index(n, b), arc_index(n, a)])
    return permutation_order(n, step, limit)


def noncommuting_count(n: int, arc: Arc) -> int:
    """Number of toggles on [n] that fail to commute with the toggle at ``arc``.

    For an arc of width m = j - i this is m(n+1-m) - 2.
    """
    i, j = arc
    if not (1 <= i < j <= n):
        raise ValueError(f"arc {arc} out of range for n={n}")
    m = j - i
    return m * (n + 1 - m) - 2


@dataclass(frozen=True)
class ToggleCounts:
    """Partition counts attached to one arc: containing / togglable / fixed."""

    containing: int
    togglable: int
    fixed: int


def counts(n: int, i: int, k: int) -> ToggleCounts:
    """Closed-form counts for the arc (i, i+k) over NC(n).

    ``containing`` counts partitions containing the arc, which equals
    C_{n-k} * C_{k-1}; the toggle gives a bijection onto the partitions
    where the arc can be added, so ``togglable`` is the same number; the
    rest are fixed.  The value is symmetric under k <-> n+1-k.
    """
    if not (1 <= i < i + k <= n):
        raise ValueError(f"arc ({i},{i + k}) out of range for n={n}")
    containing = catalan(n - k) * catalan(k - 1)
    return ToggleCounts(containing, containing, catalan(n) - 2 * containing)


def counts_observed(n: int, i: int, k: int, limit: int | None = None) -> ToggleCounts:
    """Brute-force oracle for :func:`counts` by scanning all of NC(n)."""
    slot = arc_index(n, (i, i + k))
    bit = 1 << slot
    conflict = conflict_masks(n)[slot]
    containing = togglable = fixed = 0
    for mask in enumerate_masks(n, limit):
        if mask & bit:
            containing += 1
        elif mask & conflict:
            fixed += 1
        else:
            togglable += 1
    return ToggleCounts(containing, togglable, fixed)


class BaseGraph:
    """The graph on all arcs of [n] whose edges join non-commuting toggles.

    Laid out on the upper-triangular grid (rows by left endpoint, columns
    by right endpoint), every row and every column is a clique, and the
    remaining edges are the crossing pairs i < k < j < l.
    """

    __slots__ = ("n", "vertices", "adj_masks")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"base graph needs n >= 2, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "vertices", tuple(index_arc(n, k) for k in range(arc_slots(n)))
        )
        object.__setattr__(self, "adj_masks", conflict_masks(n))

    def __setattr__(self, name, value):
        raise AttributeError("BaseGraph is immutable")

    def degree(self, arc: Arc) -> int:
        return self.adj_masks[arc_index(self.n, arc)].bit_count()

    def neighbors(self, arc: Arc) -> tuple[Arc, ...]:
        rest = self.adj_masks[arc_index(self.n, arc)]
        out = []
        while rest:
            low = rest & -rest
            out.append(index_arc(self.n, low.bit_length() - 1))
            rest ^= low
        return tuple(out)

    def has_edge(self, a: Arc, b: Arc) -> bool:
        return a != b and arcs_conflict(a, b)

    def edges(self) -> list[tuple[Arc, Arc]]:
        out = []
        for k, arc in enumerate(self.vertices):
            rest = self.adj_masks[k] >> (k + 1) << (k + 1)
            while rest:
                low = rest & -rest
                out.append((arc, index_arc(self.n, low.bit_length() - 1)))
                rest ^= low
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj_masks) // 2

    def to_edge_list_text(self) -> str:
        lines = [f"{i}-{j} {k}-{l}" for (i, j), (k, l) in self.edges()]
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = ["graph base {"]
        for i, j in self.vertices:
            lines.append(f'  "{i}-{j}";')
        for (i, j), (k, l) in self.edges():
            lines.append(f'  "{i}-{j}" -- "{k}-{l}";')
        lines.append("}")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def base_graph(n: int) -> BaseGraph:
    return BaseGraph(n)

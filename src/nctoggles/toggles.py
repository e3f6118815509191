"""Arc toggles on noncrossing partitions and their commutation structure.

The toggle at arc (i, j) removes the arc if present, adds it if the result
is still a noncrossing partition, and otherwise does nothing.  Every toggle
is an involution.  Whether two toggles commute depends only on how their
arcs sit relative to each other, which splits unordered pairs of arcs into
six classes; the non-commuting classes are exactly the ones whose arcs can
never coexist in a partition.  The base graph records that relation: its
vertices are the arcs and its edges join non-commuting pairs
(:func:`nctoggles.indsets.base_graph`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import ncpartition
from .core import orbit_partition, stepper
from .ncpartition import (
    Arc,
    NCPartition,
    arc_index,
    arc_slots,
    arc_tuple,
    catalan,
    check_arc,
    enumerate_masks,
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
    check_arc(n, arc)
    return NCPartition._raw(
        n, stepper(ncpartition.conflict_masks(n), [arc_index(n, arc)])(partition.mask)
    )


def pair_order(a: Arc, b: Arc, n: int) -> int:
    """Order of the composed permutation toggle(a) . toggle(b) on NC(n).

    The order is 1 when a = b, 2 for distinct commuting toggles, and 6 for
    non-commuting ones.  ``pair_order_observed`` computes the same number
    from the actual permutation and serves as the oracle.
    """
    check_arc(n, a)
    check_arc(n, b)
    a, b = arc_tuple(a), arc_tuple(b)
    if a == b:
        return 1
    return 2 if commutes(a, b) else 6


def permutation_order(n: int, step) -> int:
    """Order of a bijection of NC(n) given as a mask-to-mask callable."""
    return math.lcm(*map(len, orbit_partition(enumerate_masks(n), step)))


def pair_order_observed(a: Arc, b: Arc, n: int) -> int:
    """Oracle for :func:`pair_order` via cycle decomposition."""
    step = stepper(ncpartition.conflict_masks(n), [arc_index(n, b), arc_index(n, a)])
    return permutation_order(n, step)


def noncommuting_count(n: int, arc: Arc) -> int:
    """Number of toggles on [n] that fail to commute with the toggle at ``arc``.

    For an arc of width m = j - i this is m(n+1-m) - 2.
    """
    check_arc(n, arc)
    m = arc[1] - arc[0]
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


def observed_counts(n: int) -> list[ToggleCounts]:
    """The counts of every arc over NC(n) as observed, by arc slot: the
    oracle of :func:`counts`, from one pass over ``enumerate_masks(n)``.

    The pass sets, in a bit column per slot, the index of each state that
    holds the slot's arc.  An arc's ``containing`` is the popcount of its
    column; OR-ed with the columns of its conflict slots, the column marks
    the states that hold the arc or cannot take it, and the others are
    ``togglable``.
    """
    states = enumerate_masks(n)
    columns = [0] * arc_slots(n)
    for index, mask in enumerate(states):
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1] |= 1 << index
            mask ^= low
    observed = []
    for column, conflict in zip(columns, ncpartition.conflict_masks(n)):
        blocked = column
        for slot, other in enumerate(columns):
            if conflict >> slot & 1:
                blocked |= other
        containing, held_or_fixed = column.bit_count(), blocked.bit_count()
        observed.append(
            ToggleCounts(containing, len(states) - held_or_fixed, held_or_fixed - containing)
        )
    return observed

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
    return NCPartition._raw(
        n, stepper(conflict_masks(n), [arc_index(n, arc)])(partition.mask)
    )


#: NC(n) with at least this many states (n >= 11) is run on numpy when numpy
#: imports; smaller n, or a process without numpy, runs on lists and arrays.
#: At n = 10 (16,796 states) a cold run does not pay back importing numpy.
VECTOR_MIN_STATES = 2**15

#: The vectorized table build holds a state in two uint64 lanes.
_LANE_BITS = 64


def vectorized(n: int) -> bool:
    """True when NC(n) runs on the numpy engine: it has at least
    :data:`VECTOR_MIN_STATES` states, fits two 64-bit lanes, and numpy
    imports.

    numpy is imported here, on first use, never at package import: a run
    that stays below the threshold never loads it.
    """
    if catalan(n) < VECTOR_MIN_STATES or arc_slots(n) > 2 * _LANE_BITS:
        return False
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


@lru_cache(maxsize=8)
def _pair_tables(n: int) -> dict:
    """The swap tables of NC(n) built so far, by slot; grown by
    :func:`toggle_pairs`, one store per n like ``_enum_masks_cached``.

    The tables hold indices into the enumeration, whose order is a contract
    (:func:`nctoggles.core.independent_sets`), so they stay valid after
    ``_enum_masks_cached.cache_clear()``.  They cost 8 B per pair (two
    int32 entries, one in each half of the table): about 9.2 MB at n = 12
    and 35.7 MB at n = 13 once every slot is built.  They stay int32: the
    numpy swap pass casts a table to intp for the one toggle it applies and
    drops the copy, since intp tables would double the store.  The
    numpy build of every slot takes about 0.3 s at n = 12, against 0.9 s for
    the pure-Python one, and it holds no per-state dict: a cold
    ``orbits N --sizes-only`` of the row word peaks at 59 MB RSS at n = 12,
    against 57 MB on the pure-Python engine though numpy itself takes
    11 MB, and at 138 MB at n = 13 against 172 MB (2-core VM, Python 3.11,
    numpy 2.4).
    """
    return {}


def toggle_pairs(n: int, slots: Iterable[int], states: tuple[int, ...]) -> dict:
    """The toggles at arc slots ``slots`` as swaps of NC(n) state indices.

    ``states`` is the enumeration of NC(n), which the caller got from
    :func:`enumerate_masks` and its ceiling check; indices point into it.
    For each slot k, a table of 2m indices in two halves: ``table[:m]``
    holds the states that contain the arc, in increasing order, and
    ``table[m:]`` their partners, ``table[m + t]`` being state
    ``table[t]`` without the arc.  The table is an ``array('i')``, or an
    int32 ndarray with the same entries on the numpy engine
    (:func:`vectorized`), whose swap pass reads each half as one contiguous
    index array.  The toggle swaps each pair and fixes every other state, so
    a word acts on indices by swapping along these tables.  An arc of length
    m gives C(n-m) * C(m-1) pairs (see :func:`counts`).  Tables are built
    once per process (:func:`_pair_tables`) and shared by every caller, who
    must not mutate them; a call builds only the requested slots not built
    yet.
    """
    store = _pair_tables(n)
    wanted = set(slots)
    missing = wanted - store.keys()
    if missing:
        build = _pairs_numpy if vectorized(n) else _pairs_python
        store.update(build(n, missing, states))
    return {k: store[k] for k in wanted}


def _pairs_python(n: int, slots: set[int], states: tuple[int, ...]) -> dict[int, array]:
    """:func:`toggle_pairs`' tables for ``slots``, in one pass over the states.

    The pass appends each pair to its slot's table, state then partner.
    Each table is then replaced by its halves, one slot at a time, so the
    build needs room beyond the tables for one slot's copies only.
    """
    tables = [array("i") if k in slots else None for k in range(arc_slots(n))]
    bits = [1 << k for k in range(arc_slots(n))]
    index = dict(zip(states, range(len(states))))
    # In lexicographic order a state's parent (the state minus its top
    # arc) comes earlier, and every state in between extends the parent,
    # so path[:d] holds the arcs of the current state when it has d arcs.
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
    for k in slots:
        table = tables[k]
        tables[k] = table[::2] + table[1::2]
    return {k: tables[k] for k in slots}


def _pairs_numpy(n: int, slots: set[int], states: tuple[int, ...]) -> dict:
    """:func:`toggle_pairs`' tables for ``slots`` as int32 ndarrays, with no
    per-state dict: each partner is found by binary search on a sorted key.

    A state is two uint64 lanes, ``lo`` (slots 0..63) and ``hi``, keyed by
    ``lo ^ (hi * 0x9E3779B97F4A7C15)`` (mod 2**64).  Equal keys raise, and
    every partner found is compared lane by lane with the state sought, so
    the tables are exact or the build fails.  The tables are views of one
    buffer, sized by :func:`counts`, so that they do not scatter through
    the heap among the build's temporaries; each is written as its two
    halves, ``i`` then ``j``.
    """
    import numpy as np

    low = (1 << _LANE_BITS) - 1
    lanes = (
        np.fromiter((m & low for m in states), "<u8", len(states)),
        np.fromiter((m >> _LANE_BITS for m in states), "<u8", len(states)),
    )
    # Byte b of a little-endian lane holds its bits 8b .. 8b + 7.
    octets = [lane.view(np.uint8).reshape(-1, 8) for lane in lanes]
    spread = np.uint64(0x9E3779B97F4A7C15)
    keys = lanes[1] * spread
    keys ^= lanes[0]
    order = np.argsort(keys).astype(np.int32)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise RuntimeError(f"two NC({n}) states share a 64-bit key")
    slots = sorted(slots)
    sizes = [counts(n, i, j - i).containing for i, j in (index_arc(n, k) for k in slots)]
    flat, start = np.empty(2 * sum(sizes), np.int32), 0
    out = {}
    for k, size in zip(slots, sizes):
        half, bit = divmod(k, _LANE_BITS)
        i = np.flatnonzero(octets[half][:, bit // 8] & (1 << bit % 8))
        if len(i) != size:
            raise RuntimeError(f"{len(i)} NC({n}) states contain arc slot {k}, not {size}")
        partner = [lane[i] for lane in lanes]
        partner[half] ^= np.uint64(1 << bit)
        # The search runs about twice as fast on sorted queries.
        queries = partner[1] * spread
        queries ^= partner[0]
        by_key = np.argsort(queries)
        pos = np.searchsorted(keys, queries[by_key])
        j = np.empty_like(order, shape=size)
        j[by_key] = order[np.minimum(pos, len(states) - 1)]
        if not all((lane[j] == p).all() for lane, p in zip(lanes, partner)):
            raise RuntimeError(f"an NC({n}) state without arc slot {k} is missing")
        table = out[k] = flat[start:start + 2 * size]
        table[:size], table[size:] = i, j
        start += 2 * size
    return out


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


def permutation_order(n: int, step) -> int:
    """Order of a bijection of NC(n) given as a mask-to-mask callable."""
    return math.lcm(*map(len, orbit_partition(enumerate_masks(n), step)))


def pair_order_observed(a: Arc, b: Arc, n: int) -> int:
    """Oracle for :func:`pair_order` via cycle decomposition."""
    step = stepper(conflict_masks(n), [arc_index(n, b), arc_index(n, a)])
    return permutation_order(n, step)


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


def counts_observed(n: int, i: int, k: int) -> ToggleCounts:
    """Brute-force oracle for :func:`counts` by scanning all of NC(n)."""
    slot = arc_index(n, (i, i + k))
    bit = 1 << slot
    conflict = conflict_masks(n)[slot]
    containing = togglable = fixed = 0
    for mask in enumerate_masks(n):
        if mask & bit:
            containing += 1
        elif mask & conflict:
            fixed += 1
        else:
            togglable += 1
    return ToggleCounts(containing, togglable, fixed)

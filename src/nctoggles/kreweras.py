"""Kreweras complementation and the Simion-Ullman involution.

Drawing a noncrossing partition on a circle (labels 1..n clockwise) and
inserting a primed point i' immediately clockwise of each i, the Kreweras
complement k(pi) is the coarsest noncrossing partition of the primed points
whose union with pi is still noncrossing.  It satisfies
|pi| + |k(pi)| = n + 1, and applying it twice rotates the picture one
position counterclockwise, so k has order dividing 2n.

Two implementations are kept deliberately: a brute-force geometric oracle
that enumerates every valid candidate complement on the interleaved 2n
points, and a fast O(n^2) toggle-word route.  A candidate sigma is valid
when none of its arcs crosses an arc of pi there; the valid candidates are
the sigma <= k(pi), C(3n, n)/(2n + 1) of them over all of NC(n) (43,263 at
n = 8, against C_8^2 = 2,044,900 pairs for a scan of every candidate).
The oracle also pins down "coarsest" as the unique candidate with the
fewest blocks and fails hard if that minimizer is ever not unique.  Its
candidates and their conflicts come from the pair rule of
``ncpartition.validate``, so it shares no table with the fast route, whose
toggles run on ``conflict_masks``.

The relabeling i -> i+1 (mod n) of k(pi) — written k(pi)' — coincides with
the inverse complement and with the row toggle word applied to pi.  The
Simion-Ullman involution is eta . k, where eta reverses labels while fixing
n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable

from .core import independent_sets
from .ncpartition import (
    InvalidPartitionError,
    NCPartition,
    _check_enum_limit,
    _pair_violation,
    arc_index,
    arc_slots,
    index_arc,
    validate,
)
from .words import kreweras_word


def relabel(partition: NCPartition, mapping: Callable[[int], int]) -> NCPartition:
    """Apply a bijective relabeling of [n] to a partition, block by block.

    Arcs are recomputed from the relabeled blocks, so relabelings that wrap
    around the circle (rotations, reflections) come out right.  Raises if
    the relabeled partition is no longer noncrossing.
    """
    n = partition.n
    image = [0] + [mapping(v) for v in range(1, n + 1)]
    if sorted(image) != list(range(n + 1)):
        raise ValueError("mapping is not a bijection of 1..n")
    # Name each block by its least old label: arcs come in order of their
    # left ends, so an arc's left end is already named.
    head = list(range(n + 1))
    for i, j in partition.arcs():
        head[j] = head[i]
    block = [0] * (n + 1)  # the block of each new label
    ahead = [0] * (n + 1)  # how many new labels of each block are still ahead
    for v in range(1, n + 1):
        block[image[v]] = head[v]
        ahead[head[v]] += 1
    # Join each new label to the last one seen in its block.  Blocks cross
    # exactly when a block continues while a block opened after it is
    # still open.
    last = [0] * (n + 1)
    open_blocks: list[int] = []
    crossed = False
    mask = 0
    for w in range(1, n + 1):
        b = block[w]
        if last[b]:
            crossed = crossed or open_blocks[-1] != b
            mask |= 1 << arc_index(n, (last[b], w))
        else:
            open_blocks.append(b)
        last[b] = w
        ahead[b] -= 1
        if not ahead[b]:
            open_blocks.pop()
    if crossed:
        arcs = NCPartition._raw(n, mask).arcs()
        raise InvalidPartitionError(validate(n, arcs))
    return NCPartition._raw(n, mask)


def rotate(partition: NCPartition, steps: int = 1) -> NCPartition:
    """Rotate the circular picture counterclockwise by ``steps`` positions.

    Relabels i -> i - steps (mod n, 1-based); rotating by n is the identity.
    """
    n = partition.n
    if n == 0:
        return partition
    return relabel(partition, lambda i: (i - 1 - steps) % n + 1)


def eta(partition: NCPartition) -> NCPartition:
    """The label reversal i -> n - i (fixing n); an involution."""
    n = partition.n
    if n <= 1:
        return partition
    return relabel(partition, lambda i: n if i == n else n - i)


# --- geometric oracle -------------------------------------------------------
#
# Interleave [n] and its primed copy into [2n].  With primes clockwise of
# their labels the order is 1, 1', 2, 2', ..., so i -> 2i-1 and i' -> 2i;
# with primes counterclockwise it is 1', 1, 2', 2, ..., so i -> 2i and
# i' -> 2i-1.  A candidate complement is valid iff the union of the two
# mapped arc diagrams is noncrossing on [2n], and since both sides are
# internally valid only cross-conflicts need checking.


@lru_cache(maxsize=16)
def _violation_masks(m: int) -> tuple[int, ...]:
    # For every arc slot of [m], the slots whose arcs ``validate`` rejects
    # beside it; the fast route's conflict table is deliberately not used.
    arcs = [index_arc(m, k) for k in range(arc_slots(m))]
    masks = [0] * len(arcs)
    for x, y in combinations(range(len(arcs)), 2):
        if _pair_violation(arcs[x], arcs[y]) is not None:
            masks[x] |= 1 << y
            masks[y] |= 1 << x
    return tuple(masks)


@lru_cache(maxsize=16)
def _blocked_slots(n: int, primes_clockwise: bool) -> tuple[int, ...]:
    # For every arc slot of pi, the arc slots of a candidate sigma whose
    # mapped arc ``validate`` rejects beside pi's mapped arc on [2n].
    if primes_clockwise:
        plain_pos, prime_pos = (lambda i: 2 * i - 1), (lambda i: 2 * i)
    else:
        plain_pos, prime_pos = (lambda i: 2 * i), (lambda i: 2 * i - 1)
    table2n = _violation_masks(2 * n)
    arcs = [index_arc(n, k) for k in range(arc_slots(n))]
    prime_slots = [arc_index(2 * n, (prime_pos(i), prime_pos(j))) for i, j in arcs]
    blocked = []
    for i, j in arcs:
        hits = table2n[arc_index(2 * n, (plain_pos(i), plain_pos(j)))]
        blocked.append(
            sum(1 << k for k, slot in enumerate(prime_slots) if hits >> slot & 1)
        )
    return tuple(blocked)


def _coarsest_complement(
    partition: NCPartition, primes_clockwise: bool, limit: int | None
) -> NCPartition:
    n = partition.n
    if n <= 1:
        return partition
    # The search holds up to C_n candidates (all of them when pi has no arc).
    _check_enum_limit(n, limit)
    blocked = _blocked_slots(n, primes_clockwise)
    allowed = (1 << arc_slots(n)) - 1
    rest = partition.mask
    while rest:
        low = rest & -rest
        allowed &= ~blocked[low.bit_length() - 1]
        rest ^= low
    best_mask = -1
    best_arcs = -1
    ties = 0
    for sigma in independent_sets(_violation_masks(n), within=allowed):
        arcs = sigma.bit_count()
        if arcs > best_arcs:
            best_arcs, best_mask, ties = arcs, sigma, 1
        elif arcs == best_arcs:
            ties += 1
    if best_mask < 0:  # pragma: no cover - the empty complement always works
        raise RuntimeError("no valid complement found")
    if ties != 1:
        raise RuntimeError(
            f"coarsest complement is not unique for {partition!r} ({ties} ties)"
        )
    return NCPartition._raw(n, best_mask)


def kreweras_oracle(partition: NCPartition, limit: int | None = None) -> NCPartition:
    """Brute-force Kreweras complement (primes clockwise of their labels).

    ``limit`` is the enumeration ceiling on n, as in ``enumerate_masks``."""
    return _coarsest_complement(partition, primes_clockwise=True, limit=limit)


def kreweras_prime_oracle(
    partition: NCPartition, limit: int | None = None
) -> NCPartition:
    """Brute-force relabeled complement, built with primes counterclockwise.

    ``limit`` is the enumeration ceiling on n, as in ``enumerate_masks``."""
    return _coarsest_complement(partition, primes_clockwise=False, limit=limit)


# --- fast route -------------------------------------------------------------


@lru_cache(maxsize=8)
def _kreweras_stepper(n: int) -> Callable[[int], int]:
    return kreweras_word(n).stepper()


def kreweras(partition: NCPartition) -> NCPartition:
    """Kreweras complement via its toggle word; |pi| + |k(pi)| = n + 1."""
    n = partition.n
    if n <= 1:
        return partition
    return NCPartition._raw(n, _kreweras_stepper(n)(partition.mask))


def kreweras_prime(partition: NCPartition) -> NCPartition:
    """The complement relabeled by i -> i+1 (mod n); equals the inverse complement."""
    n = partition.n
    if n <= 1:
        return partition
    return relabel(kreweras(partition), lambda i: i % n + 1)


def kreweras_power(partition: NCPartition, power: int) -> NCPartition:
    """Iterate the complement ``power`` times (negative powers invert)."""
    out, step = partition, kreweras if power >= 0 else kreweras_prime
    for _ in range(abs(power)):
        out = step(out)
    return out


def simion_ullman(partition: NCPartition) -> NCPartition:
    """The Simion-Ullman involution eta . k; |pi| + |lambda(pi)| = n + 1."""
    return eta(kreweras(partition))


def circular_text(partition: NCPartition) -> str:
    """Render the circular view: each label with its block id, clockwise."""
    block_of = {}
    for idx, block in enumerate(partition.blocks()):
        for v in block:
            block_of[v] = idx
    cells = " ".join(f"{v}[B{block_of[v]}]" for v in range(1, partition.n + 1))
    return f"clockwise: {cells}" if cells else "clockwise: (empty)"


def circular_dot(partition: NCPartition) -> str:
    """DOT rendering of the circular view (labels on a circle, arcs as edges)."""
    lines = ["graph partition {", "  layout=circo;"]
    lines += [f"  {v};" for v in range(1, partition.n + 1)]
    lines += [f"  {i} -- {j};" for i, j in partition.arcs()]
    lines.append("}")
    return "\n".join(lines)

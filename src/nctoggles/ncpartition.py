"""Noncrossing partitions of {1, ..., n} in arc and block form.

A partition of [n] is noncrossing when no two blocks interleave: there is
no i < j < k < l with i, k in one block and j, l in another.  We mostly
work with the *arc diagram* of a partition: the set of pairs (i, j) such
that i and j are successive elements of the same block.  A set of arcs
arises this way from a (unique) noncrossing partition exactly when no two
arcs cross, share a left endpoint, or share a right endpoint.

Arcs are plain ``(i, j)`` tuples with 1 <= i < j <= n.  The canonical
in-memory encoding of a partition is a bitset over the C(n, 2) arc slots,
indexed row-major: ``arc_index(n, (i, j)) = (i-1)*n - i*(i-1)//2 + (j-i-1)``.
This makes toggle legality and set equality O(1), which the orbit machinery
relies on.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .core import independent_sets

Arc = tuple[int, int]

#: Largest n accepted for single-partition operations.
MAX_N = 64
#: Default ceiling for exhaustive enumeration.  A cold ``orbits N
#: --sizes-only`` of the row word on the numpy engine took 0.6 s and 52 MB
#: peak RSS at n = 12, 1.6 s and 105 MB at n = 13, and 5.3-6.0 s and 298 MB
#: (112 B/state) at n = 14, on a 2-core VM (``tools/peak_rss.py``).  C_15
#: is about 9.7e6 states (about 1.1 GB at that rate); C_16, about 3.5e7,
#: would need about 4 GB.
DEFAULT_ENUM_LIMIT = 15


class ViolationKind(Enum):
    """Why a set of arcs (or blocks) fails to be a noncrossing partition."""

    CROSSING = "crossing"
    LEFT_NESTING = "left_nesting"
    RIGHT_NESTING = "right_nesting"
    OUT_OF_RANGE = "out_of_range"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class Violation:
    """A violation kind together with the offending arc or pair of arcs."""

    kind: ViolationKind
    arcs: tuple[Arc, ...]

    def __str__(self) -> str:
        shown = " ".join(
            f"({','.join(map(str, arc))})" if isinstance(arc, tuple) else str(arc)
            for arc in self.arcs
        )
        return f"{self.kind.value}: {shown}"


class InvalidPartitionError(ValueError):
    """Raised when constructing a partition from invalid data."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive operation exceeds its configured ceiling."""

    def __init__(self, n: int, limit: int):
        super().__init__(
            f"n={n} exceeds the enumeration ceiling of {limit}; "
            f"raise the limit explicitly to proceed"
        )
        self.n = n
        self.limit = limit


def catalan(n: int) -> int:
    """Return the n-th Catalan number (C_0 = C_1 = 1), exactly."""
    if n < 0:
        raise ValueError(f"Catalan numbers need n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def arc_slots(n: int) -> int:
    """Number of possible arcs on [n], i.e. C(n, 2)."""
    return n * (n - 1) // 2


def arc_index(n: int, arc: Arc) -> int:
    """Row-major bit position of ``arc`` in the arc bitset for ground set [n]."""
    i, j = arc
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


@lru_cache(maxsize=None)
def _arcs_in_index_order(n: int) -> tuple[Arc, ...]:
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def index_arc(n: int, idx: int) -> Arc:
    """Inverse of :func:`arc_index`."""
    return _arcs_in_index_order(n)[idx]


def arcs_conflict(a: Arc, b: Arc) -> bool:
    """True when two distinct arcs cannot coexist in any noncrossing partition.

    That happens exactly when they share a left endpoint, share a right
    endpoint, or cross (one starts strictly inside the other and ends
    strictly outside).
    """
    (i, j), (k, l) = a, b
    if i == k or j == l:
        return True
    return (i < k < j < l) or (k < i < l < j)


@lru_cache(maxsize=None)
def conflict_masks(n: int) -> tuple[int, ...]:
    """For each arc slot, the bitset of arc slots it conflicts with."""
    arcs = _arcs_in_index_order(n)
    masks = [0] * len(arcs)
    for x, y in combinations(range(len(arcs)), 2):
        if arcs_conflict(arcs[x], arcs[y]):
            masks[x] |= 1 << y
            masks[y] |= 1 << x
    return tuple(masks)


def arc_tuple(arc):
    """``arc`` as a tuple when it is iterable (a list pair, say), else as is."""
    if isinstance(arc, tuple):
        return arc
    return tuple(arc) if isinstance(arc, Iterable) else arc


def _check_arc_range(n: int, arc) -> Violation | None:
    """An out-of-range violation unless ``arc``, already passed through
    :func:`arc_tuple`, is a pair of ints (i, j) with 1 <= i < j <= n."""
    if (
        not isinstance(arc, tuple)
        or len(arc) != 2
        or not all(isinstance(v, int) for v in arc)
        or not (1 <= arc[0] < arc[1] <= n)
    ):
        return Violation(ViolationKind.OUT_OF_RANGE, (arc,))
    return None


def check_arc(n: int, arc) -> None:
    """Raise ValueError unless ``arc`` is a pair of ints (i, j), as a tuple
    or any iterable, with 1 <= i < j <= n."""
    if _check_arc_range(n, arc_tuple(arc)) is not None:
        raise ValueError(f"arc {arc} out of range for n={n}")


def _pair_violation(a: Arc, b: Arc) -> ViolationKind | None:
    if a[0] == b[0]:
        return ViolationKind.LEFT_NESTING
    if a[1] == b[1]:
        return ViolationKind.RIGHT_NESTING
    (i, j), (k, l) = sorted((a, b))
    if i < k < j < l:
        return ViolationKind.CROSSING
    return None


def validate(n: int, arcs: Iterable[Arc]) -> Violation | None:
    """Check whether ``arcs`` is the arc diagram of a noncrossing partition.

    Returns ``None`` when valid, otherwise a :class:`Violation` naming one
    offending arc (out of range / duplicate) or pair of arcs (crossing,
    left-nesting, right-nesting).  The first violation in a deterministic
    scan order is reported.  An arc may be any iterable pair, such as a
    list; violations name it as a tuple.
    """
    seen: list[Arc] = []
    for arc in arcs:
        if not isinstance(arc, tuple):
            arc = arc_tuple(arc)
        bad = _check_arc_range(n, arc)
        if bad is not None:
            return bad
        if arc in seen:
            return Violation(ViolationKind.DUPLICATE, (arc,))
        seen.append(arc)
    for a, b in combinations(sorted(seen), 2):
        kind = _pair_violation(a, b)
        if kind is not None:
            return Violation(kind, (a, b))
    return None


@dataclass(frozen=True, slots=True, init=False, repr=False)
class NCPartition:
    """An immutable noncrossing partition of [n], stored as an arc bitset.

    Equality and hashing use the (n, bitset) pair, so partitions work as
    dictionary keys and set members, which orbit detection depends on.
    """

    n: int
    mask: int

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if not 0 <= n <= MAX_N:
            raise ValueError(f"ground-set size must be in 0..{MAX_N}, got {n}")
        arcs = tuple(arcs)
        bad = validate(n, arcs)
        if bad is not None:
            raise InvalidPartitionError(bad)
        object.__setattr__(self, "n", n)
        mask = 0
        for arc in arcs:
            mask |= 1 << arc_index(n, arc)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _raw(cls, n: int, mask: int) -> "NCPartition":
        # Fast path for masks already known valid (enumeration, toggles).
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        return self

    @classmethod
    def empty(cls, n: int) -> "NCPartition":
        return cls(n)

    def arcs(self) -> tuple[Arc, ...]:
        """The arc set, sorted lexicographically."""
        n, out, rest = self.n, [], self.mask
        while rest:
            low = rest & -rest
            out.append(index_arc(n, low.bit_length() - 1))
            rest ^= low
        return tuple(out)

    @property
    def arc_count(self) -> int:
        return self.mask.bit_count()

    @property
    def block_count(self) -> int:
        return self.n - self.arc_count

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as sorted tuples, ordered by least element."""
        succ = {i: j for i, j in self.arcs()}
        has_pred = {j for _, j in self.arcs()}
        out = []
        for start in range(1, self.n + 1):
            if start in has_pred:
                continue
            block = [start]
            while block[-1] in succ:
                block.append(succ[block[-1]])
            out.append(tuple(block))
        return tuple(out)

    def block_partition(self) -> "BlockPartition":
        return BlockPartition(self.n, self.blocks())

    def to_text(self) -> str:
        """Serialize as ``n; (i1,j1) (i2,j2) ...`` with arcs sorted."""
        body = " ".join(f"({i},{j})" for i, j in self.arcs())
        return f"{self.n};" + (f" {body}" if body else "")

    @classmethod
    def from_text(cls, text: str) -> "NCPartition":
        head, _, body = text.partition(";")
        try:
            n = int(head.strip())
        except ValueError:
            raise ValueError(f"expected 'n; (i,j) ...', got {text!r}") from None
        return cls(n, parse_arcs(body))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "arcs": [list(a) for a in self.arcs()]}

    def __repr__(self) -> str:
        return f"NCPartition({self.n}, {list(self.arcs())})"


def parse_arcs(text: str) -> list[Arc]:
    """Parse arc tokens like ``(1,4) (4,5)`` (parentheses optional)."""
    out: list[Arc] = []
    for tok in text.split():
        core = tok.strip("(),")
        parts = core.replace("(", "").replace(")", "").split(",")
        if len(parts) != 2:
            raise ValueError(f"cannot parse arc token {tok!r}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"cannot parse arc token {tok!r}") from None
    return out


@dataclass(frozen=True, slots=True, init=False, repr=False)
class BlockPartition:
    """A set partition of [n] into blocks, not necessarily noncrossing.

    Construction checks that the blocks are nonempty, disjoint, and cover
    [n].  The noncrossing property is checked on conversion to arcs, so a
    crossing partition can exist just long enough to be rejected there.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        normalized = tuple(
            sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0)
        )
        seen: set[int] = set()
        for block in normalized:
            if not block:
                raise ValueError("blocks must be nonempty")
            for v in block:
                if not 1 <= v <= n:
                    raise ValueError(f"element {v} outside 1..{n}")
                if v in seen:
                    raise ValueError(f"element {v} appears in two blocks")
                seen.add(v)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise ValueError(f"blocks do not cover [n]; missing {missing}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", normalized)

    def to_arcs(self) -> NCPartition:
        """Arc diagram of this partition; raises if the blocks cross."""
        arcs = [
            (block[k], block[k + 1])
            for block in self.blocks
            for k in range(len(block) - 1)
        ]
        return NCPartition(self.n, arcs)

    def to_text(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) or "{}"

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "BlockPartition":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"expected block text like '{{1,4,5}}{{2}}', got {text!r}")
        blocks = []
        for chunk in text[1:-1].split("}{"):
            chunk = chunk.strip()
            if chunk:
                blocks.append(tuple(int(v) for v in chunk.split(",")))
        if n is None:
            n = max((v for b in blocks for v in b), default=0)
        return cls(n, blocks)

    def __repr__(self) -> str:
        return f"BlockPartition({self.n}, {[list(b) for b in self.blocks]})"


@lru_cache(maxsize=8)
def _enum_masks_cached(n: int) -> Sequence[int]:
    return independent_sets(conflict_masks(n))


def _check_enum_limit(n: int, limit: int | None) -> None:
    """Raise when n exceeds ``limit``, or :data:`DEFAULT_ENUM_LIMIT` when
    ``limit`` is None (read at call time)."""
    cap = DEFAULT_ENUM_LIMIT if limit is None else limit
    if n > cap:
        raise EnumerationLimitError(n, cap)


def enumerate_masks(n: int, limit: int | None = None) -> Sequence[int]:
    """All noncrossing-partition bitsets for [n], lexicographically ordered.

    A tuple of ints up to n = 10; from n = 11 on, where C_n reaches
    :data:`nctoggles.core.VECTOR_MIN_STATES`, a read-only
    :class:`nctoggles.core.PackedSets` of 8 B per set and 64-bit lane (one
    lane at n = 11, two from n = 12), against about 48 B per set in a
    tuple.  The result is cached per n; callers must not mutate it.
    """
    _check_enum_limit(n, limit)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _enum_masks_cached(n)


def enumerate_nc(n: int, limit: int | None = None) -> list[NCPartition]:
    """All noncrossing partitions of [n] in canonical (lexicographic) order.

    The list has exactly ``catalan(n)`` elements.  n = 0 and n = 1 each
    yield the single empty partition.
    """
    return [NCPartition._raw(n, m) for m in enumerate_masks(n, limit)]

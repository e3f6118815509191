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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .core import independent_sets

Arc = tuple[int, int]

#: Largest n accepted for single-partition operations.
MAX_N = 64
#: Default ceiling for exhaustive enumeration (C_16 is about 3.5e7).
DEFAULT_ENUM_LIMIT = 16


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
        shown = " ".join(f"({i},{j})" for i, j in self.arcs)
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


def _check_arc_range(n: int, arc) -> Violation | None:
    if (
        not isinstance(arc, tuple)
        or len(arc) != 2
        or not all(isinstance(v, int) for v in arc)
        or not (1 <= arc[0] < arc[1] <= n)
    ):
        return Violation(ViolationKind.OUT_OF_RANGE, (tuple(arc),))
    return None


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
    scan order is reported.
    """
    seen: list[Arc] = []
    for arc in arcs:
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


class NCPartition:
    """An immutable noncrossing partition of [n], stored as an arc bitset.

    Equality and hashing use the (n, bitset) pair, so partitions work as
    dictionary keys and set members, which orbit detection depends on.
    """

    __slots__ = ("n", "mask")

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

    def __setattr__(self, name, value):
        raise AttributeError("NCPartition is immutable")

    @classmethod
    def _raw(cls, n: int, mask: int) -> "NCPartition":
        # Fast path for masks already known valid (enumeration, toggles).
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        return self

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "NCPartition":
        """Build from a bitset, checking pairwise compatibility of set bits."""
        if not 0 <= n <= MAX_N:
            raise ValueError(f"ground-set size must be in 0..{MAX_N}, got {n}")
        if mask < 0 or mask >> arc_slots(n):
            raise ValueError("mask has bits outside the arc slots")
        conflicts = conflict_masks(n)
        rest = mask
        while rest:
            low = rest & -rest
            k = low.bit_length() - 1
            if mask & conflicts[k]:
                other = (mask & conflicts[k]).bit_length() - 1
                pair = tuple(sorted((index_arc(n, k), index_arc(n, other))))
                kind = _pair_violation(*pair)
                assert kind is not None
                raise InvalidPartitionError(Violation(kind, pair))
            rest ^= low
        return cls._raw(n, mask)

    @classmethod
    def empty(cls, n: int) -> "NCPartition":
        return cls(n)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> "NCPartition":
        return block_partition(blocks, n).to_arcs()

    def arcs(self) -> tuple[Arc, ...]:
        """The arc set, sorted lexicographically."""
        n, out, rest = self.n, [], self.mask
        while rest:
            low = rest & -rest
            out.append(index_arc(n, low.bit_length() - 1))
            rest ^= low
        return tuple(out)

    def contains_arc(self, arc: Arc) -> bool:
        return bool(self.mask >> arc_index(self.n, arc) & 1)

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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NCPartition":
        return cls(int(obj["n"]), [tuple(a) for a in obj["arcs"]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPartition)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

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


class BlockPartition:
    """A set partition of [n] into blocks, not necessarily noncrossing.

    Construction checks that the blocks are nonempty, disjoint, and cover
    [n].  The noncrossing property is checked on conversion to arcs, so a
    crossing partition can exist just long enough to be rejected there.
    """

    __slots__ = ("n", "blocks")

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

    def __setattr__(self, name, value):
        raise AttributeError("BlockPartition is immutable")

    def to_arcs(self) -> NCPartition:
        """Arc diagram of this partition; raises if the blocks cross."""
        arcs = [
            (block[k], block[k + 1])
            for block in self.blocks
            for k in range(len(block) - 1)
        ]
        bad = validate(self.n, arcs)
        if bad is not None:
            raise InvalidPartitionError(bad)
        return NCPartition(self.n, arcs)

    def is_noncrossing(self) -> bool:
        return validate(
            self.n,
            [
                (b[k], b[k + 1])
                for b in self.blocks
                for k in range(len(b) - 1)
            ],
        ) is None

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
        size = n if n is not None else max((v for b in blocks for v in b), default=0)
        return cls(size, blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        return f"BlockPartition({self.n}, {[list(b) for b in self.blocks]})"


def block_partition(blocks: Iterable[Iterable[int]], n: int | None = None) -> BlockPartition:
    blocks = [tuple(b) for b in blocks]
    if n is None:
        n = max((v for b in blocks for v in b), default=0)
    return BlockPartition(n, blocks)


def arcs_to_blocks(partition: NCPartition) -> BlockPartition:
    """Blocks of a partition: connected components of the arc chains."""
    return partition.block_partition()


def blocks_to_arcs(partition: BlockPartition) -> NCPartition:
    """Arc diagram of a noncrossing block partition (inverse of arcs_to_blocks)."""
    return partition.to_arcs()


def arc_count(partition: NCPartition) -> int:
    """The arc count statistic: number of arcs in the diagram."""
    return partition.arc_count


def block_count(partition: NCPartition) -> int:
    """The block count statistic; arc count + block count = n."""
    return partition.block_count


def is_refinement(finer: BlockPartition, coarser: BlockPartition) -> bool:
    """True iff every block of ``finer`` is contained in a block of ``coarser``."""
    if finer.n != coarser.n:
        raise ValueError(f"mismatched ground sets: {finer.n} vs {coarser.n}")
    where = {}
    for idx, block in enumerate(coarser.blocks):
        for v in block:
            where[v] = idx
    return all(len({where[v] for v in block}) == 1 for block in finer.blocks)


@lru_cache(maxsize=8)
def _enum_masks_cached(n: int) -> tuple[int, ...]:
    return independent_sets(conflict_masks(n))


def enumerate_masks(n: int, limit: int | None = None) -> tuple[int, ...]:
    """All noncrossing-partition bitsets for [n], lexicographically ordered.

    The result is cached per n; callers must not mutate it.
    """
    cap = DEFAULT_ENUM_LIMIT if limit is None else limit
    if n > cap:
        raise EnumerationLimitError(n, cap)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _enum_masks_cached(n)


def enumerate_nc(n: int, limit: int | None = None) -> list[NCPartition]:
    """All noncrossing partitions of [n] in canonical (lexicographic) order.

    The list has exactly ``catalan(n)`` elements.  n = 0 and n = 1 each
    yield the single empty partition.
    """
    return [NCPartition._raw(n, m) for m in enumerate_masks(n, limit)]


def iter_nc(n: int, limit: int | None = None) -> Iterator[NCPartition]:
    for m in enumerate_masks(n, limit):
        yield NCPartition._raw(n, m)

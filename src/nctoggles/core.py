"""The toggle system of a graph: enumeration, word stepper, orbit engine and
cycle chase.

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
catalan(n) sets in the enumeration itself.  An enumeration of fewer than
:data:`VECTOR_MIN_STATES` sets is a tuple of ints, and so is one on more
than 128 vertices, whatever its size; any other is a :class:`PackedSets`,
which holds each set in one or two ``array('Q')`` lanes, 8 B per lane
against about 48 B for an int of more than 64 bits and its slot in a
tuple, and hands them to numpy without a copy.

The orbit engine (:func:`word_orbits`) composes a word on state indices,
swapping along each toggle's table of index pairs, for NC(n) and graphs
alike.  What a homomesy report needs of the orbits, their sizes and the
sums of per-state integer columns over each, :func:`orbit_sums` reads off
the word's image without listing an orbit (:func:`word_orbit_sums` for
popcount columns).  The engine runs on numpy when :func:`vectorized` says
so; the list engine and :func:`orbit_partition` stay its oracles.

Past its enumeration and swap tables, the numpy engine holds the image
(4 B per state) and one scratch arena (:func:`_arena`, 25 B per state)
that every warm call works in, so it allocates nothing else of the state
count but one popcount column (1 B per state) at a time.  On the row word
a cold ``orbits N --sizes-only`` peaks at 50.7 MB RSS at n = 12
(255 B per state), 102.7 MB at n = 13 (145 B) and 294.7 MB at n = 14
(116 B), and ``homomesy N --stat alpha`` at 55.6, 112.0 and 319.2 MB
(280, 158 and 125 B), most of its excess being its JSON report of one
object per orbit (2-core VM, Python 3.11, numpy 2.4;
``python tools/peak_rss.py 12 13 14``).
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import TypeVar

S = TypeVar("S")


#: A search subtree with at most this many candidate vertices is read from
#: the per-graph memo instead of recursed into.  On a 2-core VM a fresh
#: process enumerated NC(12) in 0.10-0.17 s with no memo and in 0.04-0.06 s
#: with any bound from 12 to 20 (NC(13): 0.49-0.59 s against 0.12-0.20 s),
#: while the NC(12) memo grew from 7,725 sets at 12 to 18,321 at 16 and
#: 25,629 at 20.  16 sits in the flat stretch with the memo under C_12 / 10
#: (20,801 sets), which 18 would cross.
SMALL_SUBTREE = 16


#: A toggle system with at least this many states is run on numpy when numpy
#: imports; fewer states, or a process without numpy, run on lists and
#: arrays.  For NC(n) that is n >= 11: at n = 10 (16,796 states) a cold run
#: does not pay back importing numpy.  It is also the length from which
#: :func:`independent_sets` returns its sets packed into lanes, so every
#: state list the numpy engine is given arrives packed.
VECTOR_MIN_STATES = 2**15

#: A :class:`PackedSets` lane holds 64 vertices, and a set at most two lanes.
_LANE_BITS = 64
_LANE_MASK = (1 << _LANE_BITS) - 1
#: Byte order of ``array('Q')``, in which lane bytes are written.
_ORDER = sys.byteorder


class EngineRefusal(RuntimeError):
    """The numpy engine cannot build this system's swap tables exactly (two
    states share a search key), so it refuses rather than guess."""


def _lane_count(vertices: int) -> int:
    """Lanes per set on ``vertices`` vertices: 1 up to 64, 2 up to 128, and
    0 above, where sets stay Python ints."""
    return 0 if vertices > 2 * _LANE_BITS else max(1, -(-vertices // _LANE_BITS))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PackedSets(Sequence):
    """A read-only sequence of bitsets held in ``array('Q')`` lanes: set i
    is ``lanes[0][i] | lanes[1][i] << 64``, or ``lanes[0][i]`` alone on one
    lane.

    Reading a set builds its int; iterating builds them in C.  The numpy
    engine reads the lanes as arrays without copying them.  A packed
    sequence equals a tuple or another packed sequence with the same sets in
    the same order.  The lanes must not be changed.
    """

    lanes: tuple[array, ...]

    @classmethod
    def of(cls, sets: Sequence[int], count: int) -> PackedSets:
        """``sets``, each below ``2 ** (64 * count)``, packed in ``count``
        lanes."""
        if count == 1:
            return cls((array("Q", sets),))
        return cls(tuple(
            array("Q", [s >> shift & _LANE_MASK for s in sets])
            for shift in range(0, count * _LANE_BITS, _LANE_BITS)
        ))

    def __len__(self) -> int:
        return len(self.lanes[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PackedSets(tuple(lane[i] for lane in self.lanes))
        return sum(lane[i] << k * _LANE_BITS for k, lane in enumerate(self.lanes))

    def __iter__(self):
        low, *high = self.lanes
        if not high:
            return iter(low)
        return map(int.__or__, low, map(_LANE_BITS.__rlshift__, high[0]))

    def __eq__(self, other):
        if not isinstance(other, (PackedSets, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"PackedSets(<{len(self)} sets in {len(self.lanes)} lanes>)"


def independent_sets(adj: Sequence[int], within: int | None = None) -> Sequence[int]:
    """Every independent set as a bitset, in lexicographic order on sorted
    vertex lists; with ``within``, only the sets inside that vertex bitset.

    The order is a contract: each set comes after the set minus its highest
    vertex, and every set in between extends that one
    (:func:`toggle_pairs` walks the states that way).

    The result is a tuple of ints, except that a search of at least
    :data:`VECTOR_MIN_STATES` sets on at most 128 vertices returns a
    :class:`PackedSets`: 8 B per set and 64-bit lane, against about 48 B
    for an int of more than 64 bits and its slot in a tuple.  The search is
    walked once and recorded as blocks: a prefix and the candidates of a
    subtree listed by the graph's memo (see the module docstring), a lone
    set being the block of no candidates.  The tuple is built from the
    blocks; once it reaches that size it is dropped and the same blocks are
    written into lanes (:func:`_small_subtrees`' ``fields``).  The memo
    keeps the result independent of earlier calls; ``adj`` may be any
    sequence, and equal tables share one memo.
    """
    adj = tuple(adj)
    small = _small_subtrees(adj)
    root = (1 << len(adj)) - 1 if within is None else within
    cap = VECTOR_MIN_STATES if len(adj) <= 2 * _LANE_BITS else sys.maxsize
    # prefix, candidates, prefix, candidates, ... in lexicographic order.
    blocks: list[int] = []

    # Depth-first over increasing vertices; recording the current set before
    # descending yields lexicographic order.  A subtree whose candidates are
    # few is one block.
    def rec(mask: int, avail: int) -> None:
        blocks.extend((mask, 0))
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = rest & ~adj[low.bit_length() - 1]
            if nxt.bit_count() <= SMALL_SUBTREE:
                blocks.extend((mask | low, nxt))
            else:
                rec(mask | low, nxt)

    rec(0, root)
    # rec's closure holds rec, and so ``blocks``: without this the list
    # would wait for the cycle collector, which the memo's allocations can
    # push to a later generation, past the caller's own peak.
    del rec
    out: list[int] = []
    for prefix, avail in zip(blocks[::2], blocks[1::2]):
        if avail:
            out.extend(map(prefix.__or__, small(avail)))
        else:
            out.append(prefix)
        if len(out) >= cap:
            break
    else:
        return tuple(out)
    # No listed int is held while the lanes grow.
    del out
    shifts = range(0, _lane_count(len(adj)) * _LANE_BITS, _LANE_BITS)
    lanes = tuple(array("Q") for _ in shifts)
    for prefix, avail in zip(blocks[::2], blocks[1::2]):
        size, ones, parts = small.fields(avail)
        for lane, part, shift in zip(lanes, parts, shifts):
            lane.frombytes((part | (prefix >> shift & _LANE_MASK) * ones).to_bytes(size, _ORDER))
    return PackedSets(lanes)


@lru_cache(maxsize=16)
def _small_subtrees(adj: tuple[int, ...]) -> Callable[[int], tuple[int, ...]]:
    """For the graph ``adj``, a memoised ``avail -> independent_sets(adj,
    avail)`` meant for ``avail`` of at most :data:`SMALL_SUBTREE` vertices.

    Keyed by the table's value, so an edited table is a new graph; the store
    keeps the 16 graphs used last.  The memo is the callable's ``memo``.
    Its ``fields`` gives the same sets for :class:`PackedSets` lanes, also
    memoised: ``(size, ones, parts)``, with one int per lane in ``parts``
    whose 64-bit fields hold each set's bits of that lane, in order, as
    ``size`` bytes of ``array('Q')``; ``ones`` has a 1 in every field, so
    ``part | low_bits * ones`` joins every set to a prefix disjoint from it.
    """
    memo: dict[int, tuple[int, ...]] = {}
    packed: dict[int, tuple] = {}
    count = _lane_count(len(adj))

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

    def fields(avail: int) -> tuple:
        got = packed.get(avail)
        if got is None:
            sets = small(avail)
            parts = tuple(
                int.from_bytes(lane.tobytes(), _ORDER)
                for lane in PackedSets.of(sets, count).lanes
            )
            ones = ((1 << _LANE_BITS * len(sets)) - 1) // _LANE_MASK
            got = packed[avail] = (8 * len(sets), ones, parts)
        return got

    small.memo = memo  # type: ignore[attr-defined]
    small.fields = fields  # type: ignore[attr-defined]
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
    :func:`cycles` orders them: one ``step`` call per state, the oracle of
    :func:`word_orbits`, which the orbit decompositions run on instead."""
    states = tuple(states)
    index = {s: i for i, s in enumerate(states)}
    return cycles(states, [index[step(s)] for s in states])


def vectorized(size: int, vertices: int) -> bool:
    """True when a toggle system of ``size`` states on ``vertices`` vertices
    runs on the numpy engine: it has at least :data:`VECTOR_MIN_STATES`
    states, its states fit two 64-bit lanes, and numpy imports and has
    ``bitwise_count`` (numpy >= 2.0), which :func:`orbit_sums` sums with.

    numpy is imported here, on first use, never at package import: a run
    that stays below the threshold never loads it.
    """
    if size < VECTOR_MIN_STATES or vertices > 2 * _LANE_BITS:
        return False
    try:
        import numpy
    except ImportError:
        return False
    return hasattr(numpy, "bitwise_count")


@lru_cache(maxsize=8)
def _pair_tables(adj: tuple[int, ...]) -> dict:
    """The swap tables of the graph ``adj`` built so far, by vertex; grown
    by :func:`toggle_pairs`.

    Keyed by the table's value as :func:`_small_subtrees` is, so an edited
    table is a new graph; the store keeps the 8 graphs used last.  The
    tables hold indices into :func:`independent_sets`, whose order is a
    contract, so they stay valid after an enumeration cache is cleared.
    They cost 8 B per pair (two int32 entries, one in each half of the
    table): for NC(n) about 9.2 MB at n = 12 and 35.7 MB at n = 13 once
    every slot is built.  They stay int32: the numpy swap pass casts a
    table to intp in the :func:`_arena` for the one toggle it applies,
    since intp tables would double the store.  The numpy build of every
    slot of NC(12) takes about 0.2 s, against 0.9 s for the pure-Python
    one, and it holds no per-state dict: with the states packed, a cold
    ``orbits N --sizes-only`` of the row word peaks at 51 MB RSS at n = 12,
    against 59 MB on the pure-Python engine though numpy itself takes
    11 MB, and at 103 MB at n = 13 against 180 MB (2-core VM, Python 3.11,
    numpy 2.4; ``tools/peak_rss.py``).
    """
    return {}


def toggle_pairs(adj: Sequence[int], slots: Iterable[int], states: Sequence[int]) -> dict:
    """The toggles at vertices ``slots`` of the graph ``adj`` as swaps of
    state indices.

    ``states`` is ``independent_sets(adj)``, which the caller got through
    its own ceiling check; indices point into it.  For each vertex k, a
    table of 2m indices in two halves: ``table[:m]`` holds the states that
    contain k, in increasing order, and ``table[m:]`` their partners,
    ``table[m + t]`` being state ``table[t]`` without k.  The table is a
    list or an ``array('i')`` (:func:`_pairs_python`), or an int32 ndarray
    with the same entries on the numpy engine (:func:`vectorized`), whose
    swap pass reads each half as one contiguous index array.  The toggle swaps each pair and fixes every
    other state, so a word acts on indices by swapping along these tables.
    Tables are built once per process (:func:`_pair_tables`) and shared by
    every caller, who must not mutate them; a call builds only the
    requested vertices not built yet.
    """
    store = _pair_tables(tuple(adj))
    wanted = set(slots)
    missing = wanted - store.keys()
    if missing:
        build = _pairs_numpy if vectorized(len(states), len(adj)) else _pairs_python
        store.update(build(adj, missing, states))
    return {k: store[k] for k in wanted}


def _pairs_python(adj: Sequence[int], slots: set[int], states: Sequence[int]) -> dict:
    """:func:`toggle_pairs`' tables for ``slots``, in one pass over the states.

    The pass appends each pair to its vertex's table, state then partner.
    Each table is then replaced by its halves, one vertex at a time, so the
    build needs room beyond the tables for one vertex's copies only.

    Below :data:`VECTOR_MIN_STATES` states a table is a list whose entries
    are one shared int object per state index, so :func:`_swap_pass` reads
    its pairs without making an int: on random qualifying words of NC(8)
    that pass took 0.20 ms per word against 0.25 ms on ``array('i')``
    halves (best of 7, 2-core VM), for tables of 0.12 MB against 0.04 MB
    once every slot is built (1.74 against 0.61 MB at NC(10), the shared
    ints included).  From that size on the tables are ``array('i')``, 4 B
    per entry.
    """
    small = len(states) < VECTOR_MIN_STATES
    ints = list(range(len(states))) if small else range(len(states))
    new = list if small else lambda: array("i")
    tables = [new() if k in slots else None for k in range(len(adj))]
    bits = [1 << k for k in range(len(adj))]
    index = dict(zip(states, ints))
    # In lexicographic order a state's parent (the state minus its top
    # vertex) comes earlier, and every state in between extends the parent,
    # so path[:d] holds the vertices of the current state when it has d.
    path = [0] * len(adj)
    for i, mask in zip(ints, states):
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


def _pairs_numpy(adj: Sequence[int], slots: set[int], states: Sequence[int]) -> dict:
    """:func:`toggle_pairs`' tables for ``slots`` as int32 ndarrays, with no
    per-state dict: each partner is found by binary search on a sorted key.

    The states are read as uint64 arrays straight from the lanes of a
    :class:`PackedSets`; a tuple is packed first.  On one lane a state is
    its own key; on two, ``lo`` (vertices 0..63) and ``hi`` are keyed by
    ``lo ^ (hi * 0x9E3779B97F4A7C15)`` (mod 2**64).  Equal keys raise
    :class:`EngineRefusal`, and every partner found is compared lane by
    lane with the state sought, so the tables are exact or the build
    fails.  The toggle at k maps the states holding k one to one onto the
    states where k can be added (no bit of ``1 << k | adj[k]``), so those
    are counted, and holders of another number raise.  The tables are views of one buffer, sized by
    those counts, so that they do not scatter through the heap among the
    build's temporaries; each is written as its two halves, ``i`` then ``j``.
    """
    import numpy as np

    if not isinstance(states, PackedSets):
        states = PackedSets.of(states, _lane_count(len(adj)))
    lanes = [np.frombuffer(memoryview(lane).toreadonly(), np.uint64) for lane in states.lanes]
    spread = np.uint64(0x9E3779B97F4A7C15)

    def keyed(parts: list):
        low, *high = parts
        return low ^ high[0] * spread if high else low

    # Whether each entry of ``lane`` meets ``bits``, as bools into ``out``:
    # the uint64 AND is cast in the ufunc's small buffers, so it makes no
    # temporary of 8 B per state, and a bool array is the fastest to search.
    def meets(lane, bits: int, out):
        return np.bitwise_and(lane, np.uint64(bits), out=out, casting="unsafe")

    keys = keyed(lanes)
    order = np.argsort(keys).astype(np.int32)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise EngineRefusal(
            "two states share a 64-bit key, so the numpy engine cannot index them exactly"
        )
    slots = sorted(slots)
    (hits, more), sizes = np.empty((2, len(states)), np.bool_), []
    for k in slots:
        mask = 1 << k | adj[k]
        meets(lanes[0], mask & _LANE_MASK, hits)
        for lane in lanes[1:]:
            hits |= meets(lane, mask >> _LANE_BITS, more)
        sizes.append(len(states) - np.count_nonzero(hits))
    del more
    flat, start = np.empty(2 * sum(sizes), np.int32), 0
    out = {}
    for k, size in zip(slots, sizes):
        half, bit = divmod(k, _LANE_BITS)
        i = np.flatnonzero(meets(lanes[half], 1 << bit, hits))
        partner = [lane[i] for lane in lanes]
        partner[half] ^= np.uint64(1 << bit)
        # The search runs about twice as fast on sorted queries.
        queries = keyed(partner)
        by_key = np.argsort(queries)
        pos = np.searchsorted(keys, queries[by_key])
        j = np.empty_like(order, shape=len(i))
        j[by_key] = order[np.minimum(pos, len(states) - 1)]
        if not all((lane[j] == p).all() for lane, p in zip(lanes, partner)):
            raise RuntimeError(f"a state without arc slot {k} is missing")
        if len(i) != size:
            raise RuntimeError(f"{len(i)} states contain arc slot {k}, not {size}")
        table = out[k] = flat[start:start + 2 * size]
        table[:size], table[size:] = i, j
        start += 2 * size
    return out


def _word_image(adj: Sequence[int], slots: Sequence[int], states: Sequence[int]):
    """The word that toggles ``slots`` in order as a permutation of state
    indices, ``image[i]`` the index of word(state i): an int32 ndarray on
    the numpy engine (:func:`vectorized`), else a list."""
    tables = toggle_pairs(adj, slots, states)
    swap_pass = _swap_pass_numpy if vectorized(len(states), len(adj)) else _swap_pass
    return swap_pass(len(states), [tables[k] for k in slots])


def _swap_pass(size: int, word_tables: list) -> list[int]:
    """The image of a word on ``size`` states, given the swap tables of its
    toggles in application order.

    A table's pairs are its halves read side by side (:func:`toggle_pairs`).
    Swapping entries i, j of an array holding a map g, for every pair of a
    toggle t, leaves it holding g . t.  Going through the word backwards
    from the identity therefore ends with image[i] = index of word(state i).
    """
    image = list(range(size))
    for table in reversed(word_tables):
        half = len(table) // 2
        for i, j in zip(table[:half], table[half:]):
            image[i], image[j] = image[j], image[i]
    return image


def _swap_pass_numpy(size: int, word_tables: list):
    """:func:`_swap_pass` as one fancy-index swap per toggle, returning a
    fresh int32 ndarray.

    numpy gathers and scatters fastest with contiguous intp indices, so
    each int32 table is cast into the :func:`_arena`'s ``keys``, and the
    image at its indices is gathered into ``low``; a table has 2m <=
    ``size`` entries, so both fit, and the stored tables stay int32
    (:func:`_pair_tables`).  Past the image itself a call allocates nothing
    of the state count.
    """
    import numpy as np

    image = np.arange(size, dtype=np.int32)
    low, _, _, indices, _, _ = _arena(size)
    for table in reversed(word_tables):
        half = len(table) // 2
        where = indices[:2 * half]
        where[...] = table
        seen = np.take(image, where, out=low[:2 * half], mode="clip")
        # image[i], image[j] = image[j], image[i] over the table's pairs.
        image[where[:half]] = seen[half:]
        image[where[half:]] = seen[:half]
    return image


@lru_cache(maxsize=1)
def _arena(size: int) -> tuple:
    """The numpy engine's one scratch arena for ``size`` states, 25 B per
    state (5.2 MB for NC(12)): ``(low, high, wide, keys, spare, flags)``,
    where ``low`` and ``high`` are int32, the two halves of the buffer of
    the int64 ``wide``, ``keys`` and ``spare`` are int64 (intp on 64-bit
    platforms) and ``flags`` is bool.

    The arrays are kept for the last size asked and overwritten by every
    engine call, which must not overlap another: :func:`_swap_pass_numpy`
    casts and gathers its tables in them, :func:`_cycle_labels` doubles in
    all but ``wide``, :func:`_orbit_sums_numpy` sorts its keys and gathers
    its columns in them, and :func:`_popcounts` masks and counts its lanes
    in ``spare`` and ``flags``.  No result of the engine is one of them,
    except the labels of :func:`_cycle_labels`.  Fresh arrays on every call
    came from fresh pages: about 1,000 page faults per warm ``orbits 12
    --sizes-only``, 3-4 ms of its 30 ms on a 2-core VM, at a cost that
    swings with the load on the machine.  They are four allocations, not
    views of one block, so that each can reuse heap that the table build
    freed: one block of 25 B per state took fresh pages, and the
    ``nc_orbits`` benchmark peaked 1.5 MB higher.
    """
    import numpy as np

    wide = np.empty(size, np.int64)
    low, high = wide.view(np.int32).reshape(2, size)
    keys, spare = np.empty(size, np.int64), np.empty(size, np.int64)
    return low, high, wide, keys, spare, np.empty(size, np.bool_)


def _iota(out):
    """``out`` filled with 0, 1, 2, ... in place, by doubling the filled
    prefix: no array of its size is allocated."""
    import numpy as np

    out[:1] = 0
    done = 1
    while done < len(out):
        step = min(done, len(out) - done)
        np.add(out[:step], done, out=out[done:done + step])
        done += step
    return out


def _cycle_labels(image):
    """Each index of the permutation ``image`` (an ndarray) labelled with
    the least index on its cycle, as an int32 array that is one of the
    :func:`_arena`'s and so valid only until the next engine call.

    Labels come from pointer doubling: after t rounds ``label[i]`` is the
    least of the 2**t indices that i reaches first.  A round that changes
    no label leaves each label its cycle's least index.  With L the longest
    cycle's length, that takes ceil(log2 L) + 1 rounds.

    A call allocates nothing of the permutation's size: the labels start as
    the identity, written in place (:func:`_iota`).  ``step`` is intp, so
    every gather runs on contiguous intp indices; the gathers take
    ``mode="clip"`` because numpy copies ``out`` under the default mode,
    and ``image``, being a permutation, never needs clipping.  ``image`` is
    not changed.
    """
    import numpy as np

    label, wider, _, step, far, same = _arena(len(image))
    _iota(label)
    step[...] = image
    while True:
        np.take(label, step, out=wider, mode="clip")
        np.minimum(label, wider, out=wider)
        np.equal(wider, label, out=same)
        if same.all():
            return label
        label, wider = wider, label
        np.take(step, step, out=far, mode="clip")
        step, far = far, step


def _run_starts(ordered):
    """The indices where the sorted, nonempty ``ordered`` changes value, 0
    first: each run is one cycle's.  The comparison is written into the
    :func:`_arena`'s ``flags``."""
    import numpy as np

    flags = _arena(len(ordered))[5]
    flags[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=flags[1:])
    return np.flatnonzero(flags)


def _cycle_sizes(image) -> list[int]:
    """The cycle sizes of the permutation ``image`` (an ndarray), in the
    order of :func:`cycles`, with no cycle listed: sorting the labels of
    :func:`_cycle_labels` in place puts each cycle's indices in one run, in
    order of least index, and the run lengths are the sizes."""
    import numpy as np

    if not len(image):
        return []
    label = _cycle_labels(image)
    label.sort()
    return np.diff(_run_starts(label), append=len(image)).tolist()


def orbit_sums(
    image, columns: Iterable[Sequence[int]]
) -> tuple[list[int], list[list[int]]]:
    """The cycle sizes of the permutation ``image`` of state indices, in the
    order of :func:`cycles`, and for each column (one non-negative int per
    state index) its sum over each cycle, in the same order; no cycle is
    listed.

    On a list ``image`` the columns are packed into one int per state, each
    in a field of ``(max(column) * len(image)).bit_length()`` bits, which no
    cycle's sum can overflow into the next, the last column unbounded.  One
    chase then adds up each cycle's packed ints, marking each index it
    passes in a copy of ``image``, and the fields are read off the sums.

    On an ndarray ``image`` (the numpy engine) the columns are read one at
    a time and may be any integer or bool arrays or lists, such as the
    uint8 popcounts of :func:`word_orbit_sums`.  The indices are ordered by
    the packed int64 keys ``label << 32 | index`` of their
    :func:`_cycle_labels`, sorted in place: the order of a stable sort of
    the labels, which runs each cycle in order of least index.  Each column
    is gathered in that order as int64 and ``np.add.reduceat`` sums its
    runs.  All of it happens in the :func:`_arena`, so a call allocates
    nothing of the state count but what converting a list column takes.
    With no column this is :func:`_cycle_sizes`, which sorts the labels
    themselves.
    """
    if not isinstance(image, list):
        return _orbit_sums_numpy(image, columns)
    columns = list(columns)
    # With no column, a column of zeros is summed and dropped.
    *lower, packed = columns or [bytes(len(image))]
    widths = [(max(column, default=0) * len(image)).bit_length() for column in lower]
    for width, column in zip(reversed(widths), reversed(lower)):
        packed = list(map(operator.add, column, map(width.__rlshift__, packed)))
    image = image[:]
    sizes, totals = [], []
    for i, j in enumerate(image):
        if j < 0:
            continue
        total, size = packed[i], 1
        while j != i:
            total += packed[j]
            size += 1
            image[j], j = -1, image[j]
        sizes.append(size)
        totals.append(total)
    sums = []
    for width in widths:
        sums.append([t & (1 << width) - 1 for t in totals])
        totals = [t >> width for t in totals]
    return sizes, (sums + [totals])[:len(columns)]


def _orbit_sums_numpy(image, columns: Iterable) -> tuple[list[int], list[list[int]]]:
    """:func:`orbit_sums` on an ndarray ``image``, reading one column at a
    time, in the :func:`_arena`.

    The indices are ordered by the int64 keys ``label << 32 | index``,
    which are distinct and, sorted in place in ``keys``, give the order of
    a stable argsort of the labels.  Their high halves, the sorted labels,
    give the run starts; their low halves, masked in place, are the order.
    Each column is cast into ``spare`` and gathered in that order into
    ``wide``, whose runs ``np.add.reduceat`` sums in int64, so no column is
    copied at its own width or cast at the sum's.  :func:`_popcounts`
    masks in ``spare`` too, but only while it makes the next column, after
    this one is summed.
    """
    import numpy as np

    columns = iter(columns)
    first = next(columns, None)
    if first is None:
        return _cycle_sizes(image), []
    columns = chain([first], columns)
    if not len(image):
        return orbit_sums([], columns)
    label = _cycle_labels(image)
    _, _, wide, keys, spare, _ = _arena(len(image))
    keys[...] = label
    keys <<= 32
    keys |= _iota(spare)
    keys.sort()
    starts = _run_starts(np.right_shift(keys, 32, out=spare))
    order = np.bitwise_and(keys, (1 << 32) - 1, out=keys)
    sums = []
    for column in columns:
        spare[...] = column
        np.take(spare, order, out=wide, mode="clip")
        sums.append(np.add.reduceat(wide, starts).tolist())
    return np.diff(starts, append=len(image)).tolist(), sums


def _popcounts(states: Sequence[int], masks: Iterable[int], lanes: int | None):
    """For each mask M, the column ``(state & M).bit_count()`` over
    ``states``: a list, or with ``lanes`` a uint8 ndarray read from the
    states packed in that many lanes (packed first if they are a tuple).
    A generator, so the numpy engine holds one column at a time; each lane
    is masked in the :func:`_arena`'s ``spare`` and counted in its
    ``flags``."""
    if lanes is None:
        for mask in masks:
            yield list(map(int.bit_count, map(mask.__and__, states)))
        return
    import numpy as np

    if not isinstance(states, PackedSets):
        states = PackedSets.of(states, lanes)
    words = [np.frombuffer(memoryview(lane).toreadonly(), np.uint64) for lane in states.lanes]
    _, _, _, _, spare, flags = _arena(len(states))
    spare, counts = spare.view(np.uint64), flags.view(np.uint8)
    for mask in masks:
        column = np.zeros(len(states), np.uint8)
        for word in words:
            if mask & _LANE_MASK:
                np.bitwise_and(word, np.uint64(mask & _LANE_MASK), out=spare)
                column += np.bitwise_count(spare, out=counts)
            mask >>= _LANE_BITS
        yield column


def word_orbits(
    adj: Sequence[int], slots: Sequence[int], states: Sequence[int]
) -> list[list[int]]:
    """Orbits of the word that toggles the vertices ``slots`` in order on
    ``states``, the independent sets of ``adj`` (:func:`toggle_pairs`), as
    lists of bitsets ordered as :func:`cycles` orders them, on either
    engine; :func:`orbit_partition` over :func:`stepper` is the oracle.
    The orbits list every state as an int, so packed states are unpacked
    once, into a tuple that lives for this call."""
    image = _word_image(adj, slots, states)
    return cycles(tuple(states), image if isinstance(image, list) else image.tolist())


def word_orbit_sums(
    adj: Sequence[int], slots: Sequence[int], states: Sequence[int], masks: Iterable[int]
) -> tuple[list[int], list[list[int]]]:
    """The sizes of :func:`word_orbits`' orbits, in the same order, and for
    each mask M the sums of ``(state & M).bit_count()`` over each orbit, by
    :func:`orbit_sums` on either engine, with no orbit listed."""
    image = _word_image(adj, slots, states)
    lanes = None if isinstance(image, list) else _lane_count(len(adj))
    return orbit_sums(image, _popcounts(states, masks, lanes))

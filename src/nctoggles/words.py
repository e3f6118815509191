"""Toggle words: compositions of arc toggles acting on noncrossing partitions.

A word is a finite sequence of arcs.  Written notation follows function
composition (the rightmost toggle acts first), but internally sequences are
kept in *application order* — first-applied first — which kills an entire
class of off-by-reversal bugs.  Text and JSON interchange use composition
order, matching how such words are usually printed.

A word is a partial Coxeter word when no arc repeats, and a Coxeter word
when additionally every arc of [n] appears.  A partial Coxeter word induces
an acyclic orientation of the subgraph of the base graph on its support:
the edge between conflicting arcs a, b points a -> b when a is applied
before b.  Sources of that orientation are the toggles that can act first
in some equivalent expression; conjugating by a source cyclically shifts
the word and turns the source into a sink.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .ncpartition import (
    Arc,
    NCPartition,
    arc_index,
    arc_slots,
    arcs_conflict,
    conflict_masks,
    enumerate_masks,
    index_arc,
)


class WordParseError(ValueError):
    """A malformed word text, pointing at the offending token."""

    def __init__(self, token: str, position: int, reason: str):
        super().__init__(f"bad word token {token!r} at position {position}: {reason}")
        self.token = token
        self.position = position


class ToggleWord:
    """A sequence of arc toggles on NC(n), stored in application order."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs_in_application_order=()):
        arcs = tuple(tuple(a) for a in arcs_in_application_order)
        for arc in arcs:
            if not (1 <= arc[0] < arc[1] <= n):
                raise ValueError(f"arc {arc} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)

    def __setattr__(self, name, value):
        raise AttributeError("ToggleWord is immutable")

    @classmethod
    def from_composition_order(cls, n: int, arcs) -> "ToggleWord":
        """Build from the written order, where the rightmost toggle acts first."""
        return cls(n, tuple(reversed(tuple(arcs))))

    @classmethod
    def from_text(cls, n: int, text: str) -> "ToggleWord":
        """Parse whitespace-separated ``i,j`` tokens in composition order."""
        arcs = []
        for pos, token in enumerate(text.split()):
            parts = token.strip("()").split(",")
            if len(parts) != 2:
                raise WordParseError(token, pos, "expected 'i,j'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise WordParseError(token, pos, "endpoints must be integers") from None
            if not (1 <= i < j <= n):
                raise WordParseError(token, pos, f"arc outside 1 <= i < j <= {n}")
            arcs.append((i, j))
        return cls.from_composition_order(n, arcs)

    def composition_order(self) -> tuple[Arc, ...]:
        return tuple(reversed(self.arcs))

    def to_text(self, application_order: bool = False) -> str:
        seq = self.arcs if application_order else self.composition_order()
        return " ".join(f"{i},{j}" for i, j in seq)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "composition_order": [list(a) for a in self.composition_order()],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ToggleWord":
        return cls.from_composition_order(
            int(obj["n"]), [tuple(a) for a in obj["composition_order"]]
        )

    def support(self) -> frozenset[Arc]:
        return frozenset(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToggleWord)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"ToggleWord.from_text({self.n}, {self.to_text()!r})"

    def apply(self, partition: NCPartition) -> NCPartition:
        return apply_word(self, partition)

    def stepper(self):
        """A mask -> mask callable applying this word, one state at a time."""
        return core.stepper(
            conflict_masks(self.n), [arc_index(self.n, a) for a in self.arcs]
        )

    def inverse(self) -> "ToggleWord":
        """The inverse word: same toggles in reverse application order."""
        return ToggleWord(self.n, tuple(reversed(self.arcs)))


def apply_word(word: ToggleWord, partition: NCPartition) -> NCPartition:
    """Apply ``word`` to ``partition`` (toggles in application order)."""
    if word.n != partition.n:
        raise ValueError(f"word is on [{word.n}] but partition on [{partition.n}]")
    return NCPartition._raw(word.n, word.stepper()(partition.mask))


def is_partial_coxeter(word: ToggleWord) -> bool:
    """True iff no arc appears more than once."""
    return len(set(word.arcs)) == len(word.arcs)


def is_coxeter(word: ToggleWord) -> bool:
    """True iff every arc of [n] appears exactly once."""
    return is_partial_coxeter(word) and len(word.arcs) == arc_slots(word.n)


@dataclass(frozen=True)
class Orientation:
    """An acyclic orientation of the base-graph subgraph on a word's support.

    ``edges`` holds directed pairs (a, b) meaning a is applied before b;
    only conflicting (non-commuting) pairs are recorded.  Two words induce
    the same orientation exactly when they are equal as permutations.
    """

    support: frozenset[Arc]
    edges: frozenset[tuple[Arc, Arc]]

    def sources(self) -> frozenset[Arc]:
        heads = {b for _, b in self.edges}
        return frozenset(self.support - heads)

    def sinks(self) -> frozenset[Arc]:
        tails = {a for a, _ in self.edges}
        return frozenset(self.support - tails)

    def flip_source(self, arc: Arc) -> "Orientation":
        """Convert a source into a sink by reversing all its edges."""
        if arc not in self.sources():
            raise ValueError(f"{arc} is not a source")
        flipped = frozenset(
            (b, a) if a == arc else (a, b) for a, b in self.edges
        )
        return Orientation(self.support, flipped)


def orientation_of(word: ToggleWord) -> Orientation:
    """Orientation induced by a partial Coxeter word (a -> b: a acts first)."""
    if not is_partial_coxeter(word):
        raise ValueError("orientation is only defined for partial Coxeter words")
    seq = word.arcs
    edges = set()
    for x in range(len(seq)):
        for y in range(x + 1, len(seq)):
            if arcs_conflict(seq[x], seq[y]):
                edges.add((seq[x], seq[y]))
    return Orientation(frozenset(seq), frozenset(edges))


def sources(word: ToggleWord) -> frozenset[Arc]:
    return orientation_of(word).sources()


def sinks(word: ToggleWord) -> frozenset[Arc]:
    return orientation_of(word).sinks()


def functionally_equal(w1: ToggleWord, w2: ToggleWord, limit: int | None = None) -> bool:
    """True iff the two words agree on every noncrossing partition of [n]."""
    if w1.n != w2.n:
        raise ValueError(f"words on different ground sets: {w1.n} vs {w2.n}")
    s1, s2 = w1.stepper(), w2.stepper()
    return all(s1(m) == s2(m) for m in enumerate_masks(w1.n, limit))


def admissible_conjugate(word: ToggleWord, arc: Arc) -> ToggleWord:
    """Conjugate a partial Coxeter word by one of its sources.

    The result realizes (toggle at arc) . word . (toggle at arc): the source
    moves from acting first, in some equivalent expression, to acting last.
    Support and partial-Coxeter-ness are preserved, and the orientation is
    that of ``word`` with the source turned into a sink.
    """
    srcs = sources(word)
    if arc not in srcs:
        raise ValueError(f"{arc} is not a source of the word (sources: {sorted(srcs)})")
    rest = tuple(a for a in word.arcs if a != arc)
    # arc is a source, so everything applied before it commutes with it and
    # it can be bubbled to the front; conjugating then cancels the two copies
    # at the front and appends one at the end.
    return ToggleWord(word.n, rest + (arc,))


def admissible_sequence_valid(word: ToggleWord, seq) -> bool:
    """Check that each arc in ``seq`` is a source of the successively conjugated word."""
    current = word
    for arc in seq:
        arc = tuple(arc)
        if arc not in sources(current):
            return False
        current = admissible_conjugate(current, arc)
    return True


def torically_equivalent(o1: Orientation, o2: Orientation, max_states: int = 200000) -> bool:
    """Whether o2 is reachable from o1 by source-to-sink flips.

    This is the forward direction only: reachability implies the induced
    words are conjugate, with no claim about the converse.
    """
    if o1.support != o2.support:
        return False
    seen = {o1.edges}
    frontier = [o1]
    while frontier:
        nxt = []
        for o in frontier:
            if o.edges == o2.edges:
                return True
            for s in o.sources():
                flipped = o.flip_source(s)
                if flipped.edges not in seen:
                    seen.add(flipped.edges)
                    nxt.append(flipped)
                    if len(seen) > max_states:
                        raise RuntimeError("toric reachability search too large")
        frontier = nxt
    return False


def row_word(n: int) -> ToggleWord:
    """Toggle every arc row by row: (1,2), (1,3), ..., (1,n), (2,3), ...

    Acting on a partition, this word is the inverse of Kreweras
    complementation followed by the relabeling i -> i+1 (mod n).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return ToggleWord(n, tuple(index_arc(n, k) for k in range(arc_slots(n))))


def column_word(n: int) -> ToggleWord:
    """Toggle every arc column by column: (1,2), (1,3), (2,3), (1,4), ...

    Equal to :func:`row_word` as a permutation: both are linear extensions
    of the orientation pointing every base-graph edge east, south, and
    southeast on the triangular grid.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return ToggleWord(
        n, tuple((i, j) for j in range(2, n + 1) for i in range(1, j))
    )


def kreweras_inverse_word(n: int) -> ToggleWord:
    """The word computing the inverse Kreweras complement; same as row_word."""
    return row_word(n)


def kreweras_word(n: int) -> ToggleWord:
    """The word computing the Kreweras complement: row_word reversed."""
    return row_word(n).inverse()

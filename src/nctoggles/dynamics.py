"""Orbit decomposition and exact homomesy verification.

A statistic f is homomesic under a bijection T of a finite set when the
average of f over every T-orbit is the same constant c ("c-mesic").  All
arithmetic here is exact; homomesy is never a floating-point comparison.
Statistics compile to integer term lists (:meth:`Statistic.compile`), a
report keeps each orbit's integer sum, and its verdict compares orbit
averages by integer cross-multiplication.  The reports list no orbit: they
read orbit sizes and per-orbit popcount sums off the word's image
(:func:`orbit_sums`, on :func:`nctoggles.core.orbit_sums`), and so do the
even-orbit check, which lists an orbit only as its witness, and the
conjugation check, which compares images.  The
``averages`` Fractions are built on first read.  :meth:`Statistic.evaluate`
and :func:`orbit_average` work one partition at a time in Fractions and
stay the oracle.

The central facts verified by this module: for any partial Coxeter word
containing every short arc (i, i+1), the arc count is (n-1)/2-mesic and the
block count (n+1)/2-mesic; the weighted indicators psi_k are 1-mesic; and
per-orbit sums of single-arc indicators are preserved by admissible
conjugation.  Single-arc indicators themselves are in general not
homomesic, and the smallest counterexample lives in NC(3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import core, ncpartition
from .core import _word_image, toggle_pairs, word_orbit_sums, word_orbits
from .ncpartition import (
    Arc,
    NCPartition,
    arc_index,
    arc_slots,
    catalan,
    enumerate_masks,
    index_arc,
)
from .toggles import counts
from .words import ToggleWord, admissible_conjugate


def _arc_word(word: ToggleWord, limit: int | None) -> tuple:
    """``(adj, slots, states)`` of ``word`` on NC(n) for the core engine,
    with ``limit`` the enumeration ceiling, checked before any table is
    built or numpy imported.  On either engine each swap table must hold
    the pairs of the closed form :func:`nctoggles.toggles.counts`, which
    counts NC(n): an enumeration of another length than catalan(n) is
    broken already, and is left for verify's checks to report."""
    n = word.n
    states = enumerate_masks(n, limit)
    adj, slots = ncpartition.conflict_masks(n), [arc_index(n, arc) for arc in word.arcs]
    tables = toggle_pairs(adj, slots, states)
    if len(states) == catalan(n):
        pairs = _arc_pairs(n)
        for k, table in tables.items():
            if len(table) != 2 * pairs[k]:
                raise RuntimeError(
                    f"arc slot {k} of NC({n}) swaps {len(table) // 2} pairs, not {pairs[k]}"
                )
    return adj, slots, states


@lru_cache(maxsize=None)
def _arc_pairs(n: int) -> tuple[int, ...]:
    arcs = (index_arc(n, k) for k in range(arc_slots(n)))
    return tuple(counts(n, i, j - i).containing for i, j in arcs)


def orbit_masks(word: ToggleWord, limit: int | None = None) -> list[list[int]]:
    """Orbits of a toggle word on NC(n), as lists of partition bitsets, in
    :func:`nctoggles.core.cycles` order; ``limit`` is the enumeration
    ceiling.  ``ToggleWord.stepper`` is the test oracle."""
    return word_orbits(*_arc_word(word, limit))


def orbit_sums(
    word: ToggleWord, masks, limit: int | None = None
) -> tuple[list[int], list[list[int]]]:
    """The sizes of :func:`orbit_masks`' orbits, in the same order, and for
    each mask M in ``masks`` the per-orbit sums of ``(x & M).bit_count()``,
    with no orbit listed (:func:`nctoggles.core.word_orbit_sums`)."""
    return word_orbit_sums(*_arc_word(word, limit), masks)


def orbit_sizes(word: ToggleWord, limit: int | None = None) -> list[int]:
    """The sizes of :func:`orbit_masks`' orbits, in the same order."""
    return orbit_sums(word, (), limit)[0]


def word_image(word: ToggleWord, limit: int | None = None):
    """``word`` as a permutation of the indices of ``enumerate_masks(n)``,
    for :func:`nctoggles.core.orbit_sums` over columns of one value per
    state; ``limit`` is the enumeration ceiling."""
    return _word_image(*_arc_word(word, limit))


@dataclass(frozen=True)
class Orbit:
    """A cyclically ordered orbit; the word maps each element to the next.

    The listing starts at the canonically least element (lexicographic on
    sorted arc lists), which makes orbit reports reproducible across runs.
    """

    elements: tuple[NCPartition, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def orbits(word: ToggleWord, limit: int | None = None) -> list[Orbit]:
    """Orbit decomposition of NC(n) under ``word``; sizes sum to catalan(n)."""
    return [
        Orbit(tuple(NCPartition._raw(word.n, m) for m in masks))
        for masks in orbit_masks(word, limit)
    ]


# --- statistics ------------------------------------------------------------

_Key = tuple

#: A statistic as integer data, ``(den, const, terms)`` with ``terms`` a
#: tuple of ``(mask, weight)`` pairs (see :meth:`Statistic.compile`).
_LinearForm = tuple[int, int, tuple[tuple[int, int], ...]]

#: Number of indices each basis tag takes: chi(i, j), psi(k), the rest none.
_ARITY = {"alpha": 0, "beta": 0, "card": 0, "chi": 2, "psi": 1}


def psi_terms(adj, v: int, weight: int = 1) -> tuple[tuple[int, int], ...]:
    """psi_v, times ``weight``, as popcount terms ``(mask, weight)`` over
    the graph table ``adj``: twice whether v is in the set, plus how many
    of its neighbours are.  On the base graph of NC(n), psi_k is psi_v at
    the short arc (k, k+1)."""
    return ((1 << v, 2 * weight), (adj[v], weight))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Statistic:
    """A formal rational-linear combination of basic partition statistics.

    Basis elements: ``alpha`` (arc count), ``beta`` (block count), ``card``
    (cardinality of the arc set, the independent-set view of alpha),
    ``chi(i, j)`` (indicator of one arc), and ``psi(k)`` (twice the short
    arc (k, k+1) plus all other arcs sharing its left endpoint k or right
    endpoint k+1; always 0, 1, or 2).  Statistics add and scale, and
    evaluate to exact rationals.
    """

    terms: tuple[tuple[_Key, Fraction], ...]

    def __init__(self, terms: dict[_Key, Fraction]):
        for key in terms:
            if not key or _ARITY.get(key[0]) != len(key) - 1:
                raise ValueError(f"unknown statistic key {key}")
        cleaned = {
            key: Fraction(coeff) for key, coeff in terms.items() if coeff != 0
        }
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    @classmethod
    def alpha(cls) -> "Statistic":
        return cls({("alpha",): Fraction(1)})

    @classmethod
    def beta(cls) -> "Statistic":
        return cls({("beta",): Fraction(1)})

    @classmethod
    def card(cls) -> "Statistic":
        return cls({("card",): Fraction(1)})

    @classmethod
    def chi(cls, i: int, j: int) -> "Statistic":
        return cls({("chi", i, j): Fraction(1)})

    @classmethod
    def psi(cls, k: int) -> "Statistic":
        return cls({("psi", k): Fraction(1)})

    def evaluate(self, partition: NCPartition) -> Fraction:
        n, mask = partition.n, partition.mask
        total = Fraction(0)
        for key, coeff in self.terms:
            tag = key[0]
            if tag in ("alpha", "card"):
                value = mask.bit_count()
            elif tag == "beta":
                value = n - mask.bit_count()
            elif tag == "chi":
                _, i, j = key
                if not (1 <= i < j <= n):
                    raise ValueError(f"chi index ({i},{j}) out of range for n={n}")
                value = mask >> arc_index(n, (i, j)) & 1
            else:  # psi; construction admits no other tag
                k = key[1]
                if not (1 <= k <= n - 1):
                    raise ValueError(f"psi index {k} out of range for n={n}")
                # psi_k is psi_v of the base graph at the short arc (k, k+1).
                s = arc_index(n, (k, k + 1))
                nbrs = ncpartition.conflict_masks(n)[s]
                value = 2 * (mask >> s & 1) + (mask & nbrs).bit_count()
            total += coeff * value
        return total

    def compile(self, n: int) -> _LinearForm:
        """The integer linear form ``(den, const, terms)`` of the statistic
        on NC(n): at state x, ``Fraction(const + sum(w * (x & M).bit_count()
        for M, w in terms), den)`` equals :meth:`evaluate`.  Each basis element
        is a popcount over a mask M (all arcs, one arc, or for psi_k the short
        arc twice and its base-graph neighbours); a bad index raises as there.
        """
        den = lcm(*(coeff.denominator for _, coeff in self.terms))
        full, const, parts = (1 << arc_slots(n)) - 1, 0, []
        for key, coeff in self.terms:
            tag, c = key[0], int(coeff * den)
            if tag == "beta":
                const, c = const + n * c, -c
            if tag in ("alpha", "card", "beta"):
                parts.append((full, c))
            elif tag == "chi":
                _, i, j = key
                if not (1 <= i < j <= n):
                    raise ValueError(f"chi index ({i},{j}) out of range for n={n}")
                parts.append((1 << arc_index(n, (i, j)), c))
            else:  # psi
                k = key[1]
                if not (1 <= k <= n - 1):
                    raise ValueError(f"psi index {k} out of range for n={n}")
                parts += psi_terms(ncpartition.conflict_masks(n), arc_index(n, (k, k + 1)), c)
        weights: dict[int, int] = {}
        for mask, w in parts:  # one term per mask, zero weights dropped
            weights[mask] = weights.get(mask, 0) + w
        return den, const, tuple((m, w) for m, w in weights.items() if w)

    def __add__(self, other: "Statistic") -> "Statistic":
        merged = dict(self.terms)
        for key, coeff in other.terms:
            merged[key] = merged.get(key, Fraction(0)) + coeff
        return Statistic(merged)

    def __sub__(self, other: "Statistic") -> "Statistic":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Statistic":
        c = Fraction(scalar)
        return Statistic({key: c * coeff for key, coeff in self.terms})

    __mul__ = __rmul__

    def label(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.terms:
            name = key[0] if len(key) == 1 else f"{key[0]}:{','.join(map(str, key[1:]))}"
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        return " + ".join(parts)

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"<Statistic {self.label()}>"


def parse_statistic(spec: str) -> Statistic:
    """Parse CLI statistic specs: alpha | beta | card | chi:i,j | psi:k."""
    spec = spec.strip()
    if spec in ("alpha", "beta", "card"):
        return Statistic({(spec,): 1})
    if spec.startswith("chi:"):
        try:
            i, j = (int(v) for v in spec[4:].split(","))
        except ValueError:
            raise ValueError(f"expected chi:i,j, got {spec!r}") from None
        return Statistic.chi(i, j)
    if spec.startswith("psi:"):
        try:
            k = int(spec[4:])
        except ValueError:
            raise ValueError(f"expected psi:k, got {spec!r}") from None
        return Statistic.psi(k)
    raise ValueError(f"unknown statistic {spec!r}")


def orbit_average(stat: Statistic, orbit: Orbit) -> Fraction:
    """Exact mean of a statistic over one orbit, one state at a time: the
    oracle for the reports, which sum :meth:`Statistic.compile` over bitsets."""
    return sum((stat.evaluate(p) for p in orbit.elements), Fraction(0)) / len(
        orbit.elements
    )


# --- reports ---------------------------------------------------------------


@dataclass(frozen=True)
class HomomesyReport:
    """Per-orbit sums of one statistic under one word, and the verdict read
    off them.

    ``sums[i]`` is ``den`` times the statistic summed over orbit i, an
    integer, so orbit i averages ``sums[i] / (den * orbit_sizes[i])``.
    ``homomesic`` is True when all orbit averages agree; ``mean`` then holds
    the common value.  Otherwise ``counterexample`` names the first two
    orbits (by index) whose averages differ.  Both are decided by integer
    cross-multiplication, once: the index of the first orbit off orbit 0's
    average is cached on first read, as are the ``averages`` Fractions.
    ``precondition`` is None when the hypotheses of the theorem being
    probed hold, else a message — the check still runs, because probing a
    theorem outside its hypotheses is exactly how counterexamples are found.
    """

    word: str
    statistic: str
    space: str
    orbit_sizes: tuple[int, ...]
    sums: tuple[int, ...]
    den: int
    expected_mean: Fraction | None = None
    precondition: str | None = None
    sub_reports: tuple["HomomesyReport", ...] = ()

    @cached_property
    def averages(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(
            Fraction(t, den * s) for t, s in zip(self.sums, self.orbit_sizes)
        )

    @cached_property
    def _first_unequal(self) -> int | None:
        """Index of the first orbit whose average differs from orbit 0's:
        t_i / s_i != t_0 / s_0 exactly when t_i * s_0 != t_0 * s_i."""
        if not self.sums:
            return None
        t0, s0 = self.sums[0], self.orbit_sizes[0]
        for i, (t, s) in enumerate(zip(self.sums, self.orbit_sizes)):
            if t * s0 != t0 * s:
                return i
        return None

    @property
    def homomesic(self) -> bool:
        return self._first_unequal is None

    @property
    def mean(self) -> Fraction | None:
        if not self.sums or not self.homomesic:
            return None
        return Fraction(self.sums[0], self.den * self.orbit_sizes[0])

    @property
    def counterexample(self) -> tuple[int, int] | None:
        j = self._first_unequal
        return None if j is None else (0, j)

    @property
    def holds(self) -> bool:
        """Homomesic, with the expected mean if one was stated, hypotheses met."""
        return (
            self.precondition is None
            and self.homomesic
            and (self.expected_mean is None or self.mean == self.expected_mean)
        )

    @property
    def verdict(self) -> str:
        if self.precondition is not None:
            return f"precondition unmet: {self.precondition}"
        if self.homomesic:
            return f"{self.mean}-mesic"
        i, j = self.counterexample
        return (
            f"not homomesic: orbit {i} averages {self.averages[i]}, "
            f"orbit {j} averages {self.averages[j]}"
        )

    def to_json_dict(self) -> dict:
        out = {
            "word": self.word,
            "statistic": self.statistic,
            "space": self.space,
            "orbits": [
                {"size": size, "average": str(avg)}
                for size, avg in zip(self.orbit_sizes, self.averages)
            ],
            "homomesic": self.homomesic,
            "mean": None if self.mean is None else str(self.mean),
            "verdict": self.verdict,
        }
        if self.expected_mean is not None:
            out["expected_mean"] = str(self.expected_mean)
        if self.precondition is not None:
            out["precondition"] = self.precondition
        if self.sub_reports:
            out["sub_reports"] = [r.to_json_dict() for r in self.sub_reports]
        return out

    def to_text_table(self) -> str:
        header = f"word: {self.word}\nstatistic: {self.statistic} on {self.space}"
        rows = [("orbit", "size", "average")]
        for idx, (size, avg) in enumerate(zip(self.orbit_sizes, self.averages)):
            rows.append((str(idx), str(size), str(avg)))
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        body = "\n".join(
            "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row))
            for row in rows
        )
        return f"{header}\n{body}\nverdict: {self.verdict}"


def stat_masks(stats: list[tuple[str, _LinearForm, Fraction | None]]) -> list[int]:
    """The distinct masks of the statistics' terms, in order of first use:
    the popcount columns :func:`homomesy_report` reads its sums from."""
    return list(dict.fromkeys(m for _, (_, _, terms), _ in stats for m, _ in terms))


def homomesy_report(
    word: str, space: str, sizes: list[int], mask_sums: list[list[int]],
    stats: list[tuple[str, _LinearForm, Fraction | None]],
    precondition: str | None = None,
) -> HomomesyReport:
    """The first statistic's report over orbits of bitsets (of NC(n) or of a
    graph), with the others' as its sub-reports.  A statistic is ``(label,
    (den, const, terms), expected_mean)``, the integer linear form of
    :meth:`Statistic.compile`.  ``sizes`` are the orbit sizes, and
    ``mask_sums[i]`` holds, for the i-th mask M of :func:`stat_masks`, the
    sum of ``(x & M).bit_count()`` over each orbit, as
    :func:`orbit_sums` gives them; each is shared by every statistic that
    uses its mask.
    """
    sizes = tuple(sizes)
    popcounts = dict(zip(stat_masks(stats), mask_sums))

    def report(label, form, expected_mean, sub_reports=()) -> HomomesyReport:
        den, const, terms = form
        sums = [const * s for s in sizes]
        for mask, w in terms:
            sums = [t + w * p for t, p in zip(sums, popcounts[mask])]
        return HomomesyReport(
            word, label, space, sizes, tuple(sums), den, expected_mean, precondition,
            sub_reports,
        )

    first, *rest = stats
    return report(*first, tuple(report(*stat) for stat in rest))


def check_homomesy(
    word: ToggleWord, stat: Statistic, limit: int | None = None
) -> HomomesyReport:
    """Decide whether ``stat`` is homomesic under ``word`` on NC(n)."""
    # The ceiling is checked before compile, so a ceiling error wins over a
    # bad index.
    enumerate_masks(word.n, limit)
    stats = [(stat.label(), stat.compile(word.n), None)]
    sizes, sums = orbit_sums(word, stat_masks(stats), limit)
    return homomesy_report(word.to_text(), f"NC({word.n})", sizes, sums, stats)


def theorem_report(
    letters: tuple, letter: str, missing: list, required: str, *report
) -> HomomesyReport:
    """:func:`homomesy_report` of ``report``, ``(word, space, sizes,
    mask_sums, stats)``, under a homomesy theorem whose hypotheses are that
    the word, with ``letters`` in application order, repeats no ``letter``
    (it is partial Coxeter) and contains every ``required`` letter;
    ``missing`` lists those it lacks.  Unmet hypotheses become the report's
    precondition.  The paper's two theorems, on NC(n) and on 2-cliquish
    graphs, share it."""
    problems = []
    if len(set(letters)) != len(letters):
        problems.append(f"word repeats {letter} (not partial Coxeter)")
    if missing:
        problems.append(f"word is missing {required} {missing}")
    return homomesy_report(*report, "; ".join(problems) or None)


def verify_arc_count_theorem(word: ToggleWord, sums=None) -> HomomesyReport:
    """Check that arc count is (n-1)/2-mesic and block count (n+1)/2-mesic.

    The hypotheses — the word is partial Coxeter and contains every short
    arc (i, i+1) — are recorded in the report when unmet, and the averages
    are still computed so near-misses can be inspected.  ``sums``, when
    given, are the word's orbit sizes and ``[arc counts summed over each
    orbit]``, as :func:`nctoggles.core.orbit_sums` gives them on its image;
    else they are computed here.
    """
    n, support = word.n, word.support()
    missing = [(i, i + 1) for i in range(1, n) if (i, i + 1) not in support]
    # Statistic.alpha().compile(n) and Statistic.beta().compile(n).
    full = (1 << arc_slots(n)) - 1
    alpha, beta = (1, 0, ((full, 1),)), (1, n, ((full, -1),))
    stats = [("alpha", alpha, Fraction(n - 1, 2)), ("beta", beta, Fraction(n + 1, 2))]
    return theorem_report(
        word.arcs, "an arc", missing, "short arcs", word.to_text(), f"NC({n})",
        *(sums or orbit_sums(word, stat_masks(stats))), stats,
    )


def even_orbits_check(word: ToggleWord) -> tuple[bool, Orbit | None]:
    """For even n: every orbit size should be even; returns a witness if not,
    the first odd orbit, listed only then."""
    if word.n % 2 != 0:
        raise ValueError(f"even-orbit check needs even n, got {word.n}")
    for index, size in enumerate(orbit_sizes(word)):
        if size % 2 != 0:
            return False, orbits(word)[index]
    return True, None


def chi_sum_conjugation_check(word: ToggleWord, arc: Arc) -> bool:
    """Verify conjugation by a source maps orbits to orbits of equal size
    with identical per-arc indicator sums, on the words' images.

    With F the toggle at the source, the conjugate of the word T is
    T' = F T F.  The check first requires T' F = F T on every state index,
    so that F carries each orbit O of T onto an orbit F(O) of T' of the
    same size.  F changes only the source's indicator, so the sums over O
    and F(O) then agree exactly when F adds the source on O as often as it
    removes it: as many states of O hold it as are free to take it (its
    toggleability sums to 0 on O).  Raises if ``arc`` is not a source (the
    conjugation must be admissible).
    """
    conjugate = admissible_conjugate(word, tuple(arc))  # raises if not a source
    n, k = word.n, arc_index(word.n, tuple(arc))
    image, conj, flip = map(word_image, (word, conjugate, ToggleWord(n, [arc])))
    if [conj[i] for i in flip] != [flip[i] for i in image]:
        return False
    blocked = 1 << k | ncpartition.conflict_masks(n)[k]
    states = enumerate_masks(n)
    held = [m >> k & 1 for m in states]
    free = [not m & blocked for m in states]
    _, (removed, added) = core.orbit_sums(image, [held, free])
    return removed == added

"""Orbit decomposition and exact homomesy verification.

A statistic f is homomesic under a bijection T of a finite set when the
average of f over every T-orbit is the same constant c ("c-mesic").  All
averages here are exact rationals; homomesy is an equality of fractions,
never a floating-point comparison.

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

from .core import cycles, stepper
from .ncpartition import (
    Arc,
    NCPartition,
    arc_index,
    arc_slots,
    conflict_masks,
    enumerate_masks,
)
from .toggles import toggle_pairs
from .words import ToggleWord, admissible_conjugate, is_partial_coxeter


def orbit_masks(word: ToggleWord, limit: int | None = None) -> list[list[int]]:
    """Orbits of a toggle word on NC(n), as lists of partition bitsets.

    The word acts on state indices: each toggle is a list of index swaps
    (:func:`toggle_pairs`), built afresh on every call.  Orbits come out
    as :func:`nctoggles.core.cycles` orders them.  ``ToggleWord.stepper``
    computes the same map one state at a time and serves as the test
    oracle.
    """
    n = word.n
    states = enumerate_masks(n, limit)
    slots = [arc_index(n, arc) for arc in word.arcs]
    tables = toggle_pairs(n, slots, limit)
    # Swapping entries i, j of an array holding a map g, for every pair of a
    # toggle t, leaves it holding g . t.  Going through the word backwards
    # from the identity therefore ends with image[i] = index of word(state i).
    image = list(range(len(states)))
    for k in reversed(slots):
        pairs = iter(tables[k])
        for i, j in zip(pairs, pairs):
            image[i], image[j] = image[j], image[i]
    del tables  # freed before the orbit lists grow, to lower peak memory
    return cycles(states, image)


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


class Statistic:
    """A formal rational-linear combination of basic partition statistics.

    Basis elements: ``alpha`` (arc count), ``beta`` (block count), ``card``
    (cardinality of the arc set, the independent-set view of alpha),
    ``chi(i, j)`` (indicator of one arc), and ``psi(k)`` (twice the short
    arc (k, k+1) plus all other arcs sharing its left endpoint k or right
    endpoint k+1; always 0, 1, or 2).  Statistics add and scale, and
    evaluate to exact rationals.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[_Key, Fraction]):
        cleaned = {
            key: Fraction(coeff) for key, coeff in terms.items() if coeff != 0
        }
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Statistic is immutable")

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
            elif tag == "psi":
                k = key[1]
                if not (1 <= k <= n - 1):
                    raise ValueError(f"psi index {k} out of range for n={n}")
                # psi_k is psi_v of the base graph at the short arc (k, k+1).
                s = arc_index(n, (k, k + 1))
                nbrs = conflict_masks(n)[s]
                value = 2 * (mask >> s & 1) + (mask & nbrs).bit_count()
            else:  # pragma: no cover - construction prevents this
                raise ValueError(f"unknown statistic key {key}")
            total += coeff * value
        return total

    def __call__(self, partition: NCPartition) -> Fraction:
        return self.evaluate(partition)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Statistic) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"<Statistic {self.label()}>"


def parse_statistic(spec: str) -> Statistic:
    """Parse CLI statistic specs: alpha | beta | card | chi:i,j | psi:k."""
    spec = spec.strip()
    if spec == "alpha":
        return Statistic.alpha()
    if spec == "beta":
        return Statistic.beta()
    if spec == "card":
        return Statistic.card()
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


def eval_statistic(stat: Statistic, partition: NCPartition) -> Fraction:
    """Evaluate a statistic at one partition, exactly."""
    return stat.evaluate(partition)


def orbit_average(stat: Statistic, orbit: Orbit) -> Fraction:
    """Exact mean of a statistic over one orbit."""
    return sum((stat.evaluate(p) for p in orbit.elements), Fraction(0)) / len(
        orbit.elements
    )


# --- reports ---------------------------------------------------------------


@dataclass(frozen=True)
class HomomesyReport:
    """Per-orbit averages of one statistic under one word, and the verdict
    read off them.

    ``homomesic`` is True when all orbit averages agree; ``mean`` then holds
    the common value.  Otherwise ``counterexample`` names the first two
    orbits (by index) whose averages differ.  ``precondition`` is None when
    the hypotheses of the theorem being probed hold, else a message — the
    check still runs, because probing a theorem outside its hypotheses is
    exactly how counterexamples are found.
    """

    word: str
    statistic: str
    space: str
    orbit_sizes: tuple[int, ...]
    averages: tuple[Fraction, ...]
    expected_mean: Fraction | None = None
    precondition: str | None = None
    sub_reports: tuple["HomomesyReport", ...] = ()

    @property
    def homomesic(self) -> bool:
        # count() compares by equality; hashing every Fraction costs more.
        averages = self.averages
        return not averages or averages.count(averages[0]) == len(averages)

    @property
    def mean(self) -> Fraction | None:
        return self.averages[0] if self.homomesic and self.averages else None

    @property
    def counterexample(self) -> tuple[int, int] | None:
        if self.homomesic:
            return None
        first = self.averages[0]
        return 0, next(i for i, a in enumerate(self.averages) if a != first)

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


def _report(
    word: ToggleWord,
    stat: Statistic,
    stat_label: str,
    orbit_list: list[Orbit],
    expected_mean: Fraction | None = None,
    precondition: str | None = None,
    sub_reports: tuple[HomomesyReport, ...] = (),
) -> HomomesyReport:
    return HomomesyReport(
        word=word.to_text(),
        statistic=stat_label,
        space=f"NC({word.n})",
        orbit_sizes=tuple(o.size for o in orbit_list),
        averages=tuple(orbit_average(stat, o) for o in orbit_list),
        expected_mean=expected_mean,
        precondition=precondition,
        sub_reports=sub_reports,
    )


def check_homomesy(
    word: ToggleWord,
    stat: Statistic,
    limit: int | None = None,
    expected_mean: Fraction | None = None,
) -> HomomesyReport:
    """Decide whether ``stat`` is homomesic under ``word`` on NC(n)."""
    return _report(word, stat, stat.label(), orbits(word, limit), expected_mean)


def contains_all_short_arcs(word: ToggleWord) -> bool:
    support = word.support()
    return all((i, i + 1) in support for i in range(1, word.n))


def verify_arc_count_theorem(
    word: ToggleWord, limit: int | None = None
) -> HomomesyReport:
    """Check that arc count is (n-1)/2-mesic and block count (n+1)/2-mesic.

    The hypotheses — the word is partial Coxeter and contains every short
    arc (i, i+1) — are recorded in the report when unmet, and the averages
    are still computed so near-misses can be inspected.
    """
    n = word.n
    problems = []
    if not is_partial_coxeter(word):
        problems.append("word repeats an arc (not partial Coxeter)")
    if not contains_all_short_arcs(word):
        missing = sorted(
            (i, i + 1) for i in range(1, n) if (i, i + 1) not in word.support()
        )
        problems.append(f"word is missing short arcs {missing}")
    precondition = "; ".join(problems) or None
    orbit_list = orbits(word, limit)
    beta_report = _report(
        word,
        Statistic.beta(),
        "beta",
        orbit_list,
        expected_mean=Fraction(n + 1, 2),
        precondition=precondition,
    )
    return _report(
        word,
        Statistic.alpha(),
        "alpha",
        orbit_list,
        expected_mean=Fraction(n - 1, 2),
        precondition=precondition,
        sub_reports=(beta_report,),
    )


def even_orbits_check(
    word: ToggleWord, limit: int | None = None
) -> tuple[bool, Orbit | None]:
    """For even n: every orbit size should be even; returns a witness if not."""
    if word.n % 2 != 0:
        raise ValueError(f"even-orbit check needs even n, got {word.n}")
    for orbit in orbits(word, limit):
        if orbit.size % 2 != 0:
            return False, orbit
    return True, None


def chi_sums_by_orbit(
    masks_orbits: list[list[int]], n: int
) -> list[tuple[int, ...]]:
    """Per-orbit vectors of single-arc indicator sums, one entry per arc slot."""
    slots = arc_slots(n)
    out = []
    for orbit in masks_orbits:
        sums = [0] * slots
        for mask in orbit:
            rest = mask
            while rest:
                low = rest & -rest
                sums[low.bit_length() - 1] += 1
                rest ^= low
        out.append(tuple(sums))
    return out


def chi_sum_conjugation_check(
    word: ToggleWord, arc: Arc, limit: int | None = None
) -> bool:
    """Verify conjugation by a source maps orbits to orbits of equal size
    with identical per-arc indicator sums.

    The orbit correspondence sends an orbit O of the word to the image of O
    under the conjugating toggle, which is an orbit of the conjugated word.
    Raises if ``arc`` is not a source (the conjugation must be admissible).
    """
    conjugate = admissible_conjugate(word, tuple(arc))  # raises if not a source
    n = word.n
    k = arc_index(n, tuple(arc))
    orig = orbit_masks(word, limit)
    conj = orbit_masks(conjugate, limit)
    conj_by_members = {frozenset(o): idx for idx, o in enumerate(conj)}
    orig_sums = chi_sums_by_orbit(orig, n)
    conj_sums = chi_sums_by_orbit(conj, n)
    flip = stepper(conflict_masks(n), [k])
    for idx, orbit in enumerate(orig):
        image = frozenset(map(flip, orbit))
        target = conj_by_members.get(image)
        if target is None:
            return False
        if len(conj[target]) != len(orbit):
            return False
        if conj_sums[target] != orig_sums[idx]:
            return False
    return True

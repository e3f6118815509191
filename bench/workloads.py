"""The four benchmark workloads: seeded inputs, the ops, and the verdict gate.

Every op ends in an exact verdict, and ``Workload.gate`` compares it with a
known answer held in ``Workload.expected``.  A wrong or missing verdict
counts as a failed op.  Inputs depend only on the seed and the scale:
``full`` is the measured size, ``toy`` the size the smoke test runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations

from nctoggles import cli, indsets, ncpartition, toggles, verify, words

def run_cli(argv: list[str]) -> tuple[int, str]:
    """``nctoggles <argv>`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Inputs for one seed plus the ops and the gate that judges them.

    ``ops()`` runs one pass and returns one outcome per verdict;
    ``gate(outcomes)`` returns one bool per verdict.  ``states_per_pass``
    counts the states the pass pushes through a toggle word, from the
    stated input sizes; ``warm_ns`` are the n whose enumeration set-up warms.
    """

    name = ""
    warm_ns: tuple[int, ...] = ()
    states_per_pass = 0
    expected: dict = {}

    def ops(self) -> list:
        raise NotImplementedError

    def gate(self, outcomes: list) -> list[bool]:
        raise NotImplementedError

    def warm(self) -> None:
        for n in self.warm_ns:
            ncpartition.enumerate_masks(n)


# --- nc_orbits -------------------------------------------------------------


def commutation_shuffle(word: words.ToggleWord, rng: random.Random) -> words.ToggleWord:
    """A random word equal to ``word`` as a permutation.

    Toggles keep their relative order only when they do not commute, so the
    result is a random linear extension of the word's commutation order.
    """
    arcs = list(word.arcs)
    preds = [
        {j for j in range(i) if not toggles.commutes(arcs[j], arcs[i])}
        for i in range(len(arcs))
    ]
    placed: set[int] = set()
    order = []
    while len(order) < len(arcs):
        ready = [i for i in range(len(arcs)) if i not in placed and preds[i] <= placed]
        pick = rng.choice(ready)
        placed.add(pick)
        order.append(arcs[pick])
    return words.ToggleWord(word.n, order)


class NcOrbits(Workload):
    """``nctoggles orbits n --word W --sizes-only --format json`` on a
    commutation shuffle of the row word, so every seed gives the same orbits."""

    name = "nc_orbits"

    def __init__(self, seed: int, scale: str = "full"):
        self.n = 12 if scale == "full" else 5
        self.word = commutation_shuffle(words.row_word(self.n), random.Random(seed))
        self.warm_ns = (self.n,)
        self.states_per_pass = ncpartition.catalan(self.n)
        self.expected = {
            "orbit_count": 8714 if scale == "full" else 6,
            "states": 208012 if scale == "full" else 42,
        }
        self.argv = [
            "orbits", str(self.n), "--word", self.word.to_text(),
            "--sizes-only", "--format", "json",
        ]
        self.reference: str | None = None

    def ops(self) -> list:
        return [run_cli(self.argv)]

    def gate(self, outcomes: list) -> list[bool]:
        verdicts = []
        for code, text in outcomes:
            if self.reference is None:
                self.reference = text
            try:
                result = json.loads(text)["result"]
                ok = (
                    code == 0
                    and result["orbit_count"] == self.expected["orbit_count"]
                    and len(result["sizes"]) == self.expected["orbit_count"]
                    and sum(result["sizes"]) == self.expected["states"]
                    and text == self.reference
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            verdicts.append(ok)
        return verdicts


# --- nc_homomesy -----------------------------------------------------------


def qualifying_word(rng: random.Random, n: int, length: int) -> words.ToggleWord:
    """The first ``verify.sample_qualifying_word`` draw of the given length.

    Pinning the length keeps the image-pass work the same for every seed.
    """
    while True:
        word = verify.sample_qualifying_word(rng, n)
        if len(word) == length:
            return word


class NcHomomesy(Workload):
    """Four ``nctoggles homomesy n --word W --stat S --format json`` calls
    on one seeded qualifying word: alpha, beta and psi_k hold, chi(1,n) fails."""

    name = "nc_homomesy"

    def __init__(self, seed: int, scale: str = "full"):
        n = self.n = 11 if scale == "full" else 5
        self.word = qualifying_word(random.Random(seed), n, 28 if scale == "full" else 7)
        self.warm_ns = (n,)
        k = n // 2
        # stat -> (exit code, mean); mean None means "not homomesic".
        self.expected = {
            "alpha": (0, str(Fraction(n - 1, 2))),
            "beta": (0, str(Fraction(n + 1, 2))),
            f"psi:{k}": (0, "1"),
            f"chi:1,{n}": (1, None),
        }
        self.states_per_pass = len(self.expected) * ncpartition.catalan(n)
        self.text = self.word.to_text()

    def ops(self) -> list:
        return [
            run_cli(["homomesy", str(self.n), "--word", self.text,
                     "--stat", stat, "--format", "json"])
            for stat in self.expected
        ]

    def gate(self, outcomes: list) -> list[bool]:
        verdicts = []
        for (code, text), (want_code, want_mean) in zip(outcomes, self.expected.values()):
            try:
                result = json.loads(text)["result"]
                ok = code == want_code and result["mean"] == want_mean
                if want_mean is None:
                    ok = ok and result["verdict"].startswith("not homomesic")
                ok = ok and result["homomesic"] is (want_mean is not None)
            except (ValueError, KeyError, TypeError, AttributeError):
                ok = False
            verdicts.append(ok)
        verdicts += [False] * (len(self.expected) - len(outcomes))
        return verdicts


# --- verify_sweep ----------------------------------------------------------


def verify_checks(max_n, num_words, seed):
    """``verify.run_all``'s checks with its arguments, as (name, thunk) pairs."""

    def cap(default: int, floor: int = 2) -> int:
        return default if max_n is None else max(floor, min(default, max_n))

    evens = tuple(n for n in (4, 6, 8) if max_n is None or n <= max(4, max_n))
    return [
        ("catalan_counts", lambda: verify.check_catalan_counts(cap(12, 4))),
        ("nc4_sample_word", verify.check_nc4_sample_word),
        ("nc6_coxeter_orbit_sizes", verify.check_nc6_orbit_sizes),
        ("arc_count_homomesy",
         lambda: verify.check_arc_count_homomesy(3, cap(8, 3), num_words, seed)),
        ("psi_balance", lambda: verify.check_psi_balance(3, cap(8, 3), num_words, seed)),
        ("pair_orders", lambda: verify.check_pair_orders(cap(6, 3))),
        ("arc_containment_counts", lambda: verify.check_arc_containment_counts(cap(10, 3))),
        ("kreweras_agreement", lambda: verify.check_kreweras_agreement(cap(8, 3))),
        ("row_column_identity", lambda: verify.check_row_column_identity(cap(7, 3))),
        ("even_orbits", lambda: verify.check_even_orbits(evens, num_words, seed)),
        ("chi13_negative_control", verify.check_chi13_negative_control),
        ("independent_set_generalization",
         lambda: verify.check_independent_set_generalization(cap(6, 3), 20, seed)),
        ("skeletal_multigraph_bijection", lambda: verify.check_skeletal_bijection(cap(7, 4))),
        ("chi_sum_conjugation", lambda: verify.check_chi_sum_conjugation(cap(5, 3), 20, seed)),
    ]


CHECK_NAMES = tuple(name for name, _ in verify_checks(None, 1, 0))


class VerifySweep(Workload):
    """``verify.run_all(seed=...)`` at acceptance defaults: fourteen verdicts."""

    name = "verify_sweep"

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.max_n = None if scale == "full" else 4
        self.num_words = verify.DEFAULT_WORDS if scale == "full" else 3
        self.n_hi = 8 if scale == "full" else 4
        self.warm_ns = tuple(range(3, self.n_hi + 1))
        evens = [n for n in (4, 6, 8) if n <= self.n_hi]
        c = ncpartition.catalan
        # arc_count_homomesy and psi_balance sweep n = 3..n_hi, even_orbits
        # the even n; each samples num_words words per n.
        self.states_per_pass = self.num_words * (
            2 * sum(c(n) for n in range(3, self.n_hi + 1)) + sum(c(n) for n in evens)
        )
        self.arc_count_words = self.num_words * (self.n_hi - 2)
        self.expected = {name: True for name in CHECK_NAMES}

    def ops(self) -> list:
        return verify.run_all(max_n=self.max_n, num_words=self.num_words, seed=self.seed)

    def checks(self):
        return verify_checks(self.max_n, self.num_words, self.seed)

    def gate(self, outcomes: list) -> list[bool]:
        by_name = {r.name: r.passed for r in outcomes}
        return [by_name.get(name) is want for name, want in self.expected.items()]


# --- graph_cardinality -----------------------------------------------------


def pendant_doubled_count(n_vertices: int, edges) -> int:
    """Independent sets of the pendant-doubled graph: an independent set S of
    the base graph leaves the two pendants of each vertex outside S free."""
    adj = [0] * n_vertices
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return sum(
        4 ** (n_vertices - s.bit_count())
        for s in range(1 << n_vertices)
        if not any(s >> v & 1 and adj[v] & s for v in range(n_vertices))
    )


def skeletal_count(n_vertices: int, edges) -> int:
    """Independent sets of a multigraph's skeletal expansion: a matching M of
    edge-vertices leaves the 2 * |M| matched vertices out of U."""
    total = 0
    for size in range(len(edges) + 1):
        for chosen in combinations(edges, size):
            ends = [v for edge in chosen for v in edge]
            if len(set(ends)) == len(ends):
                total += 2 ** (n_vertices - len(ends))
    return total


# Full-scale graph families: (kind, |V|, |E| or edge probability, target
# state count).  A draw is kept only within 1.5% of the target, so every
# seed asks for about the same work.
GRAPH_FAMILIES = {
    "full": (
        ("pendant_doubled", 8, 0.5, 265_000),
        ("skeletal", 16, 8, 305_000),
        ("skeletal", 14, 10, 103_000),
    ),
    "toy": (("pendant_doubled", 2, 0.5, None), ("skeletal", 4, 2, None)),
}
WINDOW = 0.015


def draw_graph(rng: random.Random, kind: str, size: int, param, target):
    """A seeded 2-cliquish graph, its U, and its exact independent-set count."""
    while True:
        if kind == "pendant_doubled":
            edges = [e for e in combinations(range(size), 2) if rng.random() < param]
            count = pendant_doubled_count(size, edges)
        else:
            edges = [tuple(rng.sample(range(size), 2)) for _ in range(param)]
            count = skeletal_count(size, edges)
        if target is None or abs(count - target) <= WINDOW * target:
            break
    if kind == "pendant_doubled":
        graph, u_set = indsets.pendant_double(indsets.SimpleGraph(range(size), edges))
    else:
        multigraph = indsets.Multigraph(range(size), edges)
        graph, u_set = indsets.multigraph_to_skeletal(multigraph)
    return graph, u_set, count


class GraphCardinality(Workload):
    """Three seeded 2-cliquish graphs; each op is ``is_2_cliquish`` plus
    ``verify_cardinality_homomesy`` under a seeded word using every vertex once."""

    name = "graph_cardinality"

    def __init__(self, seed: int, scale: str = "full"):
        rng = random.Random(seed)
        self.cases = []
        for kind, size, param, target in GRAPH_FAMILIES[scale]:
            graph, u_set, count = draw_graph(rng, kind, size, param, target)
            word = list(graph.vertices)
            rng.shuffle(word)
            self.cases.append((graph, u_set, count, tuple(word)))
        self.states_per_pass = sum(count for _, _, count, _ in self.cases)
        # per graph: (|U|, independent-set count)
        self.expected = {
            f"graph{k}": (len(u_set), count)
            for k, (_, u_set, count, _) in enumerate(self.cases)
        }

    def ops(self) -> list:
        outcomes = []
        for graph, _, _, word in self.cases:
            cert = indsets.is_2_cliquish(graph)
            report = (
                None if cert is None
                else indsets.verify_cardinality_homomesy(graph, cert, word)
            )
            outcomes.append((cert, report))
        return outcomes

    def gate(self, outcomes: list) -> list[bool]:
        verdicts = []
        for (cert, report), (u_size, count) in zip(outcomes, self.expected.values()):
            ok = (
                cert is not None
                and report is not None
                and cert.A == u_size
                and sum(report.orbit_sizes) == count
                and report.holds
                and report.mean == Fraction(u_size, 2)
                and len(report.sub_reports) == u_size
                and all(sub.holds and sub.mean == 1 for sub in report.sub_reports)
            )
            verdicts.append(ok)
        verdicts += [False] * (len(self.expected) - len(outcomes))
        return verdicts


WORKLOADS = {
    cls.name: cls for cls in (NcOrbits, NcHomomesy, VerifySweep, GraphCardinality)
}

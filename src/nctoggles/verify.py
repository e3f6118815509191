"""End-to-end verification checks, runnable from the CLI or the test suite.

Each check replays one of the exact combinatorial identities implemented by
this package at desk scale, with every comparison exact (integer or
rational).  Checks that sample random words use a seeded generator and
record the seed in their result, so any falsification is reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import dynamics, indsets, ncpartition, toggles, words
from .dynamics import Statistic
from .kreweras import (
    kreweras as kreweras_map,
    kreweras_oracle,
    kreweras_prime,
    kreweras_prime_oracle,
    rotate,
    simion_ullman,
)
from .ncpartition import NCPartition, catalan, enumerate_masks, enumerate_nc
from .words import ToggleWord

DEFAULT_SEED = 2026
DEFAULT_WORDS = 100

#: The 15-toggle Coxeter word on [6] with orbit sizes 4, 22, 46, 60
#: (composition order).
NC6_COXETER_TEXT = "4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,6 3,5 2,3 1,4 5,6 4,5"

#: The running 4-element example: a partial Coxeter word that is not
#: Coxeter yet contains every short arc (composition order).
NC4_SAMPLE_TEXT = "3,4 1,2 2,3 1,4"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.2f}s): {self.detail}"


def _result(name: str, start: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def sample_qualifying_word(rng: random.Random, n: int) -> ToggleWord:
    """A random partial Coxeter word containing every short arc (i, i+1)."""
    arcs = [(i, i + 1) for i in range(1, n)]
    for i in range(1, n):
        for j in range(i + 2, n + 1):
            if rng.random() < 0.5:
                arcs.append((i, j))
    rng.shuffle(arcs)
    return ToggleWord(n, arcs)


def sample_coxeter_word(rng: random.Random, n: int) -> ToggleWord:
    """A uniformly shuffled Coxeter word (every arc exactly once)."""
    arcs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    rng.shuffle(arcs)
    return ToggleWord(n, arcs)


def check_catalan_counts(n_max: int = 12) -> CheckResult:
    start = time.perf_counter()
    ncpartition._enum_masks_cached.cache_clear()
    for n in range(n_max + 1):
        got = len(enumerate_masks(n, limit=n_max))
        want = catalan(n)
        if got != want:
            return _result(
                "catalan_counts", start, False, f"n={n}: {got} != C_{n}={want}"
            )
    return _result(
        "catalan_counts",
        start,
        True,
        f"counts match C_n for n <= {n_max} (C_{n_max} = {catalan(n_max)})",
    )


def check_nc4_sample_word() -> CheckResult:
    start = time.perf_counter()
    word = ToggleWord.from_text(4, NC4_SAMPLE_TEXT)
    orbit_list = dynamics.orbits(word)
    sizes = sorted(o.size for o in orbit_list)
    if len(orbit_list) != 5 or sum(sizes) != 14:
        return _result(
            "nc4_sample_word", start, False,
            f"expected 5 orbits totalling 14, got sizes {sizes}",
        )
    alpha = Statistic.alpha()
    averages = [dynamics.orbit_average(alpha, o) for o in orbit_list]
    if any(avg != Fraction(3, 2) for avg in averages):
        return _result(
            "nc4_sample_word", start, False, f"alpha averages {averages} != 3/2"
        )
    return _result(
        "nc4_sample_word", start, True,
        f"5 orbits, sizes {sizes}, every alpha average 3/2",
    )


def check_nc6_orbit_sizes() -> CheckResult:
    start = time.perf_counter()
    word = ToggleWord.from_text(6, NC6_COXETER_TEXT)
    sizes = sorted(o.size for o in dynamics.orbits(word))
    ok = sizes == [4, 22, 46, 60]
    return _result(
        "nc6_coxeter_orbit_sizes", start, ok,
        f"orbit sizes {sizes}" + ("" if ok else " != [4, 22, 46, 60]"),
    )


def check_arc_count_homomesy(
    n_lo: int = 3,
    n_hi: int = 8,
    num_words: int = DEFAULT_WORDS,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    checked = 0
    for n in range(n_lo, n_hi + 1):
        for _ in range(num_words):
            word = sample_qualifying_word(rng, n)
            report = dynamics.verify_arc_count_theorem(word)
            beta_report = report.sub_reports[0]
            if not (report.holds and beta_report.holds):
                return _result(
                    "arc_count_homomesy", start, False,
                    f"seed={seed} n={n} word '{word.to_text()}': "
                    f"alpha {report.verdict}; beta {beta_report.verdict}",
                )
            checked += 1
    return _result(
        "arc_count_homomesy", start, True,
        f"{checked} words (n={n_lo}..{n_hi}, seed={seed}): alpha (n-1)/2-mesic, "
        f"beta (n+1)/2-mesic",
    )


def check_psi_balance(
    n_lo: int = 3,
    n_hi: int = 8,
    num_words: int = DEFAULT_WORDS,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    checked = 0
    for n in range(n_lo, n_hi + 1):
        for _ in range(num_words):
            word = sample_qualifying_word(rng, n)
            orbit_list = dynamics.orbit_masks(word)
            for k in range(1, n):
                # psi_k is psi_v of the base graph at the short arc (k, k+1).
                s = ncpartition.arc_index(n, (k, k + 1))
                nbrs = ncpartition.conflict_masks(n)[s]
                for orbit in orbit_list:
                    total = zeros = twos = 0
                    for mask in orbit:
                        value = 2 * (mask >> s & 1) + (mask & nbrs).bit_count()
                        total += value
                        zeros += value == 0
                        twos += value == 2
                    if total != len(orbit) or zeros != twos:
                        return _result(
                            "psi_balance", start, False,
                            f"seed={seed} n={n} k={k} word '{word.to_text()}': "
                            f"orbit sum {total} over {len(orbit)}, "
                            f"#zeros {zeros} vs #twos {twos}",
                        )
            checked += 1
    return _result(
        "psi_balance", start, True,
        f"{checked} words (n={n_lo}..{n_hi}, seed={seed}): psi_k 1-mesic with "
        f"balanced 0/2 counts per orbit",
    )


def check_pair_orders(n_max: int = 6) -> CheckResult:
    start = time.perf_counter()
    for n in range(2, n_max + 1):
        arcs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for a in arcs:
            for b in arcs:
                want = toggles.pair_order(a, b, n)
                got = toggles.pair_order_observed(a, b, n)
                if want != got:
                    return _result(
                        "pair_orders", start, False,
                        f"n={n} {a},{b}: formula {want}, observed {got}",
                    )
        graph = toggles.base_graph(n)
        for arc in arcs:
            if graph.degree(arc) != toggles.noncommuting_count(n, arc):
                return _result(
                    "pair_orders", start, False,
                    f"n={n} degree({arc}) != m(n+1-m)-2",
                )
    return _result(
        "pair_orders", start, True,
        f"orders in {{1,2,6}} and degrees m(n+1-m)-2 for n <= {n_max}",
    )


def check_arc_containment_counts(n_max: int = 10) -> CheckResult:
    start = time.perf_counter()
    for n in range(2, n_max + 1):
        for k in range(1, n):
            symmetric = n + 1 - k
            if 1 <= symmetric <= n - 1:
                a = catalan(n - k) * catalan(k - 1)
                b = catalan(n - symmetric) * catalan(symmetric - 1)
                if a != b:
                    return _result(
                        "arc_containment_counts", start, False,
                        f"n={n}: formula not symmetric at k={k}",
                    )
            for i in range(1, n - k + 1):
                want = toggles.counts(n, i, k)
                got = toggles.counts_observed(n, i, k)
                if want != got:
                    return _result(
                        "arc_containment_counts", start, False,
                        f"n={n} arc ({i},{i + k}): formula {want}, observed {got}",
                    )
                if want.fixed != catalan(n) - 2 * want.containing:
                    return _result(
                        "arc_containment_counts", start, False,
                        f"n={n} arc ({i},{i + k}): fixed count inconsistent",
                    )
    return _result(
        "arc_containment_counts", start, True,
        f"containing = C(n-k)C(k-1), fixed = C_n - 2 containing, symmetric, "
        f"for n <= {n_max}",
    )


def check_kreweras_agreement(n_max: int = 8) -> CheckResult:
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        inverse_word = words.kreweras_inverse_word(n) if n >= 2 else None
        for partition in enumerate_nc(n):
            fast = kreweras_map(partition)
            oracle = kreweras_oracle(partition)
            if fast != oracle:
                return _result(
                    "kreweras_agreement", start, False,
                    f"n={n} {partition!r}: word route {fast.arcs()} != "
                    f"oracle {oracle.arcs()}",
                )
            prime = kreweras_prime(partition)
            prime_oracle = kreweras_prime_oracle(partition)
            via_word = (
                words.apply_word(inverse_word, partition)
                if inverse_word is not None
                else partition
            )
            if not (prime == prime_oracle == via_word):
                return _result(
                    "kreweras_agreement", start, False,
                    f"n={n} {partition!r}: relabeled complement disagrees",
                )
            if kreweras_map(fast) != rotate(partition, 1):
                return _result(
                    "kreweras_agreement", start, False,
                    f"n={n} {partition!r}: k^2 is not rotation by one",
                )
            if n >= 1 and partition.block_count + fast.block_count != n + 1:
                return _result(
                    "kreweras_agreement", start, False,
                    f"n={n} {partition!r}: |pi| + |k(pi)| != n+1",
                )
            sim = simion_ullman(partition)
            if simion_ullman(sim) != partition:
                return _result(
                    "kreweras_agreement", start, False,
                    f"n={n} {partition!r}: Simion-Ullman map not an involution",
                )
            if partition.block_count + sim.block_count != n + 1:
                return _result(
                    "kreweras_agreement", start, False,
                    f"n={n} {partition!r}: |pi| + |lambda(pi)| != n+1",
                )
    return _result(
        "kreweras_agreement", start, True,
        f"oracle = word route, prime/inverse identities, k^2 = rotation, "
        f"block-count sums, for n <= {n_max}",
    )


def check_row_column_identity(n_max: int = 7) -> CheckResult:
    start = time.perf_counter()
    for n in range(2, n_max + 1):
        if not words.functionally_equal(words.row_word(n), words.column_word(n)):
            return _result(
                "row_column_identity", start, False, f"n={n}: words differ"
            )
    return _result(
        "row_column_identity", start, True,
        f"row and column words equal as permutations for n <= {n_max}",
    )


def check_even_orbits(
    ns=(4, 6, 8), num_words: int = DEFAULT_WORDS, seed: int = DEFAULT_SEED
) -> CheckResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    checked = 0
    for n in ns:
        for _ in range(num_words):
            word = sample_qualifying_word(rng, n)
            all_even, witness = dynamics.even_orbits_check(word)
            if not all_even:
                return _result(
                    "even_orbits", start, False,
                    f"seed={seed} n={n} word '{word.to_text()}': odd orbit of "
                    f"size {witness.size}",
                )
            checked += 1
    return _result(
        "even_orbits", start, True,
        f"{checked} words (n in {tuple(ns)}, seed={seed}): all orbit sizes even",
    )


def check_chi13_negative_control() -> CheckResult:
    start = time.perf_counter()
    word = ToggleWord.from_text(3, "1,3 2,3 1,2")
    report = dynamics.check_homomesy(word, Statistic.chi(1, 3))
    ok = (
        not report.homomesic
        and report.counterexample is not None
        and len(report.orbit_sizes) == 2
    )
    return _result(
        "chi13_negative_control", start, ok,
        f"chi:1,3 verdict: {report.verdict}",
    )


def _check_gamma_equivalence(n: int) -> str | None:
    graph = indsets.gamma_graph(n)
    nc_masks = enumerate_masks(n)
    is_masks = indsets.independent_set_masks(graph)
    if nc_masks != is_masks:
        return f"n={n}: independent sets of the base graph differ from NC(n)"
    arcs = graph.vertices
    for mask in nc_masks:
        partition = NCPartition._raw(n, mask)
        state = frozenset(graph._unpack(mask))
        for arc in arcs:
            toggled = toggles.toggle(partition, arc)
            via_graph = indsets.toggle_vertex(graph, state, arc)
            if frozenset(toggled.arcs()) != via_graph:
                return f"n={n}: toggle at {arc} disagrees on {partition!r}"
    return None


def check_independent_set_generalization(
    n_max: int = 6, num_words: int = 20, seed: int = DEFAULT_SEED
) -> CheckResult:
    start = time.perf_counter()
    for n in range(2, n_max + 1):
        problem = _check_gamma_equivalence(n)
        if problem:
            return _result("independent_set_generalization", start, False, problem)

    rng = random.Random(seed)
    k4me, u_k4me = indsets.complete_minus_edge(4)
    seed_graph = indsets.SimpleGraph(["x", "y"], [("x", "y")])
    doubled, u_doubled = indsets.pendant_double(seed_graph)
    c6t, u_c6t = indsets.cycle_with_edge_triangles(6)
    for graph, u_set, label in (
        (k4me, u_k4me, "K4 minus edge"),
        (doubled, u_doubled, "pendant-doubled K2"),
        (c6t, u_c6t, "C6 with edge triangles"),
    ):
        cert = indsets.check_cliquish_with(graph, u_set)
        if cert is None:
            return _result(
                "independent_set_generalization", start, False,
                f"{label}: expected 2-cliquish certificate for U={sorted(map(str, u_set))}",
            )
        if indsets.is_2_cliquish(graph) is None:
            return _result(
                "independent_set_generalization", start, False,
                f"{label}: search found no certificate",
            )
        for _ in range(num_words):
            others = [v for v in graph.vertices if v not in u_set]
            extra = [v for v in others if rng.random() < 0.5]
            word = list(u_set) + extra
            rng.shuffle(word)
            report = indsets.verify_cardinality_homomesy(graph, cert, word)
            if not report.holds:
                return _result(
                    "independent_set_generalization", start, False,
                    f"{label} seed={seed}: card verdict {report.verdict}",
                )
            if any(not sub.holds for sub in report.sub_reports):
                return _result(
                    "independent_set_generalization", start, False,
                    f"{label} seed={seed}: some psi_u not 1-mesic",
                )
    return _result(
        "independent_set_generalization", start, True,
        f"base-graph equivalence for n <= {n_max}; K4-e, pendant-doubled, and "
        f"triangled C6 all |U|/2-mesic ({num_words} words each, seed={seed})",
    )


def enumerate_multigraphs(total_max: int):
    """All labeled loopless multigraphs with |V| + |E| <= total_max."""
    from itertools import combinations, combinations_with_replacement

    out = []
    for p in range(1, total_max + 1):
        vertices = list(range(1, p + 1))
        pairs = list(combinations(vertices, 2))
        for q in range(0, total_max - p + 1):
            for combo in combinations_with_replacement(pairs, q):
                out.append(indsets.Multigraph(vertices, combo))
    return out


def check_skeletal_bijection(total_max: int = 7) -> CheckResult:
    start = time.perf_counter()
    count = 0
    for m in enumerate_multigraphs(total_max):
        graph, u_set = indsets.multigraph_to_skeletal(m)
        if graph.n_vertices != m.n_vertices + m.n_edges:
            return _result(
                "skeletal_multigraph_bijection", start, False,
                f"{m!r}: vertex count {graph.n_vertices} != |V|+|E|",
            )
        cert = indsets.check_cliquish_with(graph, u_set)
        if cert is None or not indsets.is_skeletal(graph, u_set):
            return _result(
                "skeletal_multigraph_bijection", start, False,
                f"{m!r}: image is not a skeletal 2-cliquish pair",
            )
        back = indsets.skeletal_to_multigraph(graph, u_set)
        if not indsets.multigraph_isomorphic(m, back):
            return _result(
                "skeletal_multigraph_bijection", start, False,
                f"{m!r}: roundtrip produced non-isomorphic {back!r}",
            )
        count += 1

    # Pinned instance: multigraph on A..E with a doubled AB edge, BC, CD,
    # and E isolated; its expansion has 9 vertices and collapses back.
    fig = indsets.Multigraph(
        "ABCDE", [("A", "B"), ("A", "B"), ("B", "C"), ("C", "D")]
    )
    graph, u_set = indsets.multigraph_to_skeletal(fig)
    if graph.n_vertices != 9 or not indsets.multigraph_isomorphic(
        fig, indsets.skeletal_to_multigraph(graph, u_set)
    ):
        return _result(
            "skeletal_multigraph_bijection", start, False,
            "pinned 9-vertex instance failed",
        )

    # Pinned augmentation counts: a 4-cycle with chord and apex, plus a
    # 3-path, has two addable pairs: 4 labeled completions, 3 unlabeled.
    skel = indsets.SimpleGraph(
        ["a", "b", "c", "d", "e", "f", "g"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d"),
         ("e", "f"), ("f", "g")],
    )
    u_set = frozenset({"a", "c", "e", "g"})
    labeled = indsets.count_labeled_augmentations(skel, u_set)
    unlabeled = len(indsets.enumerate_2cliquish_from_skeletal(skel, u_set))
    if (labeled, unlabeled) != (4, 3):
        return _result(
            "skeletal_multigraph_bijection", start, False,
            f"pinned augmentation counts ({labeled}, {unlabeled}) != (4, 3)",
        )
    return _result(
        "skeletal_multigraph_bijection", start, True,
        f"{count} multigraphs with |V|+|E| <= {total_max} roundtrip; pinned "
        f"instances match",
    )


def check_chi_sum_conjugation(
    n_max: int = 5, num_words: int = 20, seed: int = DEFAULT_SEED
) -> CheckResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    checked = 0
    for n in range(2, n_max + 1):
        for _ in range(num_words):
            word = sample_coxeter_word(rng, n)
            for source in sorted(words.sources(word)):
                if not dynamics.chi_sum_conjugation_check(word, source):
                    return _result(
                        "chi_sum_conjugation", start, False,
                        f"seed={seed} n={n} word '{word.to_text()}' source "
                        f"{source}: per-orbit chi sums not preserved",
                    )
                checked += 1
    return _result(
        "chi_sum_conjugation", start, True,
        f"{checked} single-source conjugations (n <= {n_max}, seed={seed}) "
        f"preserve orbit sizes and chi sums",
    )


def run_all(
    max_n: int | None = None,
    num_words: int = DEFAULT_WORDS,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run every check, optionally capping the n-ranges at ``max_n``.

    Fixed small-n identities always run; ``max_n`` scales only the ranges.
    """

    def cap(default: int, floor: int = 2) -> int:
        if max_n is None:
            return default
        return max(floor, min(default, max_n))

    return [
        check_catalan_counts(cap(12, 4)),
        check_nc4_sample_word(),
        check_nc6_orbit_sizes(),
        check_arc_count_homomesy(3, cap(8, 3), num_words, seed),
        check_psi_balance(3, cap(8, 3), num_words, seed),
        check_pair_orders(cap(6, 3)),
        check_arc_containment_counts(cap(10, 3)),
        check_kreweras_agreement(cap(8, 3)),
        check_row_column_identity(cap(7, 3)),
        check_even_orbits(
            tuple(n for n in (4, 6, 8) if max_n is None or n <= max(4, max_n)),
            num_words,
            seed,
        ),
        check_chi13_negative_control(),
        check_independent_set_generalization(cap(6, 3), 20, seed),
        check_skeletal_bijection(cap(7, 4)),
        check_chi_sum_conjugation(cap(5, 3), 20, seed),
    ]

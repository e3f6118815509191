"""End-to-end verification checks, runnable from the CLI or the test suite.

Each check replays one of the exact combinatorial identities implemented by
this package at desk scale, with every comparison exact (integer or
rational).  Checks that sample random words use a seeded generator and
record the seed in their result, so any falsification is reproducible.

A check is a body decorated with ``@_check(name)`` that returns its PASS
detail or raises ``CheckFailed(detail)``, listed in ``run_all``.  Build a
FAIL detail only where it is raised: the hot loops test every state.

``run_all`` runs its checks in forked worker processes, one per available
CPU, and in-process where only one CPU is available or the platform has no
``fork``.  Either way the results come back in list order, and each check's
seconds are measured where it ran.
"""

from __future__ import annotations

import functools
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable

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


class CheckFailed(Exception):
    """A check's counterexample; its message is the FAIL detail."""


def _check(name: str) -> Callable[[Callable[..., str]], Callable[..., CheckResult]]:
    """Turn a body returning its PASS detail into a timed check named ``name``."""

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                passed, detail = True, body(*args, **kwargs)
            except CheckFailed as failure:
                passed, detail = False, str(failure)
            return CheckResult(name, passed, detail, time.perf_counter() - start)

        return check

    return decorate


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


@_check("catalan_counts")
def check_catalan_counts(n_max: int = 12) -> str:
    ncpartition._enum_masks_cached.cache_clear()
    for n in range(n_max + 1):
        got = len(enumerate_masks(n, limit=n_max))
        want = catalan(n)
        if got != want:
            raise CheckFailed(f"n={n}: {got} != C_{n}={want}")
    return f"counts match C_n for n <= {n_max} (C_{n_max} = {catalan(n_max)})"


@_check("nc4_sample_word")
def check_nc4_sample_word() -> str:
    word = ToggleWord.from_text(4, NC4_SAMPLE_TEXT)
    report = dynamics.check_homomesy(word, Statistic.alpha())
    sizes = sorted(report.orbit_sizes)
    if len(sizes) != 5 or sum(sizes) != 14:
        raise CheckFailed(f"expected 5 orbits totalling 14, got sizes {sizes}")
    averages = list(report.averages)
    if any(avg != Fraction(3, 2) for avg in averages):
        raise CheckFailed(f"alpha averages {averages} != 3/2")
    return f"5 orbits, sizes {sizes}, every alpha average 3/2"


@_check("nc6_coxeter_orbit_sizes")
def check_nc6_orbit_sizes() -> str:
    word = ToggleWord.from_text(6, NC6_COXETER_TEXT)
    sizes = sorted(map(len, dynamics.orbit_masks(word)))
    if sizes != [4, 22, 46, 60]:
        raise CheckFailed(f"orbit sizes {sizes} != [4, 22, 46, 60]")
    return f"orbit sizes {sizes}"


@_check("arc_count_homomesy")
def check_arc_count_homomesy(
    n_lo: int = 3,
    n_hi: int = 8,
    num_words: int = DEFAULT_WORDS,
    seed: int = DEFAULT_SEED,
) -> str:
    rng = random.Random(seed)
    checked = 0
    for n in range(n_lo, n_hi + 1):
        for _ in range(num_words):
            word = sample_qualifying_word(rng, n)
            report = dynamics.verify_arc_count_theorem(word)
            beta_report = report.sub_reports[0]
            if not (report.holds and beta_report.holds):
                raise CheckFailed(
                    f"seed={seed} n={n} word '{word.to_text()}': "
                    f"alpha {report.verdict}; beta {beta_report.verdict}"
                )
            checked += 1
    return (
        f"{checked} words (n={n_lo}..{n_hi}, seed={seed}): alpha (n-1)/2-mesic, "
        f"beta (n+1)/2-mesic"
    )


@_check("psi_balance")
def check_psi_balance(
    n_lo: int = 3,
    n_hi: int = 8,
    num_words: int = DEFAULT_WORDS,
    seed: int = DEFAULT_SEED,
) -> str:
    rng = random.Random(seed)
    checked = 0
    for n in range(n_lo, n_hi + 1):
        # psi_k is psi_v of the base graph at the short arc (k, k+1).  It
        # depends on the state alone, so each k gets one value table per n.
        conflicts = ncpartition.conflict_masks(n)
        tables = []
        for k in range(1, n):
            s = ncpartition.arc_index(n, (k, k + 1))
            nbrs = conflicts[s]
            table = {
                mask: 2 * (mask >> s & 1) + (mask & nbrs).bit_count()
                for mask in enumerate_masks(n)
            }
            # With every value in {0, 1, 2}, #zeros == #twos exactly when
            # the orbit sum is |O|; otherwise both are counted.
            tables.append((k, table.__getitem__, max(table.values()) <= 2))
        for _ in range(num_words):
            word = sample_qualifying_word(rng, n)
            orbit_list = dynamics.orbit_masks(word)
            for k, psi, bounded in tables:
                for orbit in orbit_list:
                    total = sum(map(psi, orbit))
                    if bounded and total == len(orbit):
                        continue
                    values = list(map(psi, orbit))
                    zeros, twos = values.count(0), values.count(2)
                    if total != len(orbit) or zeros != twos:
                        raise CheckFailed(
                            f"seed={seed} n={n} k={k} word '{word.to_text()}': "
                            f"orbit sum {total} over {len(orbit)}, "
                            f"#zeros {zeros} vs #twos {twos}"
                        )
            checked += 1
    return (
        f"{checked} words (n={n_lo}..{n_hi}, seed={seed}): psi_k 1-mesic with "
        f"balanced 0/2 counts per orbit"
    )


@_check("pair_orders")
def check_pair_orders(n_max: int = 6) -> str:
    for n in range(2, n_max + 1):
        arcs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for a in arcs:
            for b in arcs:
                want = toggles.pair_order(a, b, n)
                got = toggles.pair_order_observed(a, b, n)
                if want != got:
                    raise CheckFailed(f"n={n} {a},{b}: formula {want}, observed {got}")
        graph = indsets.base_graph(n)
        for arc in arcs:
            if graph.degree(arc) != toggles.noncommuting_count(n, arc):
                raise CheckFailed(f"n={n} degree({arc}) != m(n+1-m)-2")
    return f"orders in {{1,2,6}} and degrees m(n+1-m)-2 for n <= {n_max}"


@_check("arc_containment_counts")
def check_arc_containment_counts(n_max: int = 10) -> str:
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for i in range(1, n - k + 1):
                want = toggles.counts(n, i, k)
                got = toggles.counts_observed(n, i, k)
                if want != got:
                    raise CheckFailed(
                        f"n={n} arc ({i},{i + k}): formula {want}, observed {got}"
                    )
    return (
        f"containing = C(n-k)C(k-1), fixed = C_n - 2 containing, symmetric, "
        f"for n <= {n_max}"
    )


@_check("kreweras_agreement")
def check_kreweras_agreement(n_max: int = 8) -> str:
    for n in range(1, n_max + 1):
        inverse_step = words.kreweras_inverse_word(n).stepper() if n >= 2 else None
        for partition in enumerate_nc(n):
            fast = kreweras_map(partition)
            oracle = kreweras_oracle(partition)
            if fast != oracle:
                raise CheckFailed(
                    f"n={n} {partition!r}: word route {fast.arcs()} != "
                    f"oracle {oracle.arcs()}"
                )
            prime = kreweras_prime(partition)
            prime_oracle = kreweras_prime_oracle(partition)
            via_word = (
                NCPartition._raw(n, inverse_step(partition.mask))
                if inverse_step is not None
                else partition
            )
            if not (prime == prime_oracle == via_word):
                raise CheckFailed(
                    f"n={n} {partition!r}: relabeled complement disagrees"
                )
            if kreweras_map(fast) != rotate(partition, 1):
                raise CheckFailed(f"n={n} {partition!r}: k^2 is not rotation by one")
            if partition.block_count + fast.block_count != n + 1:
                raise CheckFailed(f"n={n} {partition!r}: |pi| + |k(pi)| != n+1")
            sim = simion_ullman(partition)
            if simion_ullman(sim) != partition:
                raise CheckFailed(
                    f"n={n} {partition!r}: Simion-Ullman map not an involution"
                )
            if partition.block_count + sim.block_count != n + 1:
                raise CheckFailed(f"n={n} {partition!r}: |pi| + |lambda(pi)| != n+1")
    return (
        f"oracle = word route, prime/inverse identities, k^2 = rotation, "
        f"block-count sums, for n <= {n_max}"
    )


@_check("row_column_identity")
def check_row_column_identity(n_max: int = 7) -> str:
    for n in range(2, n_max + 1):
        if not words.functionally_equal(words.row_word(n), words.column_word(n)):
            raise CheckFailed(f"n={n}: words differ")
    return f"row and column words equal as permutations for n <= {n_max}"


@_check("even_orbits")
def check_even_orbits(
    ns=(4, 6, 8), num_words: int = DEFAULT_WORDS, seed: int = DEFAULT_SEED
) -> str:
    rng = random.Random(seed)
    checked = 0
    for n in ns:
        for _ in range(num_words):
            word = sample_qualifying_word(rng, n)
            all_even, witness = dynamics.even_orbits_check(word)
            if not all_even:
                raise CheckFailed(
                    f"seed={seed} n={n} word '{word.to_text()}': odd orbit of "
                    f"size {witness.size}"
                )
            checked += 1
    return f"{checked} words (n in {tuple(ns)}, seed={seed}): all orbit sizes even"


@_check("chi13_negative_control")
def check_chi13_negative_control() -> str:
    word = ToggleWord.from_text(3, "1,3 2,3 1,2")
    report = dynamics.check_homomesy(word, Statistic.chi(1, 3))
    detail = f"chi:1,3 verdict: {report.verdict}"
    if (
        report.homomesic
        or report.counterexample is None
        or len(report.orbit_sizes) != 2
    ):
        raise CheckFailed(detail)
    return detail


def _check_gamma_equivalence(n: int) -> str | None:
    """NC(n) is the independent-set system of the base graph, checked
    against the crossing and nesting rules of ``ncpartition.validate``
    rather than against the conflict table both sides are built from."""
    graph = indsets.base_graph(n)
    nc_masks = enumerate_masks(n)
    if indsets.independent_set_masks(graph) != nc_masks:
        return f"n={n}: independent sets of the base graph differ from NC(n)"
    if len(set(nc_masks)) != len(nc_masks) or len(nc_masks) != catalan(n):
        return f"n={n}: {len(nc_masks)} states are not C_{n} distinct partitions"
    arcs = graph.vertices
    for mask in nc_masks:
        partition = NCPartition._raw(n, mask)
        state = frozenset(partition.arcs())
        if ncpartition.validate(n, state) is not None:
            return f"n={n}: {partition!r} is not noncrossing"
        for arc in arcs:
            # By definition: drop the arc, or add it if the result is valid.
            flipped = state ^ {arc}
            legal = arc in state or ncpartition.validate(n, flipped) is None
            want = flipped if legal else state
            toggled = toggles.toggle(partition, arc)
            via_graph = indsets.toggle_vertex(graph, state, arc)
            if not frozenset(toggled.arcs()) == via_graph == want:
                return f"n={n}: toggle at {arc} disagrees on {partition!r}"
    return None


@_check("independent_set_generalization")
def check_independent_set_generalization(
    n_max: int = 6, num_words: int = 20, seed: int = DEFAULT_SEED
) -> str:
    for n in range(2, n_max + 1):
        problem = _check_gamma_equivalence(n)
        if problem:
            raise CheckFailed(problem)

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
            raise CheckFailed(
                f"{label}: expected 2-cliquish certificate for U={sorted(map(str, u_set))}"
            )
        if indsets.is_2_cliquish(graph) is None:
            raise CheckFailed(f"{label}: search found no certificate")
        for _ in range(num_words):
            others = [v for v in graph.vertices if v not in u_set]
            extra = [v for v in others if rng.random() < 0.5]
            word = list(u_set) + extra
            rng.shuffle(word)
            report = indsets.verify_cardinality_homomesy(graph, cert, word)
            if not report.holds:
                raise CheckFailed(f"{label} seed={seed}: card verdict {report.verdict}")
            if any(not sub.holds for sub in report.sub_reports):
                raise CheckFailed(f"{label} seed={seed}: some psi_u not 1-mesic")
    return (
        f"base-graph equivalence for n <= {n_max}; K4-e, pendant-doubled, and "
        f"triangled C6 all |U|/2-mesic ({num_words} words each, seed={seed})"
    )


def enumerate_multigraphs(total_max: int):
    """All labeled loopless multigraphs with |V| + |E| <= total_max."""
    out = []
    for p in range(1, total_max + 1):
        vertices = list(range(1, p + 1))
        pairs = list(combinations(vertices, 2))
        for q in range(0, total_max - p + 1):
            for combo in combinations_with_replacement(pairs, q):
                out.append(indsets.Multigraph(vertices, combo))
    return out


@_check("skeletal_multigraph_bijection")
def check_skeletal_bijection(total_max: int = 7) -> str:
    count = 0
    for m in enumerate_multigraphs(total_max):
        graph, u_set = indsets.multigraph_to_skeletal(m)
        if graph.n_vertices != m.n_vertices + m.n_edges:
            raise CheckFailed(f"{m!r}: vertex count {graph.n_vertices} != |V|+|E|")
        cert = indsets.check_cliquish_with(graph, u_set)
        if cert is None or not indsets.is_skeletal(graph, u_set):
            raise CheckFailed(f"{m!r}: image is not a skeletal 2-cliquish pair")
        back = indsets.skeletal_to_multigraph(graph, u_set)
        if not indsets.multigraph_isomorphic(m, back):
            raise CheckFailed(f"{m!r}: roundtrip produced non-isomorphic {back!r}")
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
        raise CheckFailed("pinned 9-vertex instance failed")

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
        raise CheckFailed(
            f"pinned augmentation counts ({labeled}, {unlabeled}) != (4, 3)"
        )
    return (
        f"{count} multigraphs with |V|+|E| <= {total_max} roundtrip; pinned "
        f"instances match"
    )


@_check("chi_sum_conjugation")
def check_chi_sum_conjugation(
    n_max: int = 5, num_words: int = 20, seed: int = DEFAULT_SEED
) -> str:
    rng = random.Random(seed)
    checked = 0
    for n in range(2, n_max + 1):
        for _ in range(num_words):
            word = sample_coxeter_word(rng, n)
            for source in sorted(words.sources(word)):
                if not dynamics.chi_sum_conjugation_check(word, source):
                    raise CheckFailed(
                        f"seed={seed} n={n} word '{word.to_text()}' source "
                        f"{source}: per-orbit chi sums not preserved"
                    )
                checked += 1
    return (
        f"{checked} single-source conjugations (n <= {n_max}, seed={seed}) "
        f"preserve orbit sizes and chi sums"
    )


def _run_check(name: str, check) -> CheckResult:
    """Run one check; an exception it raises becomes a FAIL naming it."""
    start = time.perf_counter()
    try:
        return check()
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        return CheckResult(name, False, detail, time.perf_counter() - start)


#: A forked worker's copy of the ``(name, thunk)`` checks of its ``run_all``.
#: Fork hands them over as they are: lambdas and test-patched checks cannot
#: be pickled.
_inherited: list = []


def _inherit(checks: list) -> None:
    global _inherited
    _inherited = checks


def _run_inherited(index: int) -> CheckResult:
    return _run_check(*_inherited[index])


def _run_forked(checks: list, workers: int) -> list[CheckResult]:
    """``_run_check`` over ``checks`` in ``workers`` forked processes, in order.

    A worker that dies breaks its pool, and every check still pending there
    fails with it, so each of those checks reruns alone in a pool of its
    own.  The one that dies again is a FAIL naming the abnormal exit; the
    others get their own verdicts.  Every worker is joined before this
    returns.  A fork pool starts all of its workers before its own manager
    thread, so a caller without threads of its own forks none.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")

    def run(indices, size: int) -> list:
        with ProcessPoolExecutor(
            size, context, initializer=_inherit, initargs=(checks,)
        ) as pool:
            futures = [pool.submit(_run_inherited, index) for index in indices]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except BrokenProcessPool as exc:
                outcomes.append(exc)
        return outcomes

    results = run(range(len(checks)), workers)
    for index, result in enumerate(results):
        if isinstance(result, BrokenProcessPool):
            start = time.perf_counter()
            (result,) = run([index], 1)
            if isinstance(result, BrokenProcessPool):
                detail = f"{type(result).__name__}: {result}"
                seconds = time.perf_counter() - start
                result = CheckResult(checks[index][0], False, detail, seconds)
            results[index] = result
    return results


def run_all(
    max_n: int | None = None,
    num_words: int = DEFAULT_WORDS,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run every check, optionally capping the n-ranges at ``max_n``.

    Fixed small-n identities always run; ``max_n`` scales only the ranges.
    A check that raises is reported as a FAIL with the exception as its
    detail, and the checks after it still run.  The checks run in forked
    workers, one per available CPU, and in-process on one CPU or where
    ``fork`` is not a start method; a worker that dies is a FAIL of its
    check, not a hang.  The results keep the order of the list below, and
    each check's seconds are measured in the process that ran it.
    """

    def cap(default: int, floor: int = 2) -> int:
        if max_n is None:
            return default
        return max(floor, min(default, max_n))

    evens = tuple(n for n in (4, 6, 8) if max_n is None or n <= max(4, max_n))
    checks = [
        ("catalan_counts", lambda: check_catalan_counts(cap(12, 4))),
        ("nc4_sample_word", check_nc4_sample_word),
        ("nc6_coxeter_orbit_sizes", check_nc6_orbit_sizes),
        ("arc_count_homomesy",
         lambda: check_arc_count_homomesy(3, cap(8, 3), num_words, seed)),
        ("psi_balance", lambda: check_psi_balance(3, cap(8, 3), num_words, seed)),
        ("pair_orders", lambda: check_pair_orders(cap(6, 3))),
        ("arc_containment_counts", lambda: check_arc_containment_counts(cap(10, 3))),
        ("kreweras_agreement", lambda: check_kreweras_agreement(cap(8, 3))),
        ("row_column_identity", lambda: check_row_column_identity(cap(7, 3))),
        ("even_orbits", lambda: check_even_orbits(evens, num_words, seed)),
        ("chi13_negative_control", check_chi13_negative_control),
        ("independent_set_generalization",
         lambda: check_independent_set_generalization(cap(6, 3), 20, seed)),
        ("skeletal_multigraph_bijection", lambda: check_skeletal_bijection(cap(7, 4))),
        ("chi_sum_conjugation", lambda: check_chi_sum_conjugation(cap(5, 3), 20, seed)),
    ]
    # Without sched_getaffinity the available CPUs are unknown: run in-process.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(checks))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _run_forked(checks, workers)
    return [_run_check(name, check) for name, check in checks]

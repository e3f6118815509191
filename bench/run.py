"""Benchmark harness for nctoggles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload all`` runs every workload in turn.  With
``--trace 0`` the run repeats passes of the workload for ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it runs one plain pass,
one pass under spans, then its tracemalloc measurements, and reports the
per-layer metrics.  Every verdict is checked against a known answer.

Standard output: one ``name = value unit`` line per metric, a JSON line with
the seed, the environment and the raw samples, and last a JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the run completed, even with failed verdicts; it is 2 when the
source tree is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2

END_TO_END = (
    ("wall_s", "s"),
    ("states_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> tuple[tuple[str, str], ...]:
    return (
        ("ncpartition.enumerate_s", "s"),
        ("ncpartition.states", "count"),
        ("ncpartition.bytes_per_state", "B/state"),
        ("words.stepper_build_s", "s"),
        ("words.steppers_built", "count"),
        ("words.word_len", "count"),
        ("dynamics.image_pass_s", "s"),
        ("dynamics.toggles_applied", "count"),
        ("dynamics.orbit_masks_s", "s"),
        ("dynamics.cycle_chase_s", "s"),
        ("dynamics.orbit_objects_s", "s"),
        ("dynamics.orbits", "count"),
        ("dynamics.orbit_bytes_per_state", "B/state"),
        ("dynamics.stat_eval_s", "s"),
        ("dynamics.stat_evals", "count"),
        ("dynamics.report_s", "s"),
        ("dynamics.orbit_decompositions_per_word", "count"),
        ("cli.command_s", "s"),
        ("cli.overhead_s", "s"),
        ("cli.json_bytes", "B"),
        *((f"verify.{name}_s", "s") for name in workloads.CHECK_NAMES),
        ("verify.words_per_s", "1/s"),
        ("indsets.enumerate_s", "s"),
        ("indsets.states", "count"),
        ("indsets.cliquish_search_s", "s"),
        ("indsets.orbit_s", "s"),
        ("indsets.verify_s", "s"),
        ("indsets.orbits", "count"),
        ("indsets.stat_evals", "count"),
        ("indsets.bytes_per_state", "B/state"),
        ("trace_overhead_s", "s"),
    )


def load_package():
    """Import the harness modules against ``src/``; exit 2 if it is absent."""
    if not (SRC / "nctoggles" / "__init__.py").is_file():
        print(f"error: no nctoggles source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nctoggles

    if Path(nctoggles.__file__).resolve().parent != SRC / "nctoggles":
        print(f"error: nctoggles imported from {nctoggles.__file__}", file=sys.stderr)
        sys.exit(2)
    global workloads, spans
    import spans
    import workloads


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD's hash read from ``.git`` directly; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        child.wait()
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def run_pass(wl) -> tuple[float, int, int]:
    """One pass of the workload's ops; returns (seconds, verdicts, failed)."""
    gc.collect()
    start = time.perf_counter()
    outcomes = wl.ops()
    elapsed = time.perf_counter() - start
    verdicts = wl.gate(outcomes)
    return elapsed, len(verdicts), verdicts.count(False)


def end_to_end(args, wl) -> tuple[dict, dict, int, int]:
    # Set-up probes alternate with passes so that both sample the whole run.
    # Both are reported as means, not medians: the machine's speed can switch
    # between two levels every few seconds, and the median of a few samples
    # jumps between them where the mean averages over them.
    setups, passes = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        setups.append(probe_setup(args))
        elapsed, n_ops, n_failed = run_pass(wl)
        passes.append(elapsed)
        attempted += n_ops
        failed += n_failed
        spent = time.perf_counter() - start
        next_round = statistics.fmean(setups) + statistics.fmean(passes)
        if len(passes) >= MIN_PASSES and spent + next_round > args.seconds:
            break
    wall = statistics.fmean(passes)
    metrics = {
        "wall_s": wall,
        "states_per_s": wl.states_per_pass / wall,
        "setup_s": statistics.fmean(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"pass_s": passes, "setup_s": setups, "states_per_pass": wl.states_per_pass}
    return metrics, samples, attempted, failed


# --- traced run ------------------------------------------------------------


def clear_enumeration_cache() -> None:
    from nctoggles import ncpartition

    cached = getattr(ncpartition, "_enum_masks_cached", None)
    if cached is not None:
        cached.cache_clear()


def install_spans(rec, seen_words: Counter) -> None:
    from nctoggles import cli, dynamics, indsets, ncpartition, words

    catalan = ncpartition.catalan

    def stepper(counts, args, result):
        counts["steppers"] += 1
        counts["stepper_toggles"] += len(args[0])

    def decomposition(counts, args, result):
        word = args[0]
        seen_words[word] += 1
        counts["toggles_applied"] += catalan(word.n) * len(word)
        counts["orbits"] += len(result)

    def stat_eval(counts, args, result):
        counts["stat_evals"] += len(args[1].elements)

    def is_orbits(counts, args, result):
        counts["is_orbits"] += len(result)

    def is_verify(counts, args, result):
        states = sum(result.orbit_sizes)
        counts["is_states"] += states
        counts["is_stat_evals"] += states * (1 + len(result.sub_reports))

    rec.patch(ncpartition, "enumerate_masks", "ncpartition.enumerate")
    rec.patch(words.ToggleWord, "stepper", "words.stepper", stepper)
    rec.patch(dynamics, "orbit_masks", "dynamics.orbit_masks", decomposition)
    rec.patch(dynamics, "orbits", "dynamics.orbits")
    rec.patch(dynamics, "orbit_average", "dynamics.stat_eval", stat_eval)
    rec.patch(dynamics, "check_homomesy", "dynamics.report")
    rec.patch(dynamics, "verify_arc_count_theorem", "dynamics.report")
    rec.patch(dynamics.HomomesyReport, "to_json_dict", "dynamics.report")
    rec.patch(dynamics.HomomesyReport, "to_text_table", "dynamics.report")
    rec.patch(cli, "main", "cli.main")
    rec.patch(indsets, "independent_set_masks", "indsets.enumerate")
    rec.patch(indsets, "is_2_cliquish", "indsets.cliquish_search")
    rec.patch(indsets, "orbit_partition", "indsets.orbit", is_orbits, everywhere=False)
    rec.patch(indsets, "verify_cardinality_homomesy", "indsets.verify", is_verify)


def image_pass_seconds(seen_words: Counter) -> float:
    """The stepper applied to every enumerated state, once per decomposition."""
    from nctoggles import ncpartition

    total = 0.0
    for word, times in seen_words.items():
        states = ncpartition.enumerate_masks(word.n, limit=word.n)
        step = word.stepper()
        start = time.perf_counter()
        for state in states:
            step(state)
        total += times * (time.perf_counter() - start)
    return total


def traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def per_layer(args, wl) -> tuple[dict, dict, int, int]:
    from nctoggles import dynamics, indsets, ncpartition, verify

    attempted = failed = 0
    plain, n_ops, n_failed = run_pass(wl)
    attempted += n_ops
    failed += n_failed

    clear_enumeration_cache()
    start = time.perf_counter()
    wl.warm()
    enumerate_s = time.perf_counter() - start

    rec = spans.Recorder()
    seen_words: Counter = Counter()
    check_s = dict.fromkeys(workloads.CHECK_NAMES, 0.0)
    json_bytes = 0
    install_spans(rec, seen_words)
    try:
        gc.collect()
        start = time.perf_counter()
        if wl.name == "verify_sweep":
            outcomes = []
            for name, thunk in wl.checks():
                t0 = time.perf_counter()
                outcomes.append(thunk())
                check_s[name] = time.perf_counter() - t0
        else:
            outcomes = wl.ops()
        traced = time.perf_counter() - start
    finally:
        rec.restore()
    verdicts = wl.gate(outcomes)
    attempted += len(verdicts)
    failed += verdicts.count(False)
    if wl.name in ("nc_orbits", "nc_homomesy"):
        json_bytes = sum(len(text.encode()) for _, text in outcomes)

    image_s = image_pass_seconds(seen_words)

    # Allocation tracing slows everything it watches, so it gets its own pass.
    warm_states = sum(ncpartition.catalan(n) for n in wl.warm_ns)
    enum_peak = 0
    if wl.warm_ns:
        clear_enumeration_cache()
        enum_peak = traced_peak(wl.warm)
    orbit_word = getattr(wl, "word", None)
    if wl.name == "verify_sweep":
        orbit_word = verify.sample_qualifying_word(random.Random(args.seed), wl.n_hi)
    orbit_peak = orbit_states = 0
    if orbit_word is not None:
        wl.warm()
        orbit_peak = traced_peak(lambda: dynamics.orbits(orbit_word))
        orbit_states = ncpartition.catalan(orbit_word.n)
    is_peak = is_states = 0
    for graph, _, count, _ in getattr(wl, "cases", ()):
        is_peak += traced_peak(lambda: indsets.independent_set_masks(graph))
        is_states += count

    total, own, calls, counts = rec.total, rec.self_time, rec.calls, rec.counts
    words_built = counts["steppers"]
    metrics = {
        "ncpartition.enumerate_s": enumerate_s,
        "ncpartition.states": warm_states,
        "ncpartition.bytes_per_state": enum_peak / warm_states if warm_states else 0,
        "words.stepper_build_s": total["words.stepper"],
        "words.steppers_built": words_built,
        "words.word_len": counts["stepper_toggles"] / words_built if words_built else 0,
        "dynamics.image_pass_s": image_s,
        "dynamics.toggles_applied": counts["toggles_applied"],
        "dynamics.orbit_masks_s": total["dynamics.orbit_masks"],
        "dynamics.cycle_chase_s": own["dynamics.orbit_masks"] - image_s,
        "dynamics.orbit_objects_s": own["dynamics.orbits"],
        "dynamics.orbits": counts["orbits"],
        "dynamics.orbit_bytes_per_state": orbit_peak / orbit_states if orbit_states else 0,
        "dynamics.stat_eval_s": total["dynamics.stat_eval"],
        "dynamics.stat_evals": counts["stat_evals"],
        "dynamics.report_s": own["dynamics.report"],
        "dynamics.orbit_decompositions_per_word": (
            calls["dynamics.orbit_masks"] / len(seen_words) if seen_words else 0
        ),
        "cli.command_s": total["cli.main"],
        "cli.overhead_s": own["cli.main"],
        "cli.json_bytes": json_bytes,
        **{f"verify.{name}_s": seconds for name, seconds in check_s.items()},
        "verify.words_per_s": (
            wl.arc_count_words / check_s["arc_count_homomesy"]
            if wl.name == "verify_sweep" else 0
        ),
        "indsets.enumerate_s": total["indsets.enumerate"],
        "indsets.states": counts["is_states"],
        "indsets.cliquish_search_s": own["indsets.cliquish_search"],
        "indsets.orbit_s": total["indsets.orbit"],
        "indsets.verify_s": own["indsets.verify"],
        "indsets.orbits": counts["is_orbits"],
        "indsets.stat_evals": counts["is_stat_evals"],
        "indsets.bytes_per_state": is_peak / is_states if is_states else 0,
        "trace_overhead_s": traced - plain,
    }
    samples = {"plain_pass_s": plain, "traced_pass_s": traced,
               "span_calls": dict(sorted(calls.items()))}
    return metrics, samples, attempted, failed


# --- entry point -----------------------------------------------------------


def run_all_workloads(args) -> int:
    """Each workload in its own process; prints their lines and a merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy runs the workloads at smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load_package()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    wl.warm()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, samples, attempted, failed = measure(args, wl)
    units = dict(per_layer_units() if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "ops": attempted,
        "ops_failed": failed, "env": environment(), "samples": samples,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

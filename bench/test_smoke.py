"""Smoke test of the benchmark harness at toy sizes (n = 5, 6-vertex graphs).

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_package()
workloads = run.workloads
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "toy")
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["detail"]["seed"] == 7
    assert {"python", "nproc", "cpu_model", "mem_total_mb", "commit"} <= set(
        detail["detail"]["env"]
    )


WRONG_ANSWERS = {
    "nc_orbits": lambda e: {**e, "orbit_count": e["orbit_count"] + 1},
    "nc_homomesy": lambda e: {**e, "alpha": (0, "5/2")},
    "verify_sweep": lambda e: {**e, "catalan_counts": False},
    "graph_cardinality": lambda e: {
        key: (u_size, count + 1) for key, (u_size, count) in e.items()
    },
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_wrong_expected_answer_counts_as_failed(workload):
    wl = workloads.WORKLOADS[workload](7, "toy")
    wl.warm()
    assert run.run_pass(wl)[2] == 0
    wl.expected = WRONG_ANSWERS[workload](wl.expected)
    _, attempted, failed = run.run_pass(wl)
    assert 1 <= failed <= attempted


def test_inputs_follow_the_seed():
    def inputs(seed):
        homomesy = workloads.WORKLOADS["nc_homomesy"](seed, "toy")
        graphs = workloads.WORKLOADS["graph_cardinality"](seed, "toy")
        return homomesy.text, [(g.to_text(), word) for g, _, _, word in graphs.cases]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_without_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(tmp_path, "--workload", "nc_orbits", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode == 2
    assert "{" not in done.stdout

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

They run the benchmark for about three minutes in total, so they live
outside the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def record(workload: str, seed: int, trace: int) -> dict:
    path = run.RESULTS / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return json.loads(path.read_text())


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("seed", [workloads.BASELINE_SEED, workloads.HELDOUT_SEED])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_passes(workload, seed):
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "0")
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_reference_is_a_failed_job():
    code, lines = bench("--workload", "lie-series", "--seed", "3",
                        "--seconds", "1", "--trace", "0", "--wrong-reference")
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED ranks-") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat(workload):
    counters = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--seed", "5",
                            "--seconds", "1", "--trace", "1")
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result["metrics"]) == set(run.PER_LAYER)
        rec = record(workload, 5, 1)
        for p in rec["passes"]:
            if p["traced"]:
                counters.append({j["job"]: {k: v for k, v in j["layers"].items()
                                            if not k.endswith(".self_s")}
                                 for j in p["jobs"]})
    assert len(counters) >= 2
    assert all(c == counters[0] for c in counters[1:])
    names = {k for job in counters[0].values() for k in job}
    assert {n for n in names if n.endswith((".calls", ".states", ".rows",
                                            ".rank", ".checked"))}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, lines = bench("--workload", "lie-series", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)

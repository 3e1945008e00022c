"""The raag benchmark: cold-process workloads with checked answers.

    python3 perfbench/run.py --workload lie-series --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (the directory holding src/raag).
Every job is a fresh `python3` process with PYTHONPATH=src, the way a
`raag` CLI call runs, so no in-process cache survives from one job to the
next.  One client runs the jobs of a workload one after another (a closed
loop); a pass is one run of every job, and passes repeat until --seconds
is used up.  Every answer is checked (see workloads.py).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones
(layertrace.py), plus the tracing overhead.  Each run writes a record to
perfbench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json, and the last
line of stdout is a JSON summary.  The exit code is 0 only if every job
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from workloads import WrongAnswer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = {
    "solve_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "words.canonicalize_trace.calls": "count",
    "words.canonicalize_trace.self_s": "s",
    "words.enumerate_traces.calls": "count",
    "words.enumerate_traces.states": "count",
    "words.enumerate_traces.self_s": "s",
    "words.reduce_word.calls": "count",
    "words.reduce_word.self_s": "s",
    "words.ball.states": "count",
    "words.ball.self_s": "s",
    "series.PCSeries.mul.calls": "count",
    "series.PCSeries.mul.terms_out": "count",
    "series.PCSeries.mul.self_s": "s",
    "useries.USeries.mul.calls": "count",
    "useries.USeries.mul.self_s": "s",
    "lie.left_normed_brackets.rows": "count",
    "lie.left_normed_brackets.self_s": "s",
    "lie.series_rank_lcs.self_s": "s",
    "lie.series_rank_restricted.self_s": "s",
    "lie.restricted_span_rank.self_s": "s",
    "linalg.rank_of_rows.rows": "count",
    "linalg.rank_of_rows.rank": "count",
    "linalg.rank_of_rows.self_s": "s",
    "linalg.rank_of_rows.useful_ratio": "ratio",
    "koszul.verify_resolution.checked": "count",
    "koszul.verify_resolution.self_s": "s",
    "koszul.differential.calls": "count",
    "koszul.contraction.calls": "count",
    "magnus.magnus.calls": "count",
    "magnus.magnus.self_s": "s",
    "magnus.injectivity_witness.self_s": "s",
    "magnus.magnus_span_rank.self_s": "s",
    "growth.phi_R.calls": "count",
    "graph.enumerate_cliques.calls": "count",
    "exterior.quadratic_dual_check.self_s": "s",
    "verify.verify_all.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# The host's CPU speed switches between a fast and a slow state (about
# 1.4x apart, changing within seconds), and the share of time in each
# varies from run to run, so raw wall times of two 30-second runs can
# differ by 20%.  A sampler thread therefore times a small fixed loop, in
# its own CPU time, every SAMPLE_EVERY_S on the CPU the jobs run on, and
# each job's times are reported in reference seconds: wall seconds times
# (SAMPLE_NOMINAL_NS / mean sample taken while the job ran) **
# SAMPLE_EXPONENT.  The loop does the same kind of work as raag (list
# scans and pops of small ints) but slows down less between the states:
# over 30 runs, raag's times tracked the loop's to the power 1.3-1.5.  The
# sampler takes about 2% of the CPU from the jobs.  Raw wall times are
# kept in the record.
SAMPLE_NOMINAL_NS = 1_000_000
SAMPLE_EXPONENT = 1.4
SAMPLE_EVERY_S = 0.05
SAMPLE_MARGIN_NS = 500_000_000  # widen short jobs' windows by this much


def _sample_loop() -> None:
    # greedy least-first extraction under a commutation test, as in a
    # trace normal form
    for _ in range(10):
        rest = list(range(12))
        while rest:
            best, pos = None, 0
            for i, v in enumerate(rest):
                if all((u + v) % 3 for u in rest[:i]) and (best is None or v < best):
                    best, pos = v, i
            rest.pop(pos)


class SpeedSampler:
    """Background thread recording (monotonic end time, CPU ns) of the
    sample loop; `scale(a, b)` is reference seconds per wall second over
    [a, b] (monotonic ns)."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            t = time.thread_time_ns()
            _sample_loop()
            self.samples.append((time.monotonic_ns(), time.thread_time_ns() - t))
            self._stop.wait(SAMPLE_EVERY_S)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, a: int, b: int) -> tuple[float, int]:
        """(scale, number of samples used)."""
        lo, hi = a - SAMPLE_MARGIN_NS, b + SAMPLE_MARGIN_NS
        window = [ns for t, ns in self.samples if lo <= t <= hi]
        if not window:  # e.g. a stall of the sampler; fall back to all
            window = [ns for _, ns in self.samples] or [SAMPLE_NOMINAL_NS]
        return (SAMPLE_NOMINAL_NS / statistics.mean(window)) ** SAMPLE_EXPONENT, len(window)


def child_env() -> dict[str, str]:
    """Pinned so that counters repeat exactly between runs."""
    env = {k: v for k, v in os.environ.items() if k != "RAAG_MAX_STATES"}
    env.update(PYTHONHASHSEED="0", PYTHONPATH="src")
    return env


def _spawn(spec: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def warm_up(spec: dict) -> int:
    """Untimed job that only imports and loads, so that compiling bytecode
    does not land in the first setup_s."""
    proc = _spawn(dict(spec, warmup=True))
    try:
        proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


def run_job(job, spec: dict, timeout: float, earlier: dict,
            sampler: SpeedSampler) -> dict:
    """Spawn one job, time it and check its answer; `earlier` holds the
    parsed answers of the pass's previous jobs."""
    res = {"job": job.name, "ok": False}
    spawn = time.monotonic_ns()
    proc = _spawn(spec)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        res["reason"] = f"over its time limit of {timeout:.0f} s"
        return res
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        res["reason"] = (f"job process exited {proc.returncode}: "
                         f"{err.strip()[-500:]}")
        return res
    try:
        rec = json.loads(lines[-1])
    except json.JSONDecodeError:
        res["reason"] = f"job process printed no record: {lines[-1][:200]!r}"
        return res
    scale, n = sampler.scale(spawn, rec["done_ns"])
    setup = (rec["ready_ns"] - spawn) / 1e9
    solve = (rec["done_ns"] - rec["ready_ns"]) / 1e9
    res.update(setup_wall_s=setup, solve_wall_s=solve, speed_scale=scale,
               speed_samples=n, setup_s=setup * scale, solve_s=solve * scale,
               rss_mb=rec["maxrss_kb"] / 1024, rc=rec["rc"])
    if "layers" in rec:
        res["layers"] = {k: v * scale if k.endswith(".self_s") else v
                         for k, v in rec["layers"].items()}
    if rec["rc"] != 0:
        res["reason"] = f"raag exited {rec['rc']}: {err.strip()[-500:]}"
        return res
    try:
        earlier[job.name] = job.check(rec["output"], earlier)
    except (WrongAnswer, KeyError, TypeError, ValueError) as exc:
        res["reason"] = f"wrong answer: {exc!r}"
        return res
    res["ok"] = True
    return res


def run_pass(workload, paths: dict, traced: bool, deadline: float,
             spans_dir: Path | None, sampler: SpeedSampler) -> dict:
    earlier: dict = {}
    jobs = []
    for job in workload.jobs:
        spec = job.spec(paths)
        if traced:
            spec["trace"] = True
            if spans_dir is not None:
                spec["spans"] = str(spans_dir / f"{job.name}.json.gz")
        timeout = min(JOB_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
        jobs.append(run_job(job, spec, timeout, earlier, sampler))
    return {"traced": traced, "jobs": jobs}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _per_job(passes: list[dict], key: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            if j["ok"]:
                out.setdefault(j["job"], []).append(j[key])
    return out


def solve_time(passes: list[dict]) -> float:
    """Sum over jobs of each job's median solve time."""
    return sum(_median(v) for v in _per_job(passes, "solve_s").values())


def end_to_end(workload, passes: list[dict]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count)."""
    n = len(passes)
    setups = [j["setup_s"] for p in passes for j in p["jobs"] if j["ok"]]
    largest = _per_job(passes, "solve_s").get(workload.largest, [])
    rss = _per_job(passes, "rss_mb")
    return {
        "solve_s": (solve_time(passes), n),
        "slowest_job_s": (_median(largest), n),
        "setup_s": (_median(setups), len(setups)),
        "peak_rss_mb": (max((_median(v) for v in rss.values()), default=float("nan")), n),
    }


def _layers(p: dict) -> dict[str, float]:
    total: dict[str, float] = {}
    for j in p["jobs"]:
        for k, v in j.get("layers", {}).items():
            total[k] = total.get(k, 0) + v
    return total


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """metric -> (value, sample count), and the counters that did not
    repeat exactly between traced passes."""
    sums = [_layers(p) for p in traced]
    counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")} for s in sums]
    unsteady = sorted(k for c in counts[1:] for k in set(c) | set(counts[0])
                      if c.get(k) != counts[0].get(k))
    n = len(traced)
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            base = solve_time(untraced)
            out[name] = ((solve_time(traced) - base) / base, n)
        elif name == "linalg.rank_of_rows.useful_ratio":
            rows = counts[0].get("linalg.rank_of_rows.rows", 0)
            rank = counts[0].get("linalg.rank_of_rows.rank", 0)
            out[name] = (rank / rows if rows else 0.0, n)
        elif name.endswith(".self_s"):
            out[name] = (_median([s.get(name, 0.0) for s in sums]), n)
        else:
            out[name] = (counts[0].get(name, 0), n)
    return out, unsteady


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--wrong-reference", action="store_true",
                    help="self-test: check against a deliberately wrong reference")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "raag" / "__init__.py").is_file():
        print(f"error: no raag sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    reference = workloads.REFERENCE
    if args.wrong_reference:
        reference = workloads.wrong(reference)
    workload, paths = workloads.build(
        args.workload, args.seed, RESULTS / f"inputs-{args.workload}", reference)
    spans_dir = RESULTS / "spans" / args.workload
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)

    # parent and jobs share one CPU, so the sampler measures the CPU the
    # jobs run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    warmup_rc = warm_up(workload.jobs[0].spec(paths))

    modes = [False, True] if args.trace else [False]
    passes: list[dict] = []
    with SpeedSampler() as sampler:
        t0 = time.monotonic()
        while True:
            round_start = time.monotonic()
            for traced in modes:
                first_traced = traced and not any(p["traced"] for p in passes)
                passes.append(run_pass(workload, paths, traced, deadline,
                                       spans_dir if first_traced else None,
                                       sampler))
            modes.reverse()  # alternate which side of a pair runs first
            # stop before a round that would end after --seconds
            now = time.monotonic()
            took = now - round_start
            if now - t0 + took > args.seconds or now + took > deadline:
                break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    if args.trace:
        metrics, unsteady = per_layer(untraced, traced)
        units = PER_LAYER
    else:
        metrics, unsteady = end_to_end(workload, untraced), []
        units = END_TO_END
    correct = not failed and not unsteady

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "sample_nominal_ns": SAMPLE_NOMINAL_NS,
        "sample_exponent": SAMPLE_EXPONENT,
        "machine": platform.machine(),
        "inputs": paths,
        "warmup_exit": warmup_rc,
        "passes": passes,
        "spans_dir": spans_dir.relative_to(ROOT).as_posix() if args.trace else None,
        "unsteady_counters": unsteady,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    for j in failed:
        print(f"FAILED {j['job']}: {j.get('reason')}")
    for k in unsteady:
        print(f"UNSTEADY counter {k}: differs between traced passes")
    for k, (v, n) in metrics.items():
        print(f"{k:40s} {v:>14.6g} {units[k]:6s} n={n}")
    print(f"record: {out_path.relative_to(ROOT).as_posix()}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        # a metric without samples (its jobs all failed) prints as null
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, (v, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

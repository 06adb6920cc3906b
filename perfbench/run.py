#!/usr/bin/env python3
"""Benchmark of diskmag: times, checks and traces three workloads.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
and the table references from ``tests/refdata.py``.  Each round of a
workload runs in a fresh single-threaded process (worker.py) with an
empty cache; rounds repeat the same inputs until the next one would end
after ``--seconds``, then a few set-up-only processes measure ``setup_s``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced rounds, alternated with untraced rounds whose wall
time gives the tracing overhead.  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}; the line before
it, also written to ``perfbench/results/``, is the full record: every
round, the failed crosscheck points, the tables' sha256 digests and the
machine.  See README.md for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curves", "tables", "crosscheck")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "richardson.s":
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    if name.endswith("_per_miss"):
        return "evals/miss"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


class RoundFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update((var, "1") for var in THREAD_VARS)
    return env


def run_worker(workload: str, seed: int, trace: bool, probe: bool,
               timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--spawned", repr(time.time())]
    if probe:
        cmd.append("--probe")
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{workload} round exceeded {timeout:.0f} s") from exc
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited {out.returncode}:\n"
                          f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds until the next one would end after ``seconds``, then the
    set-up probes."""
    start = time.monotonic()
    deadline = start + seconds

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    rounds, longest = [], 0.0
    while True:
        traced = trace and len(rounds) % 2 == 0
        t0 = time.monotonic()
        result = run_worker(workload, seed, traced, False, remaining())
        longest = max(longest, time.monotonic() - t0)
        result["traced"] = traced
        rounds.append(result)
        need_untraced = trace and len(rounds) < 2
        if not need_untraced and time.monotonic() + longest > deadline:
            break
    probes = [run_worker(workload, seed, False, True, remaining())
              for _ in range(SETUP_PROBES)]
    return {"probes": probes, "rounds": rounds,
            "elapsed_s": time.monotonic() - start}


def _decile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(probes: list[dict], rounds: list[dict]) -> dict:
    """Medians over rounds (and set-up probes), so that the values do not
    depend on how many rounds fitted in the run."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in probes + rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "ok_frac": 1.0 - failed / attempted,
        "point_p50_ms": statistics.median(
            _decile(r["latencies_ms"], 5) for r in rounds),
        "point_p90_ms": statistics.median(
            _decile(r["latencies_ms"], 9) for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Counts of the first traced round (they must repeat in every traced
    round), median seconds over traced rounds, and the tracing overhead."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    problems = []
    values = {}
    for name, first in traced[0]["layers"].items():
        seen = [r["layers"][name] for r in traced]
        if per_layer_unit(name) == "s":
            values[name] = statistics.median(seen)
        else:
            values[name] = first
            if any(v != first for v in seen):
                problems.append(f"{name} differs between traced rounds: {seen}")
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return ({name: {"value": v, "unit": per_layer_unit(name)}
             for name, v in values.items()}, problems)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_caps": dict.fromkeys(THREAD_VARS, 1),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record, result line included."""
    m = measure(workload, seed, seconds, trace)
    rounds = m["rounds"]
    problems = [f"unexpected failure: {u}" for r in rounds for u in r["unexpected"]]
    problems += [p for r in rounds for p in r["trace_problems"]]
    if any(r["digests"] != rounds[0]["digests"] for r in rounds):
        problems.append("tables output digests differ between rounds")
    if trace:
        metrics, repeat_problems = per_layer(rounds)
        problems += repeat_problems
    else:
        metrics = end_to_end(m["probes"], rounds)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "elapsed_s": m["elapsed_s"],
        "result": result,
        "problems": problems,
        "fail_frac": result["failed"] / result["attempted"],
        "failures": rounds[0]["failures"],
        "digests": rounds[0]["digests"],
        "point_samples": sum(len(r["latencies_ms"]) for r in rounds),
        "setup_probes": m["probes"],
        "rounds": [{key: r[key] for key in ("traced", "setup_s", "setup_raw_s", "wall_s",
                                            "wall_raw_s", "kernel_s", "rss_mb",
                                            "attempted", "failed", "layers")}
                   for r in rounds],
    }


def save(record: dict) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "diskmag" / "__init__.py", ROOT / "tests" / "refdata.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"run.py: not a diskmag checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            save(record)
            records.append(record)
    except RoundFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for record in records:
        for problem in record["problems"]:
            print(f"{record['workload']}: {problem}", file=sys.stderr)
        for metric, v in record["result"]["metrics"].items():
            print(f"{record['workload']:<11} {metric:<36} {v['value']:>14.6g} {v['unit']}")
        print(f"{record['workload']:<11} attempted {record['result']['attempted']}"
              f", failed {record['result']['failed']}"
              f", correct {record['result']['correct']}")
    if len(records) == 1:
        print(json.dumps({key: records[0][key] for key in
                          ("workload", "seed", "fail_frac", "failures", "digests",
                           "machine", "problems")}))
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

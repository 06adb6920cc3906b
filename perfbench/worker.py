"""One round of one workload in a fresh process, reported as a JSON line.

run.py starts this file once per round, with BLAS and OpenMP capped at
one thread, so every round pays the imports and fills the eigenvalue
cache from empty, as every ``diskmag`` run does.  ``--probe`` stops
after set-up and only reports its duration.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
import types
from pathlib import Path

import workloads
from refclock import RefClock, speed_factor
from tracing import Tracer

DISKMAG_MODULES = ("cli", "crossings", "degennes", "errors", "fd", "spectrum")


def import_diskmag() -> types.SimpleNamespace:
    src = workloads.ROOT / "src"
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"diskmag.{name}")
               for name in DISKMAG_MODULES}
    where = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"diskmag imported from {where}, not from {src}")
    return types.SimpleNamespace(**modules)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    dm = import_diskmag()
    work_dir = workloads.HERE / "_work" / str(os.getpid())
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, work_dir)
        setup_raw_s = time.time() - args.spawned
        setup_s = setup_raw_s * speed_factor()
        if args.probe:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        cache = dm.spectrum._lowest_eigenvalue_cached
        before = cache.cache_info()
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            with RefClock() as clock:
                t0 = time.perf_counter()
                result = workloads.WORKLOADS[args.workload](dm, inputs, tracer)
                t1 = time.perf_counter()
            info = cache.cache_info()
            layers, problems = {}, []
            if tracer:
                layers, problems = tracer.layer_metrics(
                    (info.hits - before.hits, info.misses - before.misses),
                    result.bytes_written, clock.ref)
        finally:
            if tracer:
                tracer.restore()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    starts, ends = zip(*result.op_times)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": float(clock.ref(t1) - clock.ref(t0)),
        "wall_raw_s": t1 - t0,
        "kernel_s": clock.raw_kernel_s(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ms": (1e3 * (clock.ref(ends) - clock.ref(starts))).tolist(),
        "attempted": result.attempted,
        "failed": result.failed,
        "unexpected": result.unexpected,
        "failures": result.failures,
        "digests": result.digests,
        "bytes_written": result.bytes_written,
        "layers": layers,
        "trace_problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

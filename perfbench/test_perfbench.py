"""Self-tests of the benchmark harness (not of diskmag).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from refclock import INTERVAL_S, REF_KERNEL_S, RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import import_diskmag  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def dm():
    return import_diskmag()


def _bindings() -> dict:
    return {(name, key): value for name, mod in sorted(sys.modules.items())
            if name.startswith("diskmag") for key, value in vars(mod).items()}


def test_draw_is_reproducible_from_its_seed():
    assert workloads.crosscheck_draw(7) == workloads.crosscheck_draw(7)
    assert workloads.crosscheck_draw(7) != workloads.crosscheck_draw(8)
    assert workloads.curves_points(7) == workloads.curves_points(7)
    assert workloads.curves_points(7) != workloads.curves_points(8)


def test_draw_covers_the_whole_domain():
    points, crossings = workloads.crosscheck_draw(3)
    assert len(points) == workloads.CROSS_LATTICE[0]
    assert all(0 <= n <= 400 and n < beta <= 900.0 for n, beta in points)
    # not narrowed: the eta >> 1 region beta <= 2n is drawn too
    assert any(beta <= 2 * n for n, beta in points)
    assert all(0 <= n < 400 for n in crossings)
    assert sorted(workloads.curves_points(3)) == sorted(workloads.curves_points(4))


def test_curves_reference_covers_the_grid():
    ref = workloads.load_curves_ref()
    assert len(ref) == len(workloads.CURVES_MODES) * len(workloads.CURVES_BETAS)


def test_tracer_wraps_every_binding_and_restores_them(dm):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        patched = set(tracer.patched())
        for binding in [("diskmag.spectrum", "kummer_ratio_shift_b"),
                        ("diskmag.crossings", "kummer_ratio_shift_b"),
                        ("diskmag.fd", "solve_smallest"),
                        ("diskmag.degennes", "solve_smallest"),
                        ("diskmag.crossings", "lowest_eigenvalue"),
                        ("diskmag.derivatives", "lowest_eigenvalue"),
                        ("diskmag.cli", "lowest_eigenvalue"),
                        ("diskmag", "lowest_eigenvalue")]:
            assert binding in patched
        assert dm.spectrum.lowest_eigenvalue is not before[
            ("diskmag.spectrum", "lowest_eigenvalue")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_calls(dm, tracer):
    cache = dm.spectrum._lowest_eigenvalue_cached
    cache.cache_clear()
    tracer.install()
    try:
        dm.spectrum.lowest_eigenvalue(3, 5.0)
        dm.spectrum.lowest_eigenvalue(3, 5.0)
        dm.fd.fd_disk_lambda(3, 5.0, count=101)
        info = cache.cache_info()
        return tracer.layer_metrics((info.hits, info.misses), 0)
    finally:
        tracer.restore()


def test_traced_counts_agree_with_the_cache(dm):
    metrics, problems = _traced_calls(dm, Tracer())
    assert problems == []
    assert metrics["spectrum.eig_calls"] == 2
    assert metrics["spectrum.eig_cache_hits"] == 1
    assert metrics["spectrum.eig_cache_misses"] == 1
    assert metrics["kummer.ratio_calls"] == metrics["spectrum.residual_evals"] > 0
    assert metrics["fd.solves"] == 2
    assert metrics["fd.nodes_solved"] == 100 + 200


def test_consistency_check_catches_an_untraced_binding(dm):
    tracer = Tracer()
    original = dm.spectrum.kummer_ratio_shift_b
    real_install = tracer.install

    def install_missing_one():
        real_install()
        dm.spectrum.kummer_ratio_shift_b = original  # left untraced

    tracer.install = install_missing_one
    _, problems = _traced_calls(dm, tracer)
    assert dm.spectrum.kummer_ratio_shift_b is original
    assert any("spectrum.residual" in p for p in problems)


def test_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    layers, _ = Tracer().layer_metrics((0, 0), 0)
    emitted = {name: run.per_layer_unit(name)
               for name in [*layers, "trace.overhead_frac"]}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == emitted
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_refclock_samples_while_active_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with RefClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * INTERVAL_S:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.raw_kernel_s()) >= 4  # entry, >= 2 alarms, exit
    # the kernel's own time is not counted as work, the rest is rescaled
    samples = clock.raw_kernel_s()
    work = t1 - t0 - sum(samples[1:-1])
    expected = work * REF_KERNEL_S * len(samples) / sum(samples)
    assert abs(clock.ref(t1) - clock.ref(t0) - expected) < 0.2 * expected

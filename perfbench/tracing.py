"""Span tracing of diskmag's public functions, installed from outside.

The package is not modified: :meth:`Tracer.install` replaces each traced
function by a recording wrapper in every ``diskmag`` module namespace
that holds it (``from .kummer import kummer_ratio_shift_b`` leaves one
copy of the name in ``spectrum`` and one in ``crossings``, and both must
be replaced), and :meth:`Tracer.restore` puts every original back.

A span is (name, start, end, parent), where the parent is the innermost
traced span open when the call began; each span may also carry one
numeric tag (the Kummer argument class, the eigensolve size).  Spans are
kept in flat arrays, so the ~10^6 spans of one curves round cost tens of
MB, and are reduced to per-layer counts, inclusive and self times only
after the timed part has ended.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

_KUMMER_NUMPY_Z = 100.0  # kummer.py switches to its numpy path above this z


def _ratio_tag(args, kwargs) -> float:
    z = args[2] if len(args) > 2 else kwargs["z"]
    return 1.0 if z > _KUMMER_NUMPY_Z else 0.0


def _nodes_tag(args, kwargs) -> float:
    system = args[0] if args else kwargs["system"]
    return float(len(system.diag))


# (module, public function, span name, tag); every name a diskmag module
# binds to one of these functions is replaced while the tracer is installed
TRACED = (
    ("kummer", "kummer_ratio_shift_b", "kummer.ratio", _ratio_tag),
    ("kummer", "kummer_m", "kummer.m", None),
    ("spectrum", "boundary_residual", "spectrum.residual", None),
    ("spectrum", "lowest_eigenvalue", "spectrum.eig", None),
    ("spectrum", "eigenfunction", "spectrum.eigfn", None),
    ("spectrum", "ground_state", "spectrum.ground_state", None),
    ("fd", "solve_smallest", "fd.solve", _nodes_tag),
    ("fd", "fd_disk_lambda", "fd.disk_lambda", None),
    ("degennes", "compute_constants", "degennes.constants", None),
    ("degennes", "minimize_theta0", "degennes.theta0", None),
    ("degennes", "lambda_dg", "degennes.lambda_dg", None),
    ("crossings", "crossings_range", "crossings.range", None),
    ("crossings", "crossing_by_system", "crossings.system", None),
    ("crossings", "crossing_by_phi", "crossings.phi", None),
    ("crossings", "crossing_by_curves", "crossings.curves", None),
    ("derivatives", "lambda_prime", "derivatives.lambda_prime", None),
    ("derivatives", "conjecture_scan", "derivatives.scan", None),
    ("richardson", "richardson_iterate", "richardson.iterate", None),
    ("richardson", "gamma_sequence", "richardson.gamma", None),
    ("richardson", "r4_gamma", "richardson.r4_gamma", None),
)

# the tables stages, each timed by the benchmark around its cli.main call
CLI_STAGES = ("constants", "crossings", "richardson", "derivatives",
              "conjectures")

SPAN_NAMES = tuple(t[2] for t in TRACED) + tuple(f"cli.{s}" for s in CLI_STAGES)


def _diskmag_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "diskmag" or name.startswith("diskmag.")]


class Tracer:
    """Records spans of the traced diskmag functions and of benchmark stages."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.tags = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int, tag: float) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.tags.append(tag)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, tag):
        # _open and _close inlined: this runs ~10^6 times per curves round
        name_id = self._ids[name]
        names, parents, tags = self.names, self.parents, self.tags
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            tags.append(tag(args, kwargs) if tag is not None else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself (one tables stage)."""
        idx = self._open(self._ids[name], 0.0)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every diskmag binding of each traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _diskmag_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for mod_name, attr, span, tag in TRACED:
            home = by_name.get(f"diskmag.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self) -> None:
        """Put every patched attribute back to its original function."""
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def patched(self) -> list[tuple[str, str]]:
        return [(mod.__name__, key) for mod, key, _ in self._patched]

    # -- reduction ---------------------------------------------------------

    def summary(self, to_ref=None) -> dict:
        """Per-span-name counts, inclusive and self seconds, tag sums, and
        counts of (child, parent) name pairs; ``to_ref`` maps raw
        perf_counter stamps to the seconds reported."""
        k = len(SPAN_NAMES)
        names = np.frombuffer(self.names, dtype=np.intc).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        starts, ends = np.frombuffer(self.starts), np.frombuffer(self.ends)
        if to_ref is not None:
            starts, ends = to_ref(starts), to_ref(ends)
        dur = ends - starts
        tags = np.frombuffer(self.tags)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=len(names))
        parent_name = np.full(len(names), k, dtype=np.int64)
        parent_name[has_parent] = names[parents[has_parent]]
        pairs = np.bincount(names * (k + 1) + parent_name,
                            minlength=k * (k + 1)).reshape(k, k + 1)
        residual = self._ids["spectrum.residual"]
        eig_with_residual = np.unique(
            parents[(names == residual) & has_parent])
        rich = np.array([i for n, i in self._ids.items()
                         if n.startswith("richardson.")])
        outer_rich = np.isin(names, rich) & ~np.isin(parent_name, rich)
        return {
            "count": np.bincount(names, minlength=k),
            "total": np.bincount(names, weights=dur, minlength=k),
            "self": np.bincount(names, weights=dur - child_time, minlength=k),
            "tag": np.bincount(names, weights=tags, minlength=k),
            "pairs": pairs,
            "eig_misses_seen": int(np.sum(
                names[eig_with_residual] == self._ids["spectrum.eig"])),
            "solves_in_degennes": self._solves_in_degennes(names, parents),
            "richardson_outer_s": float(np.sum(dur[outer_rich])),
        }

    def _solves_in_degennes(self, names, parents) -> int:
        solve = self._ids["fd.solve"]
        degennes = {i for n, i in self._ids.items() if n.startswith("degennes.")}
        found = 0
        for idx in np.flatnonzero(names == solve):
            p = parents[idx]
            while p >= 0 and names[p] not in degennes:
                p = parents[p]
            found += int(p >= 0)
        return found

    def layer_metrics(self, cache_delta: tuple[int, int], bytes_written: int,
                      to_ref=None) -> tuple[dict, list[str]]:
        """The per-layer metrics of one traced round and the consistency
        problems found; ``cache_delta`` is (hits, misses) of the
        lowest-eigenvalue cache over the round, read from cache_info()."""
        s = self.summary(to_ref)
        ids = self._ids

        def count(name):
            return int(s["count"][ids[name]])

        def total(name):
            return float(s["total"][ids[name]])

        def pair(child, parent):
            return int(s["pairs"][ids[child], ids[parent]])

        eig_calls = count("spectrum.eig")
        misses = s["eig_misses_seen"]
        residuals = count("spectrum.residual")
        m = {
            "kummer.ratio_calls": count("kummer.ratio"),
            "kummer.ratio_calls_z_gt_100": int(s["tag"][ids["kummer.ratio"]]),
            "kummer.ratio_s": total("kummer.ratio"),
            "kummer.m_calls": count("kummer.m"),
            "kummer.m_s": total("kummer.m"),
            "spectrum.eig_calls": eig_calls,
            "spectrum.eig_cache_hits": eig_calls - misses,
            "spectrum.eig_cache_misses": misses,
            "spectrum.eig_hit_ratio": (eig_calls - misses) / eig_calls if eig_calls else 0.0,
            "spectrum.residual_evals": residuals,
            "spectrum.residual_evals_per_miss": residuals / misses if misses else 0.0,
            "spectrum.eig_self_s": float(s["self"][ids["spectrum.eig"]]),
            "spectrum.eigfn_calls": count("spectrum.eigfn"),
            "spectrum.eigfn_s": total("spectrum.eigfn"),
            "spectrum.ground_state_calls": count("spectrum.ground_state"),
            "spectrum.ground_state_s": total("spectrum.ground_state"),
            "fd.solves": count("fd.solve"),
            "fd.solve_s": total("fd.solve"),
            "fd.nodes_solved": int(s["tag"][ids["fd.solve"]]),
            "fd.disk_lambda_calls": count("fd.disk_lambda"),
            "fd.disk_lambda_s": total("fd.disk_lambda"),
            "degennes.constants_s": total("degennes.constants"),
            "degennes.theta0_calls": count("degennes.theta0"),
            "degennes.theta0_s": total("degennes.theta0"),
            "degennes.lambda_dg_calls": count("degennes.lambda_dg"),
            "degennes.fd_solves": s["solves_in_degennes"],
            "crossings.range_calls": count("crossings.range"),
            "crossings.range_s": total("crossings.range"),
            "crossings.system_calls": count("crossings.system"),
            "crossings.system_s": total("crossings.system"),
            "crossings.fallbacks": pair("crossings.curves", "crossings.system"),
            "crossings.phi_calls": count("crossings.phi"),
            "crossings.phi_s": total("crossings.phi"),
            "crossings.curves_calls": count("crossings.curves"),
            "crossings.curves_s": total("crossings.curves"),
            "derivatives.lambda_prime_calls": count("derivatives.lambda_prime"),
            "derivatives.lambda_prime_s": total("derivatives.lambda_prime"),
            "derivatives.scan_s": total("derivatives.scan"),
            "richardson.s": s["richardson_outer_s"],
        }
        for stage in CLI_STAGES:
            m[f"cli.{stage}_s"] = total(f"cli.{stage}")
        m["cli.bytes_written"] = int(bytes_written)

        hits, cache_misses = cache_delta
        problems = []
        if misses != cache_misses:
            problems.append(f"spectrum.eig_cache_misses {misses} != "
                            f"cache_info().misses {cache_misses}")
        if eig_calls != hits + cache_misses:
            problems.append(f"spectrum.eig_calls {eig_calls} != cache_info() "
                            f"hits + misses {hits + cache_misses}")
        # each layer that ran must show the calls it makes through a traced
        # name imported into its own namespace
        for parent, child in (("spectrum.residual", "kummer.ratio"),
                              ("crossings.system", "kummer.ratio"),
                              ("fd.disk_lambda", "fd.solve"),
                              ("degennes.lambda_dg", "fd.solve"),
                              ("crossings.curves", "spectrum.eig"),
                              ("derivatives.lambda_prime", "spectrum.eig")):
            if count(parent) and not pair(child, parent):
                problems.append(f"{parent} ran but no {child} span below it: "
                                f"a binding was not traced")
        problems += [f"traced function missing: {name}" for name in self.missing]
        return m, problems

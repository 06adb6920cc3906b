"""Solver configuration: tolerances, grids and output policy.

A single frozen dataclass is threaded through every module so that results
are deterministic and cacheable.  The defaults reproduce the full
acceptance suite unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path


@dataclass(frozen=True)
class SolverConfig:
    # Kummer series
    series_rel_tol: float = 1e-16
    max_terms: int = 0            # 0 = automatic budget 20*(z + 50)

    # quadrature (integral representation, eigenfunction norms)
    quad_rel_tol: float = 1e-12

    # crossing solvers
    cross_rel_tol: float = 1e-13
    newton_max_iter: int = 50

    # finite-difference oracles
    fd_grid_count: int = 4001
    degennes_grid_count: int = 8001
    degennes_L: float = 15.0

    # scan ranges
    n_max: int = 400
    beta_grid_spec: tuple[float, float, float] = (0.5, 900.0, 0.5)

    # cross-check tolerances
    const_tol: float = 2e-3

    # reporting
    output_dir: str = "out"
    format: str = "csv"

    def __post_init__(self) -> None:
        if min(self.series_rel_tol, self.quad_rel_tol, self.cross_rel_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        start, stop, step = self.beta_grid_spec
        if step <= 0 or stop < start:
            raise ValueError(f"beta grid {start}:{stop}:{step} needs step > 0 "
                             f"and stop >= start")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")

    def series_budget(self, z: float) -> int:
        """Term budget for the Kummer series at argument z."""
        if self.max_terms > 0:
            return self.max_terms
        return int(20.0 * (z + 50.0))

    def beta_grid(self) -> list[float]:
        start, stop, step = self.beta_grid_spec
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count)]


DEFAULT_CONFIG = SolverConfig()

_FIELD_TYPES = {f.name: f.type for f in fields(SolverConfig)}


def parse_beta_grid(raw: str) -> tuple[float, float, float]:
    """START:STOP:STEP (or START,STOP,STEP) as three floats."""
    parts = raw.replace(":", ",").split(",")
    if len(parts) != 3:
        raise ValueError(f"beta grid wants START:STOP:STEP, got {raw!r}")
    return tuple(float(p) for p in parts)


def _parse_value(name: str, raw: str):
    if name == "beta_grid_spec":
        return parse_beta_grid(raw)
    return {"int": int, "str": str}.get(_FIELD_TYPES[name], float)(raw)


def load_config(path: str | Path, **overrides) -> SolverConfig:
    """Read a flat ``key = value`` config file; keyword overrides win."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    values.update(overrides)
    return SolverConfig(**values)


def with_overrides(config: SolverConfig, **overrides) -> SolverConfig:
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **overrides) if overrides else config

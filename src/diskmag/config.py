"""Run options of the ``diskmag`` command: scan ranges and output policy.

Only the command line reads a config.  The numerical settings
(tolerances, grid sizes, term budgets) are constants of the modules that
use them, so every memo keys on mathematical arguments alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path


@dataclass(frozen=True)
class SolverConfig:
    # scan ranges
    n_max: int = 400
    beta_grid_spec: tuple[float, float, float] = (0.5, 900.0, 0.5)

    # reporting
    output_dir: str = "out"
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        start, stop, step = self.beta_grid_spec
        if step <= 0 or stop < start:
            raise ValueError(f"beta grid {start}:{stop}:{step} needs step > 0 "
                             f"and stop >= start")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")

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
    return int(raw) if _FIELD_TYPES[name] == "int" else raw


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

"""Richardson extrapolation in powers of n^{-1/2}.

A sequence y_n = L + c n^{-k/2} + O(n^{-(k+1)/2}) turns into
z_n = (2^{k/2} y_{2n} - y_n) / (2^{k/2} - 1) = L + O(n^{-(k+1)/2});
applying the step for k = 1..4 leaves an O(n^{-5/2}) remainder at the
cost of consuming indices without a partner at 2n.  A sequence is a
plain dict {n: y_n}.
"""

from __future__ import annotations

import math

from .crossings import CrossingPoint
from .errors import InsufficientData, InvalidParams


def richardson_step(seq: dict[int, float], k: int) -> dict[int, float]:
    """One extrapolation step eliminating the n^{-k/2} error term.

    Index 0 never has a distinct partner at 2n and carries no n^{-1/2}
    scale, so it is always consumed.
    """
    if k < 1:
        raise InvalidParams("power index k must be >= 1")
    if not all(math.isfinite(v) for v in seq.values()):
        raise InvalidParams("sequence values must be finite")
    factor = 2.0 ** (0.5 * k)
    out = {n: (factor * seq[2 * n] - y) / (factor - 1.0)
           for n, y in seq.items() if n >= 1 and 2 * n in seq}
    if not out:
        raise InsufficientData("no index n >= 1 with 2n present")
    return out


def richardson_iterate(seq: dict[int, float], depth: int = 4) -> dict[int, float]:
    """Successive steps k = 1 .. depth."""
    for k in range(1, depth + 1):
        seq = richardson_step(seq, k)
    return seq


def r4(seq: dict[int, float]) -> dict[int, float]:
    """Four-fold extrapolation: an entry at each n >= 1 whose whole chain
    n, 2n, ..., 16n lies in seq, and {} where no n has one.  The tables
    leave an R4 cell blank exactly where this has no entry."""
    try:
        return richardson_iterate(seq, 4)
    except InsufficientData:
        return {}


def gamma_sequence(crossings: list[CrossingPoint]) -> dict[int, float]:
    """gamma_n = beta_{n+1} - beta_n over consecutive crossings."""
    for expected, point in enumerate(crossings):
        if point.n != expected:
            raise InvalidParams("crossings must be consecutive from n = 0")
    return {p.n: q.beta_n - p.beta_n for p, q in zip(crossings, crossings[1:])}


def r4_gamma(crossings: list[CrossingPoint]) -> dict[int, float]:
    """Four-fold extrapolation of the gap sequence, gamma_0 excluded."""
    gammas = gamma_sequence(crossings)
    return r4({n: g for n, g in gammas.items() if n >= 1})

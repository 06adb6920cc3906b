"""Checks of the closed-form asymptotic coefficients of the crossing data.

Each builder returns (sequence, target): a {n: y_n} dict over the
crossings with n >= 1, and the limit the De Gennes constants give it.
"""

import math

import numpy as np

from diskmag.errors import InsufficientData
from diskmag.richardson import richardson_iterate, richardson_step


def limits(seq: dict[int, float]) -> tuple[float, float]:
    """(depth-4 limit, depth-3 limit), each at the largest surviving index."""
    r3 = richardson_iterate(seq, 3)
    r4 = richardson_step(r3, 4)
    return r4[max(r4)], r3[max(r3)]


def loglog_slope(seq: dict[int, float], offset: float, n_min: int = 12) -> float:
    """Least-squares slope of log|y_n - offset| against log n for n >= n_min."""
    pts = [(n, abs(v - offset)) for n, v in seq.items()
           if n >= n_min and v != offset]
    if len(pts) < 2:
        raise InsufficientData(f"need >= 2 entries with n >= {n_min}")
    slope, _ = np.polyfit(np.log([n for n, _ in pts]),
                          np.log([v for _, v in pts]), 1)
    return float(slope)


def beta_residual(crossings, constants):
    """beta_n - 2n - xi1 sqrt(n) -> kappa0 = 1 - 2 delta0 + 2 xi0^2, with
    xi1 = -2^{3/2} xi0."""
    xi1 = -2.0 ** 1.5 * constants.xi0
    kappa0 = 1.0 - 2.0 * constants.delta0_formula + 2.0 * constants.xi0 ** 2
    return ({p.n: p.beta_n - 2.0 * p.n - xi1 * math.sqrt(p.n)
             for p in crossings if p.n >= 1}, kappa0)


def eta_deficit(crossings, constants):
    """(Theta0 - eta_n*) sqrt(beta_n) -> C1."""
    return ({p.n: (constants.theta0 - p.eta_star) * math.sqrt(p.beta_n)
             for p in crossings if p.n >= 1}, constants.c1)


def eta_deficit_next_order(crossings, constants):
    """(Theta0 - eta_n*) beta_n - C1 sqrt(beta_n) -> -3 C1 sqrt(Theta0)
    (1/4 + C0), with C0 from the lambda2 fit."""
    theta0, c1 = constants.theta0, constants.c1
    return ({p.n: (theta0 - p.eta_star) * p.beta_n - c1 * math.sqrt(p.beta_n)
             for p in crossings if p.n >= 1},
            -3.0 * c1 * math.sqrt(theta0) * (0.25 + constants.c0_fit))


def delta_at_crossings(crossings, constants, shift: int):
    """delta(n + shift, beta_n) = n + shift - beta_n/2 - xi0 sqrt(beta_n)
    -> delta0 - 1/2 + shift; shift 0 is the outgoing branch, 1 the incoming."""
    return ({p.n: p.n + shift - 0.5 * p.beta_n - constants.xi0 * math.sqrt(p.beta_n)
             for p in crossings if p.n >= 1},
            constants.delta0_formula - 0.5 + shift)

"""Derivatives of the eigenvalue curves and the conjecture scans.

The Feynman-Hellmann route expresses the beta-derivative through the
boundary trace of the normalized eigenfunction,

    lambda'(n, beta) = lambda/beta
        - (lambda - (n - beta/2)^2) f_{n,beta}(1)^2 / (2 beta),

which costs one eigensolve plus one normalization integral and is
cross-checked against a central difference of lambda(n, .).  At a
crossing the left/right derivatives of the ground-state envelope are
the two branch derivatives; their large-n limits are Theta0 +- (3/2)
C1 |xi0|, which the four-fold Richardson extrapolation verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .crossings import CrossingPoint, crossings_range
from .errors import IllConditioned, InsufficientData, InvalidParams
from .kummer import _MAX_REL_ERR
from .richardson import r4
from .spectrum import eigenfunction, ground_state, lowest_eigenvalue, mode_index


@dataclass(frozen=True)
class DerivativeRecord:
    """lambda'(n, beta) with its cross-validation gap.

    ``fh_vs_fd_gap`` is |formula - central difference|; NaN when the
    caller skipped the finite-difference check.
    """

    n: int
    beta: float
    dlambda: float
    boundary_trace_sq: float
    fh_vs_fd_gap: float


def lambda_prime(n: int, beta: float, cross_check: bool = True) -> DerivativeRecord:
    """Feynman-Hellmann derivative of lambda(n, .) at beta.

    The trace is the eigenfunction's at the point's own nu, which at
    beta > 2n lies below the resolution of 1 - eta (3.8e-42 at (0, 200)).
    Raises InvalidParams as lowest_eigenvalue does, and for beta = 0.

    The check takes the central difference of step h = min(1e-5 s, beta/2),
    s = max(1, beta), so beta - h stays positive, and raises IllConditioned
    where the gap exceeds that difference's error bound, the sum of:
      - truncation, h^2 |lambda^(3)| / 6.  lambda bends on the boundary-
        layer scale sqrt(beta) about beta = 2n, so |lambda^(3)| scales as
        max(1, |lambda'|)/s: at most 1.1 times that on the probe grid n in
        {0, 1, 3, 10, 30, 100, 200, 400} x beta in 0.05..900.  The bound
        takes h^2 max(1, |lambda'|)/s, a 5x margin.
      - rounding: that of lambda(beta + h) and lambda(beta - h) over 2h,
        each taken good to 1e-12 of max(lambda, beta).  At eta >> 1 lambda
        rests on the Kummer recurrence, trusted to its error bound 1e-12;
        Brent's 4 eps stop bounds nothing there (lambda was off by up to
        85 eps on the probe grid).  At beta > 2n eta is good to ~eps
        absolute, hence max(lambda, beta).
    On the probe grid plus (300, 1) the six points that raise lie >= 36x
    outside the bound, the others <= 0.08 of it.  Among those, (100, 0.5)
    and (100, 2), whose lambda' the quadrature mesh misses by 6.8e-7 and
    1.7e-7 relative, pass: the rounding part there is 1.1e-5 and 5.3e-6
    of |lambda'|, so a 1e-5 step cannot resolve them.
    """
    point = lowest_eigenvalue(n, beta)
    n, beta = point.n, point.beta
    trace_sq = eigenfunction(point).boundary_trace ** 2
    dlam = point.lam / beta \
        - (point.lam - (n - 0.5 * beta) ** 2) * trace_sq / (2.0 * beta)
    gap = math.nan
    if cross_check:
        s = max(1.0, beta)
        h = min(1e-5 * s, 0.5 * beta)
        above = lowest_eigenvalue(n, beta + h).lam
        below = lowest_eigenvalue(n, beta - h).lam
        fd = (above - below) / (2.0 * h)
        gap = abs(dlam - fd)
        tol = (h * h * max(1.0, abs(dlam)) / s + _MAX_REL_ERR
               * (max(above, beta + h) + max(below, beta - h)) / (2.0 * h))
        if not gap <= tol:
            raise IllConditioned(
                f"lambda'({n}, {beta!r}): Feynman-Hellmann {dlam!r} and the "
                f"central difference {fd!r} differ by {gap:.3g} > {tol:.3g}")
    return DerivativeRecord(n, beta, dlam, trace_sq, gap)


def one_sided_derivatives(n: int, crossing: CrossingPoint) -> tuple[float, float]:
    """(lambda'_-, lambda'_+) of the ground-state envelope at beta_n.

    The left derivative is the outgoing branch lambda'(n, beta_n), the
    right one the incoming branch lambda'(n+1, beta_n); monotonicity of
    the envelope needs the right one positive.
    """
    left = lambda_prime(n, crossing.beta_n, cross_check=False).dlambda
    right = lambda_prime(n + 1, crossing.beta_n, cross_check=False).dlambda
    return left, right


@dataclass(frozen=True)
class ScanItem:
    """One conjecture-scan verdict with its extremal witness."""

    name: str
    passed: bool
    extremal: float
    witness: float


@dataclass(frozen=True)
class ConjectureReport:
    items: tuple[ScanItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def item(self, name: str) -> ScanItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def conjecture_scan(beta_grid, n_max: int, theta0: float) -> ConjectureReport:
    """Finite-range evidence for the three open conjectures.

    (a) eta(beta) < Theta0 on the grid; (b) the crossing ratios eta_n*
    increase; (c) the right derivative at every crossing is positive
    (the only candidates for envelope non-monotonicity, since each
    branch is analytic between crossings); (d) the coarse finite
    difference of lambda(beta) on the grid is positive throughout.
    (b) and (c) run over the memoized crossings_range(n_max).
    """
    betas = sorted(float(b) for b in beta_grid)
    if len(betas) < 2 or betas[0] <= 0.0:
        raise InsufficientData("beta grid needs >= 2 positive points")
    if n_max < 1:
        raise InsufficientData(f"n_max = {n_max} leaves < 2 crossings to scan")
    crossings = crossings_range(n_max)

    lams = []
    worst_eta, worst_eta_at = -math.inf, math.nan
    for beta in betas:
        point, _ = ground_state(beta)
        lams.append(point.lam)
        gap = point.eta - theta0
        if gap > worst_eta:
            worst_eta, worst_eta_at = gap, beta
    item_a = ScanItem("eta_below_theta0", worst_eta < 0.0, worst_eta, worst_eta_at)

    steps = [(q.eta_star - p.eta_star, p.n)
             for p, q in zip(crossings, crossings[1:])]
    min_step, min_step_at = min(steps)
    item_b = ScanItem("eta_star_increasing", min_step > 0.0, min_step, min_step_at)

    rights = [(lambda_prime(p.n + 1, p.beta_n, cross_check=False).dlambda, p.n)
              for p in crossings]
    min_right, min_right_at = min(rights)
    item_c = ScanItem("right_derivative_positive", min_right > 0.0,
                      min_right, min_right_at)

    slopes = [((l2 - l1) / (b2 - b1), 0.5 * (b1 + b2))
              for (b1, l1), (b2, l2) in zip(zip(betas, lams),
                                            zip(betas[1:], lams[1:]))]
    min_slope, min_slope_at = min(slopes)
    item_d = ScanItem("lambda_slope_positive", min_slope > 0.0,
                      min_slope, min_slope_at)

    return ConjectureReport((item_a, item_b, item_c, item_d))


def one_sided_chain(indices, n_max: int) -> tuple[dict[int, float], ...]:
    """(left, right, r4_left, r4_right): the sequences n -> lambda'(n, beta_n)
    and n -> lambda'(n+1, beta_n) over ``indices`` (0 <= n <= n_max) at the
    memoized crossings_range(n_max), and their :func:`~diskmag.richardson.r4`,
    which is empty unless the set holds some n, 2n, ..., 16n, n >= 1.
    Index 0 never changes an R4 entry: richardson_step consumes it.  An
    index that is not an integer >= 0 (mode_index) or exceeds n_max raises
    InvalidParams.
    """
    indices = sorted({mode_index(n, "indices") for n in indices})
    points = crossings_range(n_max)
    if indices and indices[-1] >= len(points):
        raise InvalidParams(f"indices={indices[-1]} exceeds n_max={n_max}")
    pairs = {n: one_sided_derivatives(n, crossing=points[n]) for n in indices}
    left = {n: lr[0] for n, lr in pairs.items()}
    right = {n: lr[1] for n, lr in pairs.items()}
    return left, right, r4(left), r4(right)

"""Brent's bracketed root finder (Brent 1973, *Algorithms for Minimization
Without Derivatives*, ch. 4), step for step the loop of scipy's
``brentq`` (``Zeros/brentq.c``), so it returns the same float after the
same function evaluations; it spares every process the 0.2 s import of
scipy's optimize package.

Each step takes inverse quadratic extrapolation or a secant step when it
is short enough, else bisects, and never moves less than
delta = (xtol + RTOL |x|)/2; the search stops once the bracket's
half-width is below delta.  The checks of scipy's Python wrapper are
kept, as SolverError subclasses.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import BracketFailure, InvalidParams, NonConvergence

RTOL = 4.0 * sys.float_info.epsilon  # of every solve: brentq's default and least rtol
_MAX_ITER = 100


def _value(f: Callable[[float], float], x: float, known=None) -> float:
    fx = float(f(x) if known is None else known)
    if math.isnan(fx):
        raise NonConvergence(f"root finder: the function is NaN at x={x!r}")
    return fx


def brent_root(f: Callable[[float], float], a: float, b: float, xtol: float,
               fa: float | None = None, fb: float | None = None) -> float:
    """A root of f in [a, b] as a float, to |error| <= xtol + RTOL |root|.

    ``fa`` and ``fb``, given, are the f(a) and f(b) it then does not call.
    Raises InvalidParams for xtol <= 0, BracketFailure when f(a) and f(b)
    are nonzero and of one sign, and NonConvergence when f is NaN or
    _MAX_ITER steps do not meet the tolerance.  The messages do not name
    the quantity solved for; a caller that needs it chains its own error.
    """
    xtol = float(xtol)
    if not xtol > 0.0:
        raise InvalidParams(f"root finder: xtol={xtol!r} must be > 0")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre, fa), _value(f, xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketFailure(f"root finder: f({xpre!r}) = {fpre!r} and "
                             f"f({xcur!r}) = {fcur!r} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        stry = math.inf  # bisect unless a short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C's x/0, inf or NaN, bisects too
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise NonConvergence(f"root finder: no convergence after {_MAX_ITER} "
                         f"iterations (last x={xcur!r})")

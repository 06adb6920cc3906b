"""Log-scaled real arithmetic.

Kummer values like M(nu, n+1, beta/2) reach magnitudes around e^422 at the
largest crossing points, so raw doubles are one curve away from overflow.
A ScaledReal stores (log|x|, sign) and keeps products, quotients and
ratios exact in the exponent for |log|x|| up to well beyond 1e6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScaledReal:
    """A real number as (natural log of magnitude, sign).

    ``sign == 0`` iff ``log_mag == -inf`` (the encoding of zero).
    """

    log_mag: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if (self.sign == 0) != (self.log_mag == -math.inf):
            raise ValueError("sign 0 must pair with log_mag -inf and vice versa")

    @classmethod
    def from_float(cls, x: float) -> "ScaledReal":
        if x == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def zero(cls) -> "ScaledReal":
        return cls(-math.inf, 0)

    def value(self) -> float:
        """Back to an ordinary float; may overflow to inf by design."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_mag)
        except OverflowError:
            return self.sign * math.inf

    def __mul__(self, other: "ScaledReal") -> "ScaledReal":
        if self.sign == 0 or other.sign == 0:
            return ScaledReal.zero()
        return ScaledReal(self.log_mag + other.log_mag, self.sign * other.sign)

    def __truediv__(self, other: "ScaledReal") -> "ScaledReal":
        if other.sign == 0:
            raise ZeroDivisionError("ScaledReal division by zero")
        if self.sign == 0:
            return ScaledReal.zero()
        return ScaledReal(self.log_mag - other.log_mag, self.sign * other.sign)

    def __neg__(self) -> "ScaledReal":
        return ScaledReal(self.log_mag, -self.sign)

    def ratio(self, other: "ScaledReal") -> float:
        """self/other as an ordinary float (the safe way to leave log space)."""
        return (self / other).value()

    def scaled_by(self, factor: float) -> "ScaledReal":
        """Multiply by an ordinary float."""
        return self * ScaledReal.from_float(factor)


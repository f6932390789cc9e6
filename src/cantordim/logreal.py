"""Signed reals stored in the natural-log domain with mpmath magnitudes.

A ``LogReal`` holds a sign and ln|x| as an arbitrary-precision real, so it
can represent quantities such as 10**-(10**100) whose linear form has an
exponent too long to ever materialize.  Addition uses log-sum-exp with an
absorb shortcut: once the gap between two log magnitudes exceeds the
ambient precision, the smaller addend is dropped outright instead of
evaluating exp() of an astronomically large argument.  The dominant term
is therefore never lost, whatever the scale gap.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .precision import ln_int

# Linear-domain conversion is refused beyond this log magnitude: above it
# the mpf exponent integer itself starts to get long (and is unbounded for
# the doubly-exponential probabilities this type exists to carry).
LINEAR_LOG_LIMIT = mpf("1e6")


def _absorb_gap() -> mpf:
    # exp(-gap) < 2**-(prec+4) contributes nothing at the ambient precision.
    return (mp.prec + 4) * mp.ln(2)


class LogReal:
    """A real number represented as (sign, ln|value|)."""

    __slots__ = ("sign", "log_mag")

    def __init__(self, sign: int, log_mag) -> None:
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {sign!r}")
        self.sign = sign
        self.log_mag = mpf("-inf") if sign == 0 else mpf(log_mag)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(0, mpf("-inf"))

    @classmethod
    def one(cls) -> "LogReal":
        return cls(1, mpf(0))

    @classmethod
    def from_log(cls, log_mag, sign: int = 1) -> "LogReal":
        """Value whose natural log of magnitude is ``log_mag``."""
        if sign == 0:
            return cls.zero()
        return cls(sign, log_mag)

    @classmethod
    def from_int(cls, n: int) -> "LogReal":
        if n == 0:
            return cls.zero()
        return cls(1 if n > 0 else -1, ln_int(abs(n)))

    @classmethod
    def from_fraction(cls, value) -> "LogReal":
        q = Fraction(value)
        if q == 0:
            return cls.zero()
        sign = 1 if q > 0 else -1
        return cls(sign, ln_int(abs(q.numerator)) - ln_int(q.denominator))

    @classmethod
    def from_mpf(cls, x) -> "LogReal":
        x = mpf(x)
        if x == 0:
            return cls.zero()
        return cls(1 if x > 0 else -1, mp.ln(abs(x)))

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.sign == 0

    def log(self) -> mpf:
        """ln|value|; -inf for zero."""
        return self.log_mag

    def to_mpf(self) -> mpf:
        """Linear-domain value as mpf.

        Raises OverflowError when |ln value| exceeds LINEAR_LOG_LIMIT;
        such values only exist meaningfully in the log domain.
        """
        if self.sign == 0:
            return mpf(0)
        if abs(self.log_mag) > LINEAR_LOG_LIMIT:
            raise OverflowError(
                f"log magnitude {self.log_mag} too extreme for a linear-domain value"
            )
        return self.sign * mp.exp(self.log_mag)

    # ---- arithmetic ----------------------------------------------------

    def __neg__(self) -> "LogReal":
        return LogReal(-self.sign, self.log_mag)

    def __mul__(self, other: "LogReal") -> "LogReal":
        if self.sign == 0 or other.sign == 0:
            return LogReal.zero()
        return LogReal(self.sign * other.sign, self.log_mag + other.log_mag)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.sign == 0:
            raise ZeroDivisionError("division by log-domain zero")
        if self.sign == 0:
            return LogReal.zero()
        return LogReal(self.sign * other.sign, self.log_mag - other.log_mag)

    def __add__(self, other: "LogReal") -> "LogReal":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.log_mag >= other.log_mag:
            big, small = self, other
        else:
            big, small = other, self
        gap = big.log_mag - small.log_mag
        if big.sign == small.sign:
            if gap > _absorb_gap():
                return big
            return LogReal(big.sign, big.log_mag + mp.log1p(mp.exp(-gap)))
        if gap == 0:
            return LogReal.zero()
        if gap > _absorb_gap():
            return big
        return LogReal(big.sign, big.log_mag + mp.log1p(-mp.exp(-gap)))

    def __sub__(self, other: "LogReal") -> "LogReal":
        return self + (-other)

    # ---- comparison and presentation ------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LogReal) and (self.sign, self.log_mag) == (other.sign, other.log_mag)

    def __hash__(self):
        return hash((self.sign, self.log_mag))

    def __repr__(self) -> str:
        return f"LogReal(sign={self.sign}, log_mag={self.log_mag})"


def log_sum(values) -> LogReal:
    """Sum of LogReals via repeated compensated log-sum-exp."""
    total = LogReal.zero()
    for v in values:
        total = total + v
    return total

"""Non-negative reals held as their natural logs.

Every probability and measure in the package is >= 0 and some are as small
as 10**-(10**100), whose linear form has an exponent too long to ever
materialize.  They are held as plain mpf values ln p, with ``LOG_ZERO``
(-inf) for 0: a product is a sum of logs, and the helpers here do the rest.
Addition uses log-sum-exp with an absorb shortcut: once the gap between two
logs exceeds the ambient precision, the smaller addend is dropped outright
instead of evaluating exp() of an astronomically large argument.  The
dominant term is therefore never lost, whatever the scale gap.

``LogReal`` is the value the oracles ``cylinder_measure_log`` and
``log_prefix_product`` return: one log, with a guarded linear form.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .precision import ln_int

LOG_ZERO = mpf("-inf")

# Linear-domain conversion is refused beyond this log magnitude: above it
# the mpf exponent integer itself starts to get long (and is unbounded for
# the doubly-exponential probabilities this module exists to carry).
LINEAR_LOG_LIMIT = mpf("1e6")


def _absorb_gap() -> mpf:
    # exp(-gap) < 2**-(prec+4) contributes nothing at the ambient precision.
    return (mp.prec + 4) * mp.ln(2)


def log_add(a: mpf, b: mpf) -> mpf:
    """ln(e**a + e**b)."""
    if a < b:
        a, b = b, a
    if b == LOG_ZERO:
        return a
    gap = a - b
    if gap > _absorb_gap():
        return a
    return a + mp.log1p(mp.exp(-gap))


def log_sub(a: mpf, b: mpf) -> mpf:
    """ln(e**a - e**b) for b <= a; ``LOG_ZERO`` when they are equal."""
    if b == LOG_ZERO:
        return a
    gap = a - b
    if gap < 0:
        raise ValueError(f"log_sub needs b <= a, got a = {a}, b = {b}")
    if gap == 0:
        return LOG_ZERO
    if gap > _absorb_gap():
        return a
    return a + mp.log1p(-mp.exp(-gap))


def log_sum(logs) -> mpf:
    """ln of the sum of e**x over ``logs``, a left fold of ``log_add``."""
    total = LOG_ZERO
    for x in logs:
        total = log_add(total, x)
    return total


def log_fraction(value) -> mpf:
    """ln of a non-negative rational (an int or a Fraction)."""
    q = Fraction(value)
    if q == 0:
        return LOG_ZERO
    return ln_int(q.numerator) - ln_int(q.denominator)


def log_xlog(log_x: mpf, log_y: mpf) -> mpf:
    """ln(-x ln y) from ln x and ln y, for 0 <= x and 0 <= y <= 1: the log
    of one entropy term -x ln y (``LOG_ZERO`` when x = 0 or y = 1)."""
    if log_x == LOG_ZERO or log_y == 0:
        return LOG_ZERO
    return log_x + mp.ln(-log_y)


class LogReal:
    """A non-negative real held as ln(value), -inf for zero."""

    def __init__(self, log_mag) -> None:
        self.log_mag = mpf(log_mag)

    def is_zero(self) -> bool:
        return self.log_mag == LOG_ZERO

    def log(self) -> mpf:
        """ln(value); -inf for zero."""
        return self.log_mag

    def to_mpf(self) -> mpf:
        """Linear-domain value as mpf.

        Raises OverflowError when |ln value| exceeds LINEAR_LOG_LIMIT;
        such values only exist meaningfully in the log domain.
        """
        if self.is_zero():
            return mpf(0)
        if abs(self.log_mag) > LINEAR_LOG_LIMIT:
            raise OverflowError(
                f"log magnitude {self.log_mag} too extreme for a linear-domain value"
            )
        return mp.exp(self.log_mag)

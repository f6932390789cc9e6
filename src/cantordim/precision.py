"""Working-precision control for the log-domain arithmetic used everywhere.

The dimension formulas here meet probabilities as small as 10**-(10**100),
so all numeric paths run on mpmath reals at a configurable number of
significant decimal digits (default 50, overridable via the
CANTORDIM_PRECISION environment variable).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_log

ENV_PRECISION = "CANTORDIM_PRECISION"
DEFAULT_DPS = 50
MIN_DPS = 15

# Extra digits carried internally so results are honest at the requested dps.
GUARD_DPS = 10


def default_dps() -> int:
    """Package-wide default precision in significant decimal digits."""
    raw = os.environ.get(ENV_PRECISION)
    if raw is None:
        return DEFAULT_DPS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_PRECISION} must be an integer, got {raw!r}") from exc
    if value < MIN_DPS:
        raise ValueError(f"{ENV_PRECISION} must be >= {MIN_DPS}, got {value}")
    return value


def resolve_dps(dps: int | None) -> int:
    if dps is None:
        return default_dps()
    if int(dps) < MIN_DPS:
        raise ValueError(f"precision must be >= {MIN_DPS} significant digits, got {dps}")
    return int(dps)


@contextmanager
def working_dps(dps: int | None = None):
    """Run a block at ``dps`` significant digits plus guard digits."""
    with mp.workdps(resolve_dps(dps) + GUARD_DPS):
        yield


def eps_for(dps: int | None = None, slack: int = 5) -> mpf:
    """Comparison tolerance at a given precision: 10**(slack - dps)."""
    return mpf(10) ** (slack - resolve_dps(dps))


@lru_cache(maxsize=65536)
def _ln_int_cached(n: int, prec_bits: int) -> mpf:
    # The libmp kernel under mp.ln(mpf(n)), without its wrappers: mpf(n)
    # is from_int(n) rounded to the ambient precision, so the bits agree.
    rnd = mp._prec_rounding[1]
    return mp.make_mpf(mpf_log(from_int(n, prec_bits, rnd), prec_bits, rnd))


def ln_int(n: int) -> mpf:
    """Natural log of a positive integer at the ambient precision.

    Cached per (n, mp.prec) so repeated factors reuse the identical mpf
    object; sums assembled from shared terms then cancel exactly, which
    several exactness guarantees downstream rely on.
    """
    if n <= 0:
        raise ValueError(f"ln_int needs a positive integer, got {n}")
    return _ln_int_cached(n, mp.prec)

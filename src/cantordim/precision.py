"""Working-precision control for the log-domain arithmetic used everywhere.

The dimension formulas here meet probabilities as small as 10**-(10**100),
so all numeric paths run on mpmath reals at a configurable number of
significant decimal digits (default 50, overridable via the
CANTORDIM_PRECISION environment variable).

The per-rank loops (the rank walk, the ratio, dimension and Billingsley
series, the cdf) run on a fixed-precision kernel of raw libmp values, the
``_mpf_`` tuples inside an mpf.  Its contract:

- a walk opens ``with working_dps(dps) as (used, prec, rnd):``, which
  resolves its report digits ``used`` and reads its (prec, rnd) once, and
  passes prec and rnd to every operation;
- each add, sub, mul, div, negation, exp and square root is the libmp
  function the mpf operator (or ``mp.exp``, ``mp.sqrt``) itself calls, or
  its inline form below, on the same operands in the same order: ``a + b``
  is ``mpf_add(a, b, prec, rnd)``, ``a * i`` for an int ``i`` is
  ``mpf_mul_int``, ``a ** 2`` is ``mpf_mul(a, a, ...)`` (the same bits),
  ``-a`` is ``mpf_neg`` (exact, with no prec, for an ``a`` of at most prec
  bits), and ``sum`` from 0 is a chain of ``mpf_add`` from ``fzero``;
- comparisons are the exact ``mpf_cmp``/``mpf_lt`` on the raw values;
- a value is wrapped in an mpf (``as_mpf``) only when a report keeps it
  or formats it, and each mpf is formatted with ``mpf_text``.  The spill:
  the faithfulness sweep and the dimension series keep their per-rank
  values as that text alone, and the other series are formatted as the
  CLI writes them.

On mpmath's pure-Python backend the add, sub, mul and div exported here
run libmp's round-to-nearest steps inline, add and sub with its far-gap
branch (exponents over 100 bits apart), and so do the compares, which at
one top bit compare aligned mantissas where libmp subtracts.  Any other
rounding mode, prec 0 (only div refuses prec < 1), zero, inf or nan
operand, pair of signs or exact quotient goes to libmp, the fallback and
the test oracle.  So every output bit is the operator form's, and the
loops skip only its context lookup, type dispatch and allocation.  The
box-count regression's per-point passes skip the tuples too: ``to_fixed``
makes each value an int at one binary scale, ``round_fixed`` rounds each
exact int result as ``_nearest`` would, and ``from_man_exp`` makes a sum a
tuple again.  The operator-form single-value functions
(``log_prefix_product``, ``faithfulness_ratio``, ``billingsley_ratio``,
``cylinder_measure_log``) are the bit-for-bit oracles of the kernel loops.

A walk's term log ln n_k comes from ``ln_int_raw``, or, on a long walk
over distinct terms, from a forked helper process (``logfeed``) that makes
the call ``ln_int_raw`` makes on a cache miss with the walk's mpmath,
integer backend and (prec, rnd), so its bits are the walk's own.  The walk
holds those in ``remember_ln_int``, which ``ln_int_raw`` reads first.

``mpf_text(x, n)`` is byte for byte libmp's ``to_str(x._mpf_, n)``, which
is what ``nstr(x, n)`` prints for an mpf.  For a finite nonzero value
whose binary exponent lies within libmp's +-3500 fixed-point range it runs
``to_str``'s own steps inline, with the power of ten and the per-precision
constants cached on first use.  Zero, +-inf, nan, exponents beyond that
range and ``n < 1`` go to ``to_str`` itself.

This module is the only one that imports from ``mpmath.libmp``.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from functools import lru_cache

from mpmath import libmp, mp, mpf
# The kernel's operations, re-exported to the modules that run the loops.
from mpmath.libmp import (  # noqa: F401
    fninf, fone, from_int, from_man_exp, fzero, mpf_exp, mpf_log, mpf_mul_int, mpf_neg, mpf_sqrt, to_str,
)

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
    """Run a block at ``dps`` significant digits plus guard digits, and
    yield ``(used, prec, rnd)``: the report digits ``resolve_dps(dps)`` and
    the block's kernel precision, as ``walk_precision()`` reads it.  An
    invalid ``dps`` raises before the block runs."""
    used = resolve_dps(dps)
    with mp.workdps(used + GUARD_DPS):
        yield (used, *walk_precision())


def walk_precision() -> tuple[int, str]:
    """(prec bits, rounding) of the ambient context, read once per walk."""
    prec, rnd = mp._prec_rounding
    return prec, rnd


as_mpf = mp.make_mpf  # a raw value wrapped as an mpf, unrounded


def _nearest(sign, man, exp, prec):
    """libmp's normalize of (-1)**sign * man * 2**exp, man > 0, at (prec, 'n'): half to even, zeros stripped."""
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if not man & 1:
        z = (man & -man).bit_length() - 1
        return sign, man >> z, exp + z, man.bit_length() - z
    return sign, man, exp, man.bit_length()


def round_fixed(v, prec):
    """The integer v rounded as ``_nearest`` rounds its mantissa, half to even to prec bits, at v's own scale."""
    if prec < 1:
        raise ValueError(f"round_fixed needs prec >= 1, got {prec}")
    man = -v if v < 0 else v
    n = man.bit_length() - prec
    if n <= 0:
        return v
    t = man >> (n - 1)  # the kept bits and the rounding bit; below it, the sticky bits
    man = (t + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t) >> 1 << n
    return -man if v < 0 else man


def to_fixed(x, scale):
    """The raw value x as the integer x * 2**scale, for a scale of at least -exp(x)."""
    man = x[1] << (x[2] + scale)
    return -man if x[0] else man


def mpf_add(s, t, prec, rnd, _sub=0):
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not (sman and tman and prec and rnd == "n"):
        return libmp.mpf_add(s, t, prec, rnd, _sub)
    tsign ^= _sub
    offset = sexp - texp
    # libmp's far-gap branch: an addend below the other's prec + 4 bits moves it by one unit there
    if offset >= 0:
        if offset > 100 and sbc + offset - tbc > prec + 4:
            return _nearest(ssign, (sman << prec + 4) + (1 if ssign == tsign else -1), sexp - prec - 4, prec)
        sman, exp = sman << offset, texp
    else:
        if offset < -100 and tbc - offset - sbc > prec + 4:
            return _nearest(tsign, (tman << prec + 4) + (1 if ssign == tsign else -1), texp - prec - 4, prec)
        tman, exp = tman << -offset, sexp
    if ssign == tsign:
        man = sman + tman
    else:
        man = sman - tman
        if man < 0:
            man, ssign = -man, ssign ^ 1
        elif not man:
            return fzero
    return _nearest(ssign, man, exp, prec)


def mpf_sub(s, t, prec, rnd):
    return mpf_add(s, t, prec, rnd, 1)


def mpf_mul(s, t, prec, rnd):
    man = s[1] * t[1]
    if not (man and prec and rnd == "n"):
        return libmp.mpf_mul(s, t, prec, rnd)
    return _nearest(s[0] ^ t[0], man, s[2] + t[2], prec)


def mpf_div(s, t, prec, rnd):
    if prec < 1:  # libmp's own loops for ever on a result that rounds to no bits
        raise ValueError(f"mpf_div needs prec >= 1, got {prec}")
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not (sman and tman and rnd == "n"):
        return libmp.mpf_div(s, t, prec, rnd)
    extra = prec - sbc + tbc + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(sman << extra, tman)
    if not rem:
        return libmp.mpf_div(s, t, prec, rnd)
    return _nearest(ssign ^ tsign, (quot << 1) + 1, sexp - texp - extra - 1, prec)  # sticky low bit


def mpf_cmp(s, t):
    """libmp's mpf_cmp: -1, 0 or 1 as s <, = or > t, ordering two finite
    nonzero values of one sign by top bit (exp + bc), then aligned mantissa."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not (sman and tman) or ssign != tsign:
        return libmp.mpf_cmp(s, t)
    top = sexp + sbc - texp - tbc
    if not top:
        shift = sexp - texp
        top = (sman << shift) - tman if shift >= 0 else sman - (tman << -shift)
        if not top:
            return 0
    return -1 if (top < 0) ^ ssign else 1


def mpf_lt(s, t):
    """libmp's mpf_lt: s < t, and False when either is nan."""
    return mpf_cmp(s, t) < 0 if s[1] and t[1] else libmp.mpf_lt(s, t)


if libmp.BACKEND != "python":  # gmpy's or Sage's arithmetic beats any inline step
    from mpmath.libmp import mpf_add, mpf_cmp, mpf_div, mpf_lt, mpf_mul, mpf_sub  # noqa: F811


# libmp's to_digits_exp works in float with this constant; the digit counts
# below must round as its do.
_LOG2_10 = math.log(10, 2)
_plans: dict[int, tuple[int, int]] = {}  # n -> (bits for n + 3 digits, min_fixed)
_tens: dict[int, int] = {}  # m -> 10**m


def mpf_text(x: mpf, n: int) -> str:
    """``nstr(x, n)`` for an mpf x, byte for byte libmp's ``to_str(x._mpf_, n)``.

    The common case follows ``to_str``: the first n + 3 or more digits,
    truncated, from one fixed-point product; n digits rounded half up on
    the digit string; fixed notation for a leading-digit exponent strictly
    between ``min(-(n // 3), -5)`` and n, scientific otherwise; trailing
    zeros stripped.  The values it does not cover go to ``to_str``.
    """
    s = x._mpf_
    sign, man, exp, bc = s
    if not man or n < 1 or not -3500 <= exp + bc <= 3500:
        return to_str(s, n)
    plan = _plans.get(n)
    if plan is None:
        plan = _plans[n] = (int((n + 3) * _LOG2_10) + 10, min(-(n // 3), -5))
    bitprec, min_fixed = plan
    fixprec = bitprec - exp - bc
    if fixprec < 0:
        fixprec = 0
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    ten = _tens.get(fixdps)
    if ten is None:
        ten = _tens[fixdps] = 10**fixdps
    shift = exp + fixprec
    digits = str((man << shift if shift >= 0 else man >> -shift) * ten >> fixprec)
    exponent = len(digits) - fixdps - 1
    head = digits[:n]
    if len(digits) > n and digits[n] in "56789":
        kept = head.rstrip("9")  # a carry turns the trailing 9s into zeros
        if kept:
            head = kept[:-1] + str(int(kept[-1]) + 1) + "0" * (n - len(kept))
        else:
            head = "1" + "0" * (n - 1)
            exponent += 1
    if min_fixed < exponent < n:
        if exponent < 0:
            text = "0." + "0" * (-exponent - 1) + head
        else:
            text = head[: exponent + 1] + "." + head[exponent + 1 :]
        exponent = 0
    else:
        text = head[0] + "." + head[1:]
    text = text.rstrip("0")
    if text[-1] == ".":
        text += "0"
    if sign:
        text = "-" + text
    if exponent == 0:
        return text
    return f"{text}e+{exponent}" if exponent > 0 else f"{text}e{exponent}"


def eps_for(dps: int | None = None) -> mpf:
    """Comparison tolerance at a given precision: 10**(5 - dps)."""
    return mpf(10) ** (5 - resolve_dps(dps))


_last = (None, None)  # ((n, prec, rnd), ln n), set by remember_ln_int


# A walk asks for ln n_k twice within one rank (its log, then its row's
# entropy) and rarely again later, so a large cache mostly keeps logs no one
# reads: full at 65,536 entries it held 26 MB on a 7*10**4-rank arithmetic
# walk. 4,096 entries keep every in-rank repeat and all 2,647 keys the 300
# short exact-codec requests of the benchmark use between them.
@lru_cache(maxsize=4096)
def _ln_int_cached(n: int, prec: int, rnd: str) -> tuple:
    # The libmp kernel under mp.ln(mpf(n)), without its wrappers: mpf(n)
    # is from_int(n) rounded to the ambient precision, so the bits agree.
    return mpf_log(from_int(n, prec, rnd), prec, rnd)


# ln n at (prec, rnd) computed afresh, by the cache's own function.
ln_int_uncached = _ln_int_cached.__wrapped__


def ln_int_raw(n: int, prec: int, rnd: str) -> tuple:
    """ln n for a positive integer n as a raw value at (prec, rnd).

    Cached per (n, prec, rnd), and recomputed bit for bit after an
    eviction, so every call for the same key returns the same bits; sums
    assembled from shared terms then cancel exactly, which several
    exactness guarantees downstream rely on.
    """
    if n <= 0:
        raise ValueError(f"ln_int needs a positive integer, got {n}")
    if _last[0] == (n, prec, rnd):
        return _last[1]
    return _ln_int_cached(n, prec, rnd)


def remember_ln_int(n: int, prec: int, rnd: str, value: tuple) -> tuple:
    """Hold ``value`` = ``ln_int_uncached(n, prec, rnd)`` for ``ln_int_raw`` to read before its cache, and return it."""
    global _last
    _last = ((n, prec, rnd), value)
    return value


def ln_int(n: int) -> mpf:
    """Natural log of a positive integer at the ambient precision, as an mpf
    with the bits of ``ln_int_raw``."""
    return as_mpf(ln_int_raw(n, *mp._prec_rounding))

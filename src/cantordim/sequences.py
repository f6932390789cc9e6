"""Basic sequences {n_k} of Cantor series expansions and faithfulness
diagnostics for their cylinder families.

The diagnostic quantity throughout is the ratio

    r_k = ln(n_k) / ln(n_1 * n_2 * ... * n_{k-1}),

whose vanishing as k grows characterizes cylinder families that are usable
as covering families for dimension computation.  A finite sweep cannot
decide a limit, so the verdicts here are explicitly threshold heuristics;
the raw ratio series is always part of the report.

``rank_logs`` is the single rank walk: it reads each term n_k once, from
one ``iter_terms`` pass, and yields it with ln(n_k) and the prefix logs
ln(n_1 * ... * n_k) as raw values of the fixed-precision kernel (see
``precision``).  Every pipeline series and per-rank consumer (rows,
admissible counts, the witness fits) takes n_k from it, and the summation
order of the prefix logs is fixed in one place.  ``log_prefix_product`` and
``faithfulness_ratio`` recompute single values with mpf operators, as
independent oracles.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Iterator, Mapping, Optional, Sequence

from mpmath import mp, mpf

from . import logfeed
from .logreal import LogReal
from .precision import (
    as_mpf, fzero, ln_int, ln_int_raw, mpf_add, mpf_cmp, mpf_div, mpf_mul,
    mpf_mul_int, mpf_sub, mpf_text, remember_ln_int, walk_precision, working_dps,
)


class SequenceError(ValueError):
    """Invalid sequence parameters, ranks, or non-integer terms."""


_POWERS_OF_TEN = frozenset(10**m for m in range(1, 19))


def is_power_of_ten(k: int) -> bool:
    """True for k in {10, 100, 1000, ...}: a set lookup below 10**19."""
    return k in _POWERS_OF_TEN if k < 10**19 else 10 ** (len(str(k)) - 1) == k


def trailing_decade_start(k_max: int) -> int:
    """Largest power of ten <= k_max (the start of the final decade)."""
    return 10 ** (len(str(k_max)) - 1)


def as_integer(value, what: str, error: type[ValueError] = SequenceError) -> int:
    """An integer field read without truncation (numpy ints pass); else ``error`` naming it.

    JSON ``true``/``false`` are refused although ``bool`` subclasses ``int``.
    ``DigitString.__post_init__`` inlines this rule for speed; keep the two in step.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def as_ratio(value, what: str, error: type[ValueError] = SequenceError) -> Fraction:
    """A rational field read exactly (a number or a ``"p/q"``/decimal string); else ``error`` naming it.

    Booleans are refused as in ``as_integer``, and so are values with no
    rational form: infinities, NaN, a zero denominator.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise error(f"{what} must be a rational number, got {value!r}") from None


def reject_unknown_keys(spec: Mapping, allowed, what: str, error: type[ValueError] = SequenceError) -> None:
    """Refuse a key outside ``allowed``, which would leave a misspelled field at its default."""
    for key in spec:
        if key not in allowed:
            raise error(f"unknown key {key!r} in {what} descriptor (allowed: {', '.join(sorted(allowed))})")


@dataclass(frozen=True, eq=False)
class Series:
    """A JSON series: ``[k, text]`` rows, or ``[k, text, flag]`` for a
    flagged point, yielded afresh by ``rows()`` on each iteration.

    Reports put this node where a series goes and the CLI writer writes its
    rows as they come, so no list of a series is ever built.  A text is an
    ``mpf_text`` and a flag a fixed name, so neither needs JSON escaping,
    and the writer puts both in as they stand.
    """

    length: int
    rows: Callable[[], Iterator[tuple]]

    @classmethod
    def of_texts(cls, first_k: int, texts: Sequence[str]) -> "Series":
        """The texts, kept as they are, at ranks first_k, first_k + 1, ..."""
        return cls(len(texts), lambda: zip(itertools.count(first_k), texts))

    @classmethod
    def of_values(cls, points: Sequence[tuple[int, mpf]], n: int) -> "Series":
        """(k, value) points, each value formatted to n digits as it is written."""
        return cls(len(points), lambda: ((k, mpf_text(v, n)) for k, v in points))

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows())

    def __getitem__(self, i: int) -> tuple:
        """Row i (from the end when negative), found by iterating."""
        return next(itertools.islice(self, range(self.length)[i], None))


class BasicSequence(ABC):
    """A branching sequence n_1, n_2, ... with every term an integer >= 2.

    Each kind defines its terms once, in ``iter_terms``, and ``term(k)`` is
    that pass from rank k to rank k, so the two cannot disagree.  Every field
    is read and checked in the constructor.
    """

    kind: ClassVar[str]

    def term(self, k: int) -> int:
        """n_k for k >= 1."""
        self._check_rank(k)
        return next(self.iter_terms(k, k))

    @abstractmethod
    def iter_terms(self, k_max: int, start: int = 1) -> Iterator[int]:
        """n_start, ..., n_{k_max} in order, each checked as it is reached."""

    @abstractmethod
    def descriptor(self) -> dict:
        """JSON-serializable round-trip form."""

    def log_term(self, k: int, n: int) -> mpf:
        """ln(n_k) at the ambient precision, given the term n = n_k already read."""
        return as_mpf(self.raw_log_term(k, n, *walk_precision()))

    def raw_log_term(self, k: int, n: int, prec: int, rnd: str) -> tuple:
        """``log_term`` as a raw value at (prec, rnd), for the kernel loops.

        Subclasses override with a closed form where the log of a huge
        term is cheaper from its parameters (geometric tails, power-of-ten
        spikes).
        """
        return ln_int_raw(n, prec, rnd)

    def max_rank(self) -> Optional[int]:
        """Largest usable rank, or None when unbounded."""
        return None

    def eventually_bounded(self) -> Optional[bool]:
        """Whether {n_k} stays bounded as k grows; None when unknowable."""
        return None

    def _check_rank(self, k: int) -> None:
        if k < 1:
            raise SequenceError(f"rank must be >= 1, got {k}")
        cap = self.max_rank()
        if cap is not None and k > cap:
            raise SequenceError(f"rank {k} exceeds the {cap}-term custom table (no tail rule)")


@dataclass(frozen=True)
class ConstantSequence(BasicSequence):
    s: int
    kind: ClassVar[str] = "constant"

    def __post_init__(self):
        object.__setattr__(self, "s", as_integer(self.s, "constant s"))
        if self.s < 2:
            raise SequenceError(f"constant term must be >= 2, got {self.s}")

    def iter_terms(self, k_max: int, start: int = 1):
        return itertools.repeat(self.s, k_max - start + 1)

    def eventually_bounded(self) -> bool:
        return True

    def descriptor(self) -> dict:
        return {"kind": "constant", "s": self.s}


@dataclass(frozen=True)
class ArithmeticSequence(BasicSequence):
    """n_k = a1 + (k-1) d.  d may be rational, but every term must come out
    an exact integer >= 2 (checked at access)."""

    a1: int
    d: Fraction
    kind: ClassVar[str] = "arithmetic"

    def __post_init__(self):
        object.__setattr__(self, "a1", as_integer(self.a1, "arithmetic a1"))
        object.__setattr__(self, "d", as_ratio(self.d, "arithmetic d"))
        if self.a1 < 2:
            raise SequenceError(f"arithmetic a1 must be >= 2, got {self.a1}")
        if self.d < 1:
            raise SequenceError(f"arithmetic d must be >= 1, got {self.d}")

    def iter_terms(self, k_max: int, start: int = 1):
        a1, num, den = self.a1, self.d.numerator, self.d.denominator
        if den == 1:  # an integer step: every term is an integer
            yield from range(a1 + (start - 1) * num, a1 + k_max * num, num)
            return
        for k in range(start, k_max + 1):
            value, rem = divmod(a1 * den + (k - 1) * num, den)
            if rem:
                raise SequenceError(f"term({k}) = {a1 + (k - 1) * self.d} is not an integer")
            yield value

    def eventually_bounded(self) -> bool:
        return False

    def descriptor(self) -> dict:
        d = self.d
        return {"kind": "arithmetic", "a1": self.a1, "d": int(d) if d.denominator == 1 else str(d)}


@dataclass(frozen=True)
class GeometricSequence(BasicSequence):
    """n_k = b1 * q**(k-1), with the same exact-integer rule as above."""

    b1: int
    q: Fraction
    kind: ClassVar[str] = "geometric"

    def __post_init__(self):
        object.__setattr__(self, "b1", as_integer(self.b1, "geometric b1"))
        object.__setattr__(self, "q", as_ratio(self.q, "geometric q"))
        if self.b1 < 2:
            raise SequenceError(f"geometric b1 must be >= 2, got {self.b1}")
        if self.q < 1:
            raise SequenceError(f"geometric q must be >= 1, got {self.q}")

    def raw_log_term(self, k: int, n: int, prec: int, rnd: str) -> tuple:
        # ln b1 + (k - 1) * (ln num(q) - ln den(q))
        q = self.q
        ln_num, ln_den = ln_int_raw(q.numerator, prec, rnd), ln_int_raw(q.denominator, prec, rnd)
        log_q = mpf_sub(ln_num, ln_den, prec, rnd)
        return mpf_add(ln_int_raw(self.b1, prec, rnd), mpf_mul_int(log_q, k - 1, prec, rnd), prec, rnd)

    def iter_terms(self, k_max: int, start: int = 1):
        q = self.q.numerator if self.q.denominator == 1 else self.q  # an integer q steps in ints
        value = self.b1 * q ** (start - 1)
        for k in range(start, k_max + 1):
            if value.denominator != 1:
                raise SequenceError(f"term({k}) = {value} is not an integer")
            yield int(value)
            value *= q

    def eventually_bounded(self) -> bool:
        return self.q == 1

    def descriptor(self) -> dict:
        q = self.q
        return {"kind": "geometric", "b1": self.b1, "q": int(q) if q.denominator == 1 else str(q)}


@dataclass(frozen=True)
class CounterexampleSequence(BasicSequence):
    """The built-in subgeometric sequence whose cylinder family fails the
    faithfulness criterion: n_k = 2 except n_k = 10**k at k = 10, 100, ...

    Spike ranks are detected lazily so ranks up to 10**6 stay cheap.
    """

    kind: ClassVar[str] = "counterexample"

    def raw_log_term(self, k: int, n: int, prec: int, rnd: str) -> tuple:
        if n == 2:
            return ln_int_raw(2, prec, rnd)
        return mpf_mul_int(ln_int_raw(10, prec, rnd), k, prec, rnd)  # n = 10**k

    def iter_terms(self, k_max: int, start: int = 1):
        k = start
        while k <= k_max:
            spike = 10 ** len(str(k - 1))  # the first spike rank >= k
            yield from itertools.repeat(2, min(spike, k_max + 1) - k)
            if spike <= k_max:
                yield 10**spike
            k = spike + 1

    def eventually_bounded(self) -> bool:
        return False

    def descriptor(self) -> dict:
        return {"kind": "counterexample"}


@dataclass(frozen=True)
class CustomSequence(BasicSequence):
    """Explicit finite table of terms, optionally followed by a tail rule.

    The tail rule is any other sequence evaluated at the absolute rank.
    Without one, ranks beyond the table are a hard error so diagnostics
    never silently extrapolate.
    """

    table: tuple[int, ...]
    tail: Optional[BasicSequence] = None
    kind: ClassVar[str] = "custom"

    def __post_init__(self):
        table = tuple(as_integer(t, f"custom table term({i})") for i, t in enumerate(self.table, 1))
        object.__setattr__(self, "table", table)
        if not self.table:
            raise SequenceError("custom table must have at least one term")
        for i, t in enumerate(self.table, 1):
            if t < 2:
                raise SequenceError(f"custom table term({i}) = {t} must be >= 2")

    def raw_log_term(self, k: int, n: int, prec: int, rnd: str) -> tuple:
        if k <= len(self.table):
            return ln_int_raw(n, prec, rnd)
        return self.tail.raw_log_term(k, n, prec, rnd)

    def iter_terms(self, k_max: int, start: int = 1):
        table = self.table
        yield from table[start - 1:k_max]
        first = max(start, len(table) + 1)
        if first <= k_max:
            if self.tail is None:
                self._check_rank(first)  # raises: no tail rule
            yield from self.tail.iter_terms(k_max, first)

    def max_rank(self) -> Optional[int]:
        return len(self.table) if self.tail is None else None

    def eventually_bounded(self) -> Optional[bool]:
        return True if self.tail is None else self.tail.eventually_bounded()

    def descriptor(self) -> dict:
        out = {"kind": "custom", "table": list(self.table)}
        if self.tail is not None:
            out["tail"] = self.tail.descriptor()
        return out


def make_sequence(spec: Mapping) -> BasicSequence:
    """Build a BasicSequence from a JSON-style descriptor.

    Accepted forms:
      {"kind": "constant", "s": 2}
      {"kind": "arithmetic", "a1": 2, "d": 1}
      {"kind": "geometric", "b1": 2, "q": 2}
      {"kind": "counterexample"}
      {"kind": "custom", "table": [2, 3, 4], "tail": {...optional...}}

    A key outside its kind's form is refused.
    """
    if not isinstance(spec, Mapping):
        raise SequenceError(f"sequence descriptor must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "constant":
            reject_unknown_keys(spec, {"kind", "s"}, "constant sequence")
            return ConstantSequence(spec["s"])
        if kind == "arithmetic":
            reject_unknown_keys(spec, {"kind", "a1", "d"}, "arithmetic sequence")
            return ArithmeticSequence(spec["a1"], spec.get("d", 1))
        if kind == "geometric":
            reject_unknown_keys(spec, {"kind", "b1", "q"}, "geometric sequence")
            return GeometricSequence(spec["b1"], spec.get("q", 1))
        if kind == "counterexample":
            reject_unknown_keys(spec, {"kind"}, "counterexample sequence")
            return CounterexampleSequence()
        if kind == "custom":
            reject_unknown_keys(spec, {"kind", "table", "tail"}, "custom sequence")
            table, tail = spec["table"], spec.get("tail")
            # A string or a mapping would be read one character or key at a time.
            if not isinstance(table, (list, tuple)):
                raise SequenceError(f"custom table must be an array of integers, got {table!r}")
            return CustomSequence(tuple(table), make_sequence(tail) if tail is not None else None)
    except KeyError as exc:
        raise SequenceError(f"missing sequence parameter {exc} for kind {kind!r}") from exc
    except TypeError as exc:
        raise SequenceError(f"malformed {kind!r} sequence descriptor: {exc}") from exc
    raise SequenceError(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# log products and ratios
# ---------------------------------------------------------------------------


def _single_threaded() -> bool:
    """Whether this process runs one thread (Linux: one entry in /proc/self/task)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _second_cpu() -> bool:
    """Whether a forked helper may run beside this process: a second CPU in
    its mask and a single thread, as a fork copies a lock that another
    thread holds, and the child may then wait on it for ever."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2 and _single_threaded()


def _helper_start(seq: BasicSequence, k_max: int) -> Optional[int]:
    """The first rank whose term log may come from a helper process
    (``logfeed``), or None for a walk with no helper.

    A helper needs a second CPU and at least ``HELPER_MIN_RANKS`` ranks of an
    arithmetic sequence, on its own or as the tail of custom tables: terms
    that never repeat, so that each log is a cache miss.  A table's ranks
    stay in the walk, as its entries may repeat.
    """
    first = 1
    while type(seq) is CustomSequence and seq.tail is not None:
        first = max(first, len(seq.table) + 1)
        seq = seq.tail
    if type(seq) is ArithmeticSequence and k_max - first + 1 >= logfeed.HELPER_MIN_RANKS and _second_cpu():
        return first
    return None


def rank_logs(seq: BasicSequence, k_max: int):
    """Yield (k, n_k, ln n_k, ln(n_1...n_{k-1}), ln(n_1...n_k)) for k = 1..k_max,
    the logs as raw kernel values.

    Each term is read once, from one ``iter_terms`` pass, before its log.
    The precision is read once, when the walk starts (inside the caller's
    ``working_dps`` block).  Prefix logs are summed from zero in rank order,
    so every series built on them is reproducible bit for bit.  Nothing is
    stored, so memory stays flat at any k_max.  A long walk may take its
    term logs from a helper process, with the same bits (``logfeed``); the
    helper is reaped when the walk is closed or dropped.
    """
    prec, rnd = walk_precision()
    log_term = seq.raw_log_term
    first = _helper_start(seq, k_max)
    helper = None if first is None else logfeed.helper_logs(seq, k_max, prec, rnd, first)
    prefix = fzero
    try:
        for (k, n), fed in zip(enumerate(seq.iter_terms(k_max), 1), helper or itertools.repeat(None)):
            log_n = log_term(k, n, prec, rnd) if fed is None else remember_ln_int(n, prec, rnd, fed)
            before = prefix
            prefix = mpf_add(prefix, log_n, prec, rnd)
            yield k, n, log_n, before, prefix
    finally:
        if helper is not None:
            helper.close()
            remember_ln_int(0, 0, "", None)


def log_prefix_product(seq: BasicSequence, k: int, dps: int | None = None) -> LogReal:
    """The product n_1 * ... * n_k as a log-domain value.

    Its .log() is ln(n_1 * ... * n_k), which is the denominator of every
    ratio and dimension formula in the package.
    """
    if k < 1:
        raise SequenceError(f"prefix length must be >= 1, got {k}")
    with working_dps(dps):
        total = mpf(0)
        for i in range(1, k + 1):
            total += seq.log_term(i, seq.term(i))
        return LogReal(total)


def faithfulness_ratio(seq: BasicSequence, k: int, dps: int | None = None) -> mpf:
    """r_k = ln(n_k) / ln(n_1 * ... * n_{k-1}), defined for k >= 2."""
    if k < 2:
        raise SequenceError(f"faithfulness ratio needs k >= 2, got {k}")
    with working_dps(dps):
        return seq.log_term(k, seq.term(k)) / log_prefix_product(seq, k - 1, dps).log()


# ---------------------------------------------------------------------------
# Stirling bracketing and the progression-envelope bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StirlingBounds:
    """Interval certain to contain ln(m!)."""

    m: int
    lower: mpf
    upper: mpf

    def contains(self, value) -> bool:
        return self.lower <= value <= self.upper


def stirling_log_factorial(m: int, dps: int | None = None) -> StirlingBounds:
    """Bracket ln(m!) by ln(sqrt(2 pi m)) + m ln(m/e) +- 1/(12 m)."""
    if m < 1:
        raise SequenceError(f"stirling_log_factorial needs m >= 1, got {m}")
    with working_dps(dps):
        m_ = mpf(m)
        center = mp.ln(mp.sqrt(2 * mp.pi * m_)) + m_ * (mp.ln(m_) - 1)
        half = 1 / (12 * m_)
        return StirlingBounds(m=m, lower=center - half, upper=center + half)


def envelope_ratio_bound(k: int, b1: int, q: int, dps: int | None = None) -> mpf:
    """Closed-form upper bound for r_k of any sequence squeezed between the
    progression k+1 from below and b1*q**(k-1) from above:

        (ln b1 + (k-1) ln q) / stirling_lower(ln (k-2)!)

    Defined for k >= 4 (the Stirling lower bound is positive from m = 2).
    """
    if k < 4:
        raise SequenceError(f"envelope ratio bound needs k >= 4, got {k}")
    if b1 < 2 or q < 1:
        raise SequenceError("envelope needs b1 >= 2 and q >= 1")
    with working_dps(dps):
        numerator = ln_int(b1) + (k - 1) * ln_int(q)
        return numerator / stirling_log_factorial(k - 2, dps).lower


def envelope_bound_monotone_from(
    b1: int, q: int, k_max: int, dps: int | None = None
) -> int:
    """Smallest K0 such that the envelope bound strictly decreases on
    [K0, k_max]."""
    if k_max < 5:
        raise SequenceError("need k_max >= 5 to locate the monotone range")
    with working_dps(dps):
        k0 = 4
        prev = envelope_ratio_bound(4, b1, q, dps)
        for k in range(5, k_max + 1):
            cur = envelope_ratio_bound(k, b1, q, dps)
            if cur >= prev:
                k0 = k
            prev = cur
        return k0


# ---------------------------------------------------------------------------
# envelope / subgeometric fitting over an observed range
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFit:
    """Progression envelope a1 + (k-1)d <= n_k <= b1 * q**(k-1) fitted over
    the diagnosed range: the lower side anchored at a1 = 2 with the largest
    feasible integer d, the upper at b1 = max(2, n_1) with the smallest
    feasible integer q.  ``fits`` is decided by the arithmetic side (a
    geometric upper envelope always exists on finite data); q == 1 marks
    the degenerate bounded case and is flagged rather than rejected."""

    fits: bool
    a1: Optional[int] = None
    d: Optional[int] = None
    b1: Optional[int] = None
    q: Optional[int] = None
    degenerate_geometric: bool = False

    def to_jsonable(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SubgeometricFit:
    """Smallest integer q >= 2 with n_k <= q**k over the diagnosed range.

    Such a q always exists on finite data, so ``holds`` is always true; it
    stays in the report to keep the JSON layout."""

    holds: bool
    witness_q: Optional[int] = None

    def to_jsonable(self) -> dict:
        return asdict(self)


def _min_q_for_power(target: int, exponent: int, floor: int) -> int:
    """Smallest integer q >= floor >= 1 with q**exponent >= target, in exact
    integers.  floor**exponent > target already when exponent *
    (floor.bit_length() - 1) >= target.bit_length(), so a running witness
    usually costs one comparison."""
    if exponent * (floor.bit_length() - 1) >= target.bit_length() or floor**exponent >= target:
        return floor
    lo, hi = floor, 2 * floor  # invariant: lo**exponent < target <= hi**exponent
    while hi**exponent < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid**exponent >= target else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# the diagnostic sweep
# ---------------------------------------------------------------------------

MET_TOL_DEFAULT = 0.05
VIOLATION_THRESHOLD_DEFAULT = 0.5

# Ratios at the very start of the sweep are dominated by the short prefix
# (r_2 = ln(n_2)/ln(n_1) can exceed 1 for any growing sequence), so
# violation witnesses only count from this rank on.
VIOLATION_BURN_IN = 10

VERDICT_MET = "criterion_met_numerically"
VERDICT_VIOLATED = "criterion_violated"
VERDICT_INCONCLUSIVE = "inconclusive"

# The shortest sweep split with a helper process (``faithfulness_diagnostic``).
# On the 2-CPU host where this was set, whose speed varies by up to 2x,
# medians of 21 alternating runs at 50 digits, split against serial, of
# counterexample and geometric(2,3) sweeps of 1,024, 2,048, 3,072 and 4,096
# ranks: in-process -1%, -12%, -16%, -20% and -1%, -23%, -22%, -22%; a
# fresh CLI ``faithfulness`` (which imports pickle to fork) +6%, +0%, -0%,
# -2% and +5%, -3%, -4%, -11%.
SPLIT_MIN_RANKS = 2048
# The share of the ranks a split sweep computes itself.  Per rank (best of
# 9 interleaved in-process rounds, us): the chain of terms, logs and prefix
# logs; the body on the ranks up to k_max/2 and past it; the body in the
# helper, with pickling; and the walk's merge: counterexample at 3*10**4
# ranks 1.8, 6.6 and 7.2, 7.4, 1.3; geometric(2,3) at 3,000 ranks 7.7, 9.4
# and 16.2, 17.1, 1.2, as its terms grow.  The walk's (chain + body) * s +
# merge * (k_max - s) meets the helper's chain * k_max + body * (k_max - s)
# near s = 0.55 k_max and 0.7 k_max.  Medians of 21 alternating in-process
# runs at shares 0.5/0.6/0.65 against serial: -30%/-30%/-28% and
# -8%/-16%/-22%.
SPLIT_SHARE = 0.6


@dataclass
class FaithfulnessReport:
    """Outcome of a finite faithfulness-ratio sweep.

    The verdict is a reproducible threshold heuristic, not a limit proof:
    "met" needs every final-decade ratio under met_tol and strictly
    decreasing decade maxima; "violated" needs ratios >= the violation
    threshold at two or more ranks past the burn-in.

    ``ratios[k - 2]`` is the text of r_k at ``dps`` digits; the ratios
    themselves are not kept.
    """

    seq_descriptor: dict
    k_max: int
    dps: int
    met_tol: float
    violation_threshold: float
    ratios: list[str]
    verdict: str
    violation_ranks: list[int]
    decade_maxima: list[tuple[int, mpf]]
    final_decade_below_tol: bool
    envelope: EnvelopeFit
    subgeometric: SubgeometricFit
    square_summable_partial: mpf
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        """The JSON report, with its two series as ``Series`` nodes."""
        n = self.dps
        return {
            "sequence": self.seq_descriptor,
            "k_max": self.k_max,
            "precision_dps": self.dps,
            "met_tol": self.met_tol,
            "violation_threshold": self.violation_threshold,
            "verdict": self.verdict,
            "violation_ranks": list(self.violation_ranks),
            "decade_maxima": Series.of_values(self.decade_maxima, n),
            "envelope": self.envelope.to_jsonable(),
            "subgeometric": self.subgeometric.to_jsonable(),
            "square_summable_partial": mpf_text(self.square_summable_partial, n),
            "notes": list(self.notes),
            "ratios": Series.of_texts(2, self.ratios),
        }


def _split_rank(seq: BasicSequence, k_max: int) -> Optional[int]:
    """The last rank a sweep computes itself when a helper process computes
    the rest (``faithfulness_diagnostic``), or None for a sweep with no
    helper: one of fewer than ``SPLIT_MIN_RANKS`` ranks, one whose walk has a
    term-log helper already, or one with no second CPU."""
    if k_max >= SPLIT_MIN_RANKS and _helper_start(seq, k_max) is None and _second_cpu():
        return min(max(2, round(k_max * SPLIT_SHARE)), k_max - 1)
    return None


def _sweep_part(ranks, first: int, b1: int, witness: int, limits: tuple, total=None) -> list:
    """The per-rank work of a sweep over a run of ``rank_logs`` tuples from
    rank ``first`` >= 2 on: [ratio texts, violation ranks, final-decade
    flag, (decade, first maximal raw r_k) of each decade it meets, squares,
    witness, d, q].  The squares are the raw r_k**2 terms, or, given a
    running ``total``, that total with them added in rank order."""
    threshold, tol, final_start, dps, prec, rnd = limits
    texts, violation_ranks, maxima, squares = [], [], [], []
    append = texts.append
    final_ok, d, q = True, math.inf, 1
    decade = trailing_decade_start(first)
    next_decade, best = 10 * decade, None
    for k, n, log_n, prefix_log, _ in ranks:
        witness = _min_q_for_power(n, k, witness)
        d = min(d, (n - 2) // (k - 1))
        q = _min_q_for_power(-(-n // b1), k - 1, q)  # ceil(n_k / b1)
        r = mpf_div(log_n, prefix_log, prec, rnd)
        append(mpf_text(as_mpf(r), dps))
        if total is None:
            squares.append(mpf_mul(r, r, prec, rnd))
        else:
            total = mpf_add(total, mpf_mul(r, r, prec, rnd), prec, rnd)
        # The comparisons are mpf_cmp on the raw values, exact as the mpf
        # operators' (a ratio is never NaN).  Each decade keeps its first
        # maximal ratio, as max() and a running maximum would.
        if k == next_decade:
            maxima.append((decade, best))
            decade, next_decade, best = k, 10 * k, r
        elif best is None or mpf_cmp(r, best) > 0:
            best = r
        if k >= VIOLATION_BURN_IN and mpf_cmp(r, threshold) >= 0:
            violation_ranks.append(k)
        if k >= final_start and final_ok and mpf_cmp(r, tol) >= 0:
            final_ok = False
    maxima.append((decade, best))
    return [texts, violation_ranks, final_ok, maxima, squares if total is None else total, witness, d, q]


def _merge(part: list, later: list, prec: int, rnd: str) -> None:
    """Fold ``later``, the ``_sweep_part`` of the ranks right after those of
    ``part`` (whose squares are a running total), into ``part``."""
    texts, violation_ranks, final_ok, maxima, squares, witness, d, q = later
    # Texts and violation ranks are concatenated.
    part[0] += texts
    part[1] += violation_ranks
    # The final-decade flags are ANDed.
    part[2] = part[2] and final_ok
    # The decade holding later's first rank keeps part's maximum unless
    # later's is strictly greater: each decade keeps its first maximal ratio.
    (decade, best), *rest = maxima
    if decade != part[3][-1][0]:
        part[3].append((decade, best))
    elif mpf_cmp(best, part[3][-1][1]) > 0:
        part[3][-1] = (decade, best)
    part[3] += rest
    # Later's r_k**2 terms are added to part's total in rank order, as a
    # serial sweep adds them.
    total = part[4]
    for square in squares:
        total = mpf_add(total, square, prec, rnd)
    part[4] = total
    # _min_q_for_power(t, e, floor) is max(floor, the least q at that rank),
    # so the running witness and q are maxima over the ranks; d is a minimum.
    part[5], part[6], part[7] = max(part[5], witness), min(part[6], d), max(part[7], q)


def _later_parts(ranks, skip: int, first: int, k_max: int, b1: int, limits: tuple):
    """Step the walk ``ranks`` over ``skip`` ranks (terms, logs and prefix
    logs alone), then yield the ``_sweep_part`` of ranks first..k_max, CHUNK
    ranks at a time."""
    for _ in itertools.islice(ranks, skip):
        pass
    for start in range(first, k_max + 1, logfeed.CHUNK):
        yield _sweep_part(itertools.islice(ranks, logfeed.CHUNK), start, b1, 2, limits)


def faithfulness_diagnostic(
    seq: BasicSequence,
    k_max: int,
    met_tol: float = MET_TOL_DEFAULT,
    violation_threshold: float = VIOLATION_THRESHOLD_DEFAULT,
    dps: int | None = None,
) -> FaithfulnessReport:
    """Sweep r_k for 2 <= k <= k_max and classify the sequence.

    One walk formats each r_k once, at the report precision, and keeps
    only that text.  From the raw ratios the same pass takes the decade
    maxima, the violation ranks, the final-decade check and the partial
    sum of r_k**2 (a sufficient proxy only for the measure-dimension
    formula's hypothesis), and fits the progression envelope and the subgeometric
    witness over the observed range from each n_k, in exact integers.

    A sweep of at least ``SPLIT_MIN_RANKS`` ranks whose term logs are cheap
    (no ``logfeed`` log helper starts), with a second CPU free, is split:
    the walk computes ranks 2..s, s = ``SPLIT_SHARE`` * k_max, and one
    forked helper (``logfeed.helper``) walks the terms, logs and prefix logs
    to rank s and computes ranks s+1..k_max, sending them CHUNK ranks at a
    time.  Both run the one per-rank body ``_sweep_part`` with the same
    mpmath backend (the helper is a fork of the walk's process): the same
    kernel calls on the same operands in the same order, so the bits agree,
    and ``_merge`` joins the parts in rank order: the walk adds
    the helper's r_k**2 terms to its own running sum, in the serial
    summation order.  Ranks the helper did not send, because the fork
    failed or the helper died, the walk computes itself; a term error past
    s then comes from the walk's own terms, as in a serial sweep.
    """
    if k_max < 3:
        raise SequenceError(f"diagnostic needs k_max >= 3, got {k_max}")
    if not (math.isfinite(met_tol) and math.isfinite(violation_threshold)):
        raise SequenceError(f"met_tol and violation_threshold must be finite, got {met_tol} and {violation_threshold}")
    if met_tol <= 0 or violation_threshold <= 0:
        raise SequenceError(
            f"met_tol and violation_threshold must be positive, got {met_tol} and {violation_threshold}")
    cap = seq.max_rank()
    if cap is not None and k_max > cap:
        raise SequenceError(f"k_max {k_max} exceeds the custom table length {cap}")
    with working_dps(dps) as (used_dps, prec, rnd):
        # Converted once, not on every comparison; a double is exact in mpf
        # at any working precision (>= 53 bits), so no verdict moves.
        threshold, tol = mpf(violation_threshold)._mpf_, mpf(met_tol)._mpf_
        limits = (threshold, tol, trailing_decade_start(k_max), used_dps, prec, rnd)
        with contextlib.closing(rank_logs(seq, k_max)) as ranks:
            _, n, *_ = next(ranks)
            b1 = max(2, n)
            split = _split_rank(seq, k_max) or k_max
            helper = (logfeed.helper(lambda: _later_parts(ranks, split - 1, split + 1, k_max, b1, limits), True)
                      if split < k_max else contextlib.nullcontext(()))
            with helper as later_parts:
                part = _sweep_part(
                    itertools.islice(ranks, split - 1), 2, b1, _min_q_for_power(n, 1, 2), limits, fzero)
                for later in later_parts:
                    _merge(part, later, prec, rnd)
            done = len(part[0]) + 1  # the last rank swept
            if done < k_max:  # the helper did not start, or died
                for later in _later_parts(ranks, done - split, done + 1, k_max, b1, limits):
                    _merge(part, later, prec, rnd)
        texts, violation_ranks, final_ok, decade_maxima, square_partial, witness, d, q = part
        decade_maxima = [(decade, as_mpf(best)) for decade, best in decade_maxima]
        maxima_decreasing = all(b < a for (_, a), (_, b) in zip(decade_maxima, decade_maxima[1:]))

        if len(violation_ranks) >= 2:
            verdict = VERDICT_VIOLATED
        elif final_ok and maxima_decreasing:
            verdict = VERDICT_MET
        else:
            verdict = VERDICT_INCONCLUSIVE

        fits = d >= 1
        envelope = EnvelopeFit(
            fits=fits, a1=2 if fits else None, d=d if fits else None,
            b1=b1, q=q, degenerate_geometric=(q == 1),
        )
        subgeometric = SubgeometricFit(holds=True, witness_q=witness)
        notes = []
        if envelope.degenerate_geometric:
            notes.append(
                "geometric envelope ratio q = 1 (bounded sequence); the "
                "progression-envelope bound degenerates but still applies"
            )
        return FaithfulnessReport(
            seq_descriptor=seq.descriptor(),
            k_max=k_max,
            dps=used_dps,
            met_tol=met_tol,
            violation_threshold=violation_threshold,
            ratios=texts,
            verdict=verdict,
            violation_ranks=violation_ranks,
            decade_maxima=decade_maxima,
            final_decade_below_tol=final_ok,
            envelope=envelope,
            subgeometric=subgeometric,
            square_summable_partial=as_mpf(square_partial),
            notes=notes,
        )

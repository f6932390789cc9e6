"""Basic sequences {n_k} of Cantor series expansions and faithfulness
diagnostics for their cylinder families.

The diagnostic quantity throughout is the ratio

    r_k = ln(n_k) / ln(n_1 * n_2 * ... * n_{k-1}),

whose vanishing as k grows characterizes cylinder families that are usable
as covering families for dimension computation.  A finite sweep cannot
decide a limit, so the verdicts here are explicitly threshold heuristics;
the raw ratio series is always part of the report.

``rank_logs`` is the single rank walk: every pipeline series over ln(n_k)
and the prefix logs ln(n_1 * ... * n_k) reads them from it, so their
summation order is fixed in one place.  ``log_prefix_product`` and
``faithfulness_ratio`` recompute single values as independent oracles.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Mapping, Optional

from mpmath import mp, mpf

from .logreal import LogReal
from .precision import ln_int, resolve_dps, working_dps


class SequenceError(ValueError):
    """Invalid sequence parameters, ranks, or non-integer terms."""


def is_power_of_ten(k: int) -> bool:
    """True for k in {10, 100, 1000, ...}."""
    return k >= 10 and 10 ** (len(str(k)) - 1) == k


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


def _as_ratio(value, what: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise TypeError
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise SequenceError(f"{what} is not a rational parameter: {value!r}") from exc


class BasicSequence(ABC):
    """A branching sequence n_1, n_2, ... with every term an integer >= 2."""

    kind: ClassVar[str]

    @abstractmethod
    def term(self, k: int) -> int:
        """n_k for k >= 1."""

    @abstractmethod
    def descriptor(self) -> dict:
        """JSON-serializable round-trip form."""

    def log_term(self, k: int) -> mpf:
        """ln(n_k) at the ambient precision.

        Subclasses override when the term itself would be a needlessly
        huge integer (geometric tails, power-of-ten spikes).
        """
        return ln_int(self.term(k))

    def max_rank(self) -> Optional[int]:
        """Largest usable rank, or None when unbounded."""
        return None

    def eventually_bounded(self) -> Optional[bool]:
        """Whether {n_k} stays bounded as k grows; None when unknowable."""
        return None

    def iter_terms(self, k_max: int):
        """n_1, ..., n_{k_max} in order.

        Overridden where per-term recomputation would repeat big-integer
        powers (geometric tails)."""
        return (self.term(k) for k in range(1, k_max + 1))

    def _check_rank(self, k: int) -> None:
        if k < 1:
            raise SequenceError(f"rank must be >= 1, got {k}")
        cap = self.max_rank()
        if cap is not None and k > cap:
            raise SequenceError(
                f"rank {k} exceeds the {cap}-term custom table (no tail rule)"
            )


@dataclass(frozen=True)
class ConstantSequence(BasicSequence):
    s: int
    kind: ClassVar[str] = "constant"

    def __post_init__(self):
        if self.s < 2:
            raise SequenceError(f"constant term must be >= 2, got {self.s}")

    def term(self, k: int) -> int:
        self._check_rank(k)
        return self.s

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
        object.__setattr__(self, "d", _as_ratio(self.d, "arithmetic d"))
        if self.a1 < 2:
            raise SequenceError(f"arithmetic a1 must be >= 2, got {self.a1}")
        if self.d < 1:
            raise SequenceError(f"arithmetic d must be >= 1, got {self.d}")

    def term(self, k: int) -> int:
        self._check_rank(k)
        d = self.d
        value, rem = divmod(self.a1 * d.denominator + (k - 1) * d.numerator, d.denominator)
        if rem:
            raise SequenceError(f"term({k}) = {self.a1 + (k - 1) * d} is not an integer")
        return value

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
        object.__setattr__(self, "q", _as_ratio(self.q, "geometric q"))
        if self.b1 < 2:
            raise SequenceError(f"geometric b1 must be >= 2, got {self.b1}")
        if self.q < 1:
            raise SequenceError(f"geometric q must be >= 1, got {self.q}")

    def term(self, k: int) -> int:
        self._check_rank(k)
        value = self.b1 * self.q ** (k - 1)
        if value.denominator != 1:
            raise SequenceError(f"term({k}) = {value} is not an integer")
        return int(value)

    def log_term(self, k: int) -> mpf:
        self._check_rank(k)
        q = self.q
        log_q = ln_int(q.numerator) - ln_int(q.denominator)
        return ln_int(self.b1) + (k - 1) * log_q

    def iter_terms(self, k_max: int):
        value = Fraction(self.b1)
        for k in range(1, k_max + 1):
            if value.denominator != 1:
                raise SequenceError(f"term({k}) = {value} is not an integer")
            yield int(value)
            value *= self.q

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

    def term(self, k: int) -> int:
        self._check_rank(k)
        return 10**k if is_power_of_ten(k) else 2

    def log_term(self, k: int) -> mpf:
        self._check_rank(k)
        return k * ln_int(10) if is_power_of_ten(k) else ln_int(2)

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

    def term(self, k: int) -> int:
        self._check_rank(k)
        if k <= len(self.table):
            return self.table[k - 1]
        return self.tail.term(k)

    def log_term(self, k: int) -> mpf:
        self._check_rank(k)
        if k <= len(self.table):
            return ln_int(self.table[k - 1])
        return self.tail.log_term(k)

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
    """
    if not isinstance(spec, Mapping):
        raise SequenceError(f"sequence descriptor must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "constant":
            return ConstantSequence(as_integer(spec["s"], "constant s"))
        if kind == "arithmetic":
            return ArithmeticSequence(as_integer(spec["a1"], "arithmetic a1"), spec.get("d", 1))
        if kind == "geometric":
            return GeometricSequence(as_integer(spec["b1"], "geometric b1"), spec.get("q", 1))
        if kind == "counterexample":
            return CounterexampleSequence()
        if kind == "custom":
            tail = spec.get("tail")
            return CustomSequence(
                tuple(spec["table"]),
                make_sequence(tail) if tail is not None else None,
            )
    except KeyError as exc:
        raise SequenceError(f"missing sequence parameter {exc} for kind {kind!r}") from exc
    except TypeError as exc:
        raise SequenceError(f"malformed {kind!r} sequence descriptor: {exc}") from exc
    raise SequenceError(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# log products and ratios
# ---------------------------------------------------------------------------


def rank_logs(seq: BasicSequence, k_max: int):
    """Yield (k, ln n_k, ln(n_1...n_{k-1}), ln(n_1...n_k)) for k = 1..k_max.

    Prefix logs are summed from mpf(0) in rank order at the ambient
    precision, so every series built on them is reproducible bit for bit.
    Nothing is stored, so memory stays flat at any k_max.
    """
    prefix = mpf(0)
    for k in range(1, k_max + 1):
        log_n = seq.log_term(k)
        before = prefix
        prefix += log_n
        yield k, log_n, before, prefix


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
            total += seq.log_term(i)
        return LogReal.from_log(total)


def faithfulness_ratio(seq: BasicSequence, k: int, dps: int | None = None) -> mpf:
    """r_k = ln(n_k) / ln(n_1 * ... * n_{k-1}), defined for k >= 2."""
    if k < 2:
        raise SequenceError(f"faithfulness ratio needs k >= 2, got {k}")
    with working_dps(dps):
        return seq.log_term(k) / log_prefix_product(seq, k - 1, dps).log()


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
    the diagnosed range.  ``fits`` is decided by the arithmetic side (a
    geometric upper envelope always exists on finite data); q == 1 marks
    the degenerate bounded case and is flagged rather than rejected."""

    fits: bool
    a1: Optional[int] = None
    d: Optional[int] = None
    b1: Optional[int] = None
    q: Optional[int] = None
    degenerate_geometric: bool = False

    def to_jsonable(self) -> dict:
        return {
            "fits": self.fits,
            "a1": self.a1,
            "d": self.d,
            "b1": self.b1,
            "q": self.q,
            "degenerate_geometric": self.degenerate_geometric,
        }


@dataclass(frozen=True)
class SubgeometricFit:
    """Smallest integer q >= 2 with n_k <= q**k over the diagnosed range.

    Such a q always exists on finite data, so ``holds`` is always true; it
    stays in the report to keep the JSON layout."""

    holds: bool
    witness_q: Optional[int] = None

    def to_jsonable(self) -> dict:
        return {"holds": self.holds, "witness_q": self.witness_q}


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


def fit_envelope(seq: BasicSequence, k_max: int) -> EnvelopeFit:
    """Fit the widest progression envelope to n_1..n_{k_max}.

    Lower side is anchored at a1 = 2 with the largest feasible integer d;
    upper side at b1 = max(2, n_1) with the smallest feasible integer q.
    """
    if k_max < 2:
        raise SequenceError(f"envelope fitting needs k_max >= 2, got {k_max}")
    d = None
    b1 = None
    q = 1
    for k, term in enumerate(seq.iter_terms(k_max), 1):
        if k == 1:
            b1 = max(2, term)
            continue
        cap = (term - 2) // (k - 1)
        d = cap if d is None else min(d, cap)
        need = -(-term // b1)  # ceil(n_k / b1)
        q = _min_q_for_power(need, k - 1, q)
    arithmetic_ok = d is not None and d >= 1
    if not arithmetic_ok:
        return EnvelopeFit(fits=False, b1=b1, q=q, degenerate_geometric=(q == 1))
    return EnvelopeFit(
        fits=True, a1=2, d=int(d), b1=b1, q=q, degenerate_geometric=(q == 1)
    )


def fit_subgeometric(seq: BasicSequence, k_max: int) -> SubgeometricFit:
    if k_max < 1:
        raise SequenceError(f"subgeometric fitting needs k_max >= 1, got {k_max}")
    witness = 2
    for k, term in enumerate(seq.iter_terms(k_max), 1):
        witness = _min_q_for_power(term, k, witness)
    return SubgeometricFit(holds=True, witness_q=witness)


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


@dataclass
class FaithfulnessReport:
    """Outcome of a finite faithfulness-ratio sweep.

    The verdict is a reproducible threshold heuristic, not a limit proof:
    "met" needs every final-decade ratio under met_tol and strictly
    decreasing decade maxima; "violated" needs ratios >= the violation
    threshold at two or more ranks past the burn-in.
    """

    seq_descriptor: dict
    k_max: int
    dps: int
    met_tol: float
    violation_threshold: float
    ratios: list[tuple[int, mpf]]
    verdict: str
    violation_ranks: list[int]
    decade_maxima: list[tuple[int, mpf]]
    envelope: EnvelopeFit
    subgeometric: SubgeometricFit
    square_summable_partial: mpf
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        from mpmath import nstr

        n = self.dps
        return {
            "sequence": self.seq_descriptor,
            "k_max": self.k_max,
            "precision_dps": self.dps,
            "met_tol": self.met_tol,
            "violation_threshold": self.violation_threshold,
            "verdict": self.verdict,
            "violation_ranks": list(self.violation_ranks),
            "decade_maxima": [[k, nstr(v, n)] for k, v in self.decade_maxima],
            "envelope": self.envelope.to_jsonable(),
            "subgeometric": self.subgeometric.to_jsonable(),
            "square_summable_partial": nstr(self.square_summable_partial, n),
            "notes": list(self.notes),
            "ratios": [[k, nstr(v, n)] for k, v in self.ratios],
        }


def faithfulness_diagnostic(
    seq: BasicSequence,
    k_max: int,
    met_tol: float = MET_TOL_DEFAULT,
    violation_threshold: float = VIOLATION_THRESHOLD_DEFAULT,
    dps: int | None = None,
) -> FaithfulnessReport:
    """Sweep r_k for 2 <= k <= k_max and classify the sequence.

    Also fits the progression envelope and subgeometric witness over the
    observed range and accumulates the partial sum of r_k**2 (the validity
    precondition of the measure-dimension formula).
    """
    if k_max < 3:
        raise SequenceError(f"diagnostic needs k_max >= 3, got {k_max}")
    if not (math.isfinite(met_tol) and math.isfinite(violation_threshold)):
        raise SequenceError(
            f"met_tol and violation_threshold must be finite, got {met_tol} and {violation_threshold}"
        )
    cap = seq.max_rank()
    if cap is not None and k_max > cap:
        raise SequenceError(f"k_max {k_max} exceeds the custom table length {cap}")
    used_dps = resolve_dps(dps)
    with working_dps(dps):
        ratios: list[tuple[int, mpf]] = []
        square_partial = mpf(0)
        decade_maxima: list[tuple[int, mpf]] = []
        current_decade = None
        current_max = None
        for k, log_n, prefix_log, _ in rank_logs(seq, k_max):
            if k == 1:
                continue
            r = log_n / prefix_log
            ratios.append((k, r))
            square_partial += r * r
            decade = trailing_decade_start(k)
            if decade != current_decade:
                if current_decade is not None:
                    decade_maxima.append((current_decade, current_max))
                current_decade, current_max = decade, r
            elif r > current_max:
                current_max = r
        decade_maxima.append((current_decade, current_max))

        # Converted once, not on every comparison; a double is exact in mpf
        # at any working precision (>= 53 bits), so no verdict moves.
        threshold, tol = mpf(violation_threshold), mpf(met_tol)
        violation_ranks = [k for k, r in ratios if k >= VIOLATION_BURN_IN and r >= threshold]
        final_start = trailing_decade_start(k_max)
        final_ok = all(r < tol for k, r in ratios if k >= final_start)
        maxima_values = [v for _, v in decade_maxima]
        maxima_decreasing = all(
            maxima_values[i + 1] < maxima_values[i] for i in range(len(maxima_values) - 1)
        )

        if len(violation_ranks) >= 2:
            verdict = VERDICT_VIOLATED
        elif final_ok and maxima_decreasing:
            verdict = VERDICT_MET
        else:
            verdict = VERDICT_INCONCLUSIVE

        envelope = fit_envelope(seq, k_max)
        subgeometric = fit_subgeometric(seq, k_max)
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
            ratios=ratios,
            verdict=verdict,
            violation_ranks=violation_ranks,
            decade_maxima=decade_maxima,
            envelope=envelope,
            subgeometric=subgeometric,
            square_summable_partial=square_partial,
            notes=notes,
        )

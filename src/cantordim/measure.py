"""Product measures of independent Cantor-expansion digits.

A SymbolModel assigns each rank k a probability row over the digits
0..n_k-1; the measure of a rank-k cylinder is the product of its digit
probabilities.  Rows are structured objects queried in O(1) (a uniform row
over 10**10 digits is never materialized), and all probabilities live in
the log domain as LogReals, since the built-in counterexample model uses
digit masses as small as 10**-(10**100).

``SymbolModel.row`` builds every row and keeps none.  The series pipelines
read ranks through ``SymbolModel.walk``: one pass yielding ln n_k, the
prefix logs and each rank's row.  ``dimension_series`` computes several
dimension series over models that share a sequence from one walk, with
per-rank consumers (the DP positivity scan, ratio series) riding along.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from mpmath import mp, mpf

from .codec import DigitString, encode
from .logreal import LogReal, log_sum
from .precision import GUARD_DPS, MIN_DPS, eps_for, ln_int, resolve_dps, working_dps
from .sequences import (
    ArithmeticSequence,
    BasicSequence,
    as_integer,
    is_power_of_ten,
    make_sequence,
    rank_logs,
    trailing_decade_start,
)


class ModelError(ValueError):
    """Invalid rows, mismatched sequences, or out-of-cap ranks."""


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------


class Row(ABC):
    """Digit distribution at a single rank, queryable without materializing."""

    n: int

    @abstractmethod
    def logp(self, digit: int) -> LogReal:
        """P(digit) as a LogReal."""

    @abstractmethod
    def cum(self, digit: int) -> LogReal:
        """P(X < digit) as a LogReal."""

    @abstractmethod
    def entropy(self) -> mpf:
        """Shannon entropy in nats, with 0 ln 0 := 0."""

    @abstractmethod
    def support_count(self) -> int:
        """Number of strictly positive entries."""

    def first_zero_digit(self) -> Optional[int]:
        return None

    def min_positive_log(self) -> mpf:
        """ln of the smallest positive entry."""
        raise NotImplementedError

    def _check_digit(self, digit: int) -> None:
        if not 0 <= digit < self.n:
            raise ModelError(f"digit {digit} outside 0..{self.n - 1}")


class UniformRow(Row):
    def __init__(self, n: int):
        self.n = n
        self._logp = None  # built on the first logp call; the dimension series never ask

    def logp(self, digit: int) -> LogReal:
        self._check_digit(digit)
        if self._logp is None:
            self._logp = LogReal.from_log(-ln_int(self.n))
        return self._logp

    def cum(self, digit: int) -> LogReal:
        self._check_digit(digit)
        return LogReal.from_fraction(Fraction(digit, self.n))

    def entropy(self) -> mpf:
        return ln_int(self.n)

    def support_count(self) -> int:
        return self.n

    def min_positive_log(self) -> mpf:
        return -ln_int(self.n)


class PointMassRow(Row):
    def __init__(self, n: int, j: int):
        if not 0 <= j < n:
            raise ModelError(f"point mass digit {j} outside 0..{n - 1}")
        self.n = n
        self.j = j

    def logp(self, digit: int) -> LogReal:
        self._check_digit(digit)
        return LogReal.one() if digit == self.j else LogReal.zero()

    def cum(self, digit: int) -> LogReal:
        self._check_digit(digit)
        return LogReal.one() if digit > self.j else LogReal.zero()

    def entropy(self) -> mpf:
        return mpf(0)

    def support_count(self) -> int:
        return 1

    def first_zero_digit(self) -> Optional[int]:
        if self.n == 1:
            return None
        return 1 if self.j == 0 else 0

    def min_positive_log(self) -> mpf:
        return mpf(0)


class VanishingZeroRow(Row):
    """Digit 0 carries an astronomically small mass p0 (given in log form);
    the remaining mass is split equally over digits 1..n-1."""

    def __init__(self, n: int, log_p0: mpf):
        if n < 2:
            raise ModelError("vanishing-zero row needs n >= 2")
        self.n = n
        self._p0 = LogReal.from_log(log_p0)
        one_minus = LogReal.one() - self._p0
        self._share = one_minus / LogReal.from_int(n - 1)
        self._one_minus = one_minus

    def logp(self, digit: int) -> LogReal:
        self._check_digit(digit)
        return self._p0 if digit == 0 else self._share

    def cum(self, digit: int) -> LogReal:
        self._check_digit(digit)
        if digit == 0:
            return LogReal.zero()
        return self._p0 + self._share * LogReal.from_int(digit - 1)

    def entropy(self) -> mpf:
        # -(p0 ln p0 + (1-p0) ln share); the first term underflows any
        # fixed-width float but is kept honestly via LogReal addition.
        t0 = self._p0 * LogReal.from_mpf(self._p0.log())
        t1 = self._one_minus * LogReal.from_mpf(self._share.log())
        return -(t0 + t1).to_mpf()

    def support_count(self) -> int:
        return self.n

    def min_positive_log(self) -> mpf:
        return self._p0.log()


class CustomRow(Row):
    def __init__(self, probs: Sequence, eps: mpf):
        entries = []
        for p in probs:
            if isinstance(p, LogReal):
                entries.append(p)
            else:
                entries.append(LogReal.from_fraction(Fraction(p)))
        if any(e.sign < 0 for e in entries):
            raise ModelError("probabilities must be >= 0")
        self.n = len(entries)
        self._entries = entries
        total = log_sum(entries)
        if total.is_zero() or abs(total.log()) > eps:
            raise ModelError(
                f"row does not sum to 1 within tolerance (log sum = "
                f"{'-inf' if total.is_zero() else total.log()})"
            )
        self._cums = [LogReal.zero()]
        for e in entries[:-1]:
            self._cums.append(self._cums[-1] + e)

    def logp(self, digit: int) -> LogReal:
        self._check_digit(digit)
        return self._entries[digit]

    def cum(self, digit: int) -> LogReal:
        self._check_digit(digit)
        return self._cums[digit]

    def entropy(self) -> mpf:
        total = LogReal.zero()
        for e in self._entries:
            if not e.is_zero():
                total = total + e * LogReal.from_mpf(e.log())
        return -total.to_mpf() if not total.is_zero() else mpf(0)

    def support_count(self) -> int:
        return sum(1 for e in self._entries if not e.is_zero())

    def first_zero_digit(self) -> Optional[int]:
        for i, e in enumerate(self._entries):
            if e.is_zero():
                return i
        return None

    def min_positive_log(self) -> mpf:
        return min(e.log() for e in self._entries if not e.is_zero())


# ---------------------------------------------------------------------------
# row rules
# ---------------------------------------------------------------------------


class RowRule(ABC):
    """Produces the probability row for each rank."""

    @abstractmethod
    def row(self, k: int, n: int) -> Row: ...

    @abstractmethod
    def descriptor(self): ...

    def separated_from_zero(self, seq: BasicSequence) -> Optional[bool]:
        """Whether inf over all ranks of the positive entries stays > 0."""
        return None


class UniformRule(RowRule):
    def row(self, k: int, n: int) -> Row:
        return UniformRow(n)

    def descriptor(self):
        return "uniform"

    def separated_from_zero(self, seq):
        return seq.eventually_bounded()


class PointMassRule(RowRule):
    def __init__(self, j: int):
        if j < 0:
            raise ModelError(f"point mass digit must be >= 0, got {j}")
        self.j = j

    def row(self, k: int, n: int) -> Row:
        if self.j >= n:
            raise ModelError(f"point mass digit {self.j} outside 0..{n - 1} at rank {k}")
        return PointMassRow(n, self.j)

    def descriptor(self):
        return f"point_mass:{self.j}"

    def separated_from_zero(self, seq):
        return False  # all other digits carry zero mass


class SpikedUniformRule(RowRule):
    """Uniform rows except at power-of-ten ranks, where digit 0 gets the
    vanishing mass 1/E(k).

    The default exponent form is E(k) = 10**(10**k), i.e. ln p0 = -10**k ln 10;
    ``tower=True`` selects the steeper E(k) = 10**(10**(10**k)).  JSON name:
    "example1" (the package's built-in worked counterexample).
    """

    def __init__(self, tower: bool = False):
        self.tower = tower

    def spike_log_p0(self, k: int) -> mpf:
        if self.tower:
            return -ln_int(10) * mp.power(mpf(10), 10**k)
        return -ln_int(10) * (10**k)

    def row(self, k: int, n: int) -> Row:
        if is_power_of_ten(k):
            return VanishingZeroRow(n, self.spike_log_p0(k))
        return UniformRow(n)

    def descriptor(self):
        return "example1" if not self.tower else "example1:tower"

    def separated_from_zero(self, seq):
        return False


class SpikedPointMassRule(RowRule):
    """Uniform rows except at power-of-ten ranks, where all mass sits on
    digit 0.  This is the companion model whose spectrum is the set of
    points with digit 0 forced at those ranks.  JSON name: "example1_psi"."""

    def row(self, k: int, n: int) -> Row:
        if is_power_of_ten(k):
            return PointMassRow(n, 0)
        return UniformRow(n)

    def descriptor(self):
        return "example1_psi"

    def separated_from_zero(self, seq):
        return False


class CustomRule(RowRule):
    """Explicit probability tables, one per rank; the last row repeats for
    ranks beyond the table."""

    def __init__(self, rows: Sequence[Sequence]):
        if not rows:
            raise ModelError("custom rows need at least one row")
        self.rows = [list(r) for r in rows]

    def row(self, k: int, n: int) -> Row:
        raw = self.rows[min(k, len(self.rows)) - 1]
        if len(raw) != n:
            raise ModelError(
                f"custom row for rank {k} has {len(raw)} entries, expected {n}"
            )
        # Rows are built inside working_dps, so the requested precision is
        # the ambient one less the guard digits (MIN_DPS outside any block).
        return CustomRow(raw, eps_for(max(mp.dps - GUARD_DPS, MIN_DPS)))

    def descriptor(self):
        return {"custom": [[_entry_jsonable(p) for p in row] for row in self.rows]}

    def separated_from_zero(self, seq):
        # The table cycles its last row, so the infimum is a minimum over
        # finitely many entries.
        if any(Fraction(p) == 0 for row in self.rows for p in row):
            return False
        return True


def _entry_jsonable(p):
    q = Fraction(p)
    return str(q) if q.denominator != 1 else int(q)


def make_row_rule(spec) -> RowRule:
    """Row-rule descriptor: "uniform" | "example1" | "example1:tower" |
    "example1_psi" | "point_mass:j" | {"custom": [[...], ...]}."""
    if isinstance(spec, str):
        if spec == "uniform":
            return UniformRule()
        if spec == "example1":
            return SpikedUniformRule(tower=False)
        if spec == "example1:tower":
            return SpikedUniformRule(tower=True)
        if spec == "example1_psi":
            return SpikedPointMassRule()
        if spec.startswith("point_mass:"):
            text = spec.split(":", 1)[1]
            try:
                j = int(text)
            except ValueError:
                raise ModelError(f"point_mass digit must be an integer, got {text!r}") from None
            return PointMassRule(j)
        raise ModelError(f"unknown row rule {spec!r}")
    if isinstance(spec, Mapping) and "custom" in spec:
        try:
            return CustomRule([[Fraction(p) for p in row] for row in spec["custom"]])
        except TypeError as exc:
            raise ModelError(f"malformed custom row descriptor: {exc}") from exc
    raise ModelError(f"unknown row rule descriptor {spec!r}")


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

DEPTH_CAP_DEFAULT = 100


class SymbolModel:
    """Law of a random point whose Cantor digits are independent with
    per-rank rows.  ``row`` builds a rank's row at the ambient precision
    on every call and keeps none.  All query operations are pure."""

    def __init__(self, seq: BasicSequence, rule: RowRule, depth_cap: int = DEPTH_CAP_DEFAULT):
        if depth_cap < 1:
            raise ModelError(f"depth_cap must be >= 1, got {depth_cap}")
        self.seq = seq
        self.rule = rule
        self.depth_cap = depth_cap

    def row(self, k: int) -> Row:
        """Rank k's row, built from n_k after the depth-cap check; nothing is kept."""
        if not 1 <= k <= self.depth_cap:
            raise ModelError(f"rank {k} outside 1..depth_cap={self.depth_cap}")
        return self.rule.row(k, self.seq.term(k))

    def walk(self, k_max: int):
        """The measure pipelines' shared rank walk: yield (k, ln n_k,
        ln(n_1...n_{k-1}), ln(n_1...n_k), row k) for k = 1..k_max.

        The logs come from ``rank_logs`` and each row from ``row``, so a
        walk holds one row at a time whatever k_max is.  A rank's log is
        taken before its depth cap, term and row are checked, in that order.
        """
        for k, log_n, before, prefix in rank_logs(self.seq, k_max):
            yield k, log_n, before, prefix, self.row(k)

    def descriptor(self) -> dict:
        return {
            "sequence": self.seq.descriptor(),
            "rows": self.rule.descriptor(),
            "depth_cap": self.depth_cap,
        }


def make_model(spec: Mapping) -> SymbolModel:
    """Model descriptor: {"sequence": ..., "rows": ..., "depth_cap": n}."""
    if not isinstance(spec, Mapping):
        raise ModelError(f"model descriptor must be a mapping, got {type(spec).__name__}")
    try:
        seq = make_sequence(spec["sequence"])
        rule = make_row_rule(spec["rows"])
    except KeyError as exc:
        raise ModelError(f"model descriptor missing {exc}") from exc
    depth_cap = as_integer(spec.get("depth_cap", DEPTH_CAP_DEFAULT), "depth_cap", ModelError)
    return SymbolModel(seq, rule, depth_cap)


def example1_model(depth_cap: int = DEPTH_CAP_DEFAULT, tower: bool = False) -> SymbolModel:
    """The built-in counterexample model: n_k = k+1, uniform rows except a
    vanishing digit-0 mass at power-of-ten ranks."""
    return SymbolModel(ArithmeticSequence(2, Fraction(1)), SpikedUniformRule(tower), depth_cap)


def example1_psi_model(depth_cap: int = DEPTH_CAP_DEFAULT) -> SymbolModel:
    """Companion model: n_k = k+1, uniform rows except all mass on digit 0
    at power-of-ten ranks; its spectrum is the digit-constrained set V."""
    return SymbolModel(ArithmeticSequence(2, Fraction(1)), SpikedPointMassRule(), depth_cap)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _require_same_sequence(model: SymbolModel, d: DigitString) -> None:
    if model.seq.descriptor() != d.seq.descriptor():
        raise ModelError("digit string and model are bound to different sequences")


def cylinder_measure_log(model: SymbolModel, d: DigitString, dps: int | None = None) -> LogReal:
    """Measure of the cylinder of d: the product of its digit probabilities,
    as a LogReal (.log() is the sum of the log probabilities; exact zero iff
    some digit has zero mass)."""
    _require_same_sequence(model, d)
    if d.rank > model.depth_cap:
        raise ModelError(f"rank {d.rank} exceeds depth_cap {model.depth_cap}")
    with working_dps(dps):
        out = LogReal.one()
        for i, a in enumerate(d.digits, 1):
            out = out * model.row(i).logp(a)
            if out.is_zero():
                break
        return out


def cdf(model: SymbolModel, x, k: int, dps: int | None = None) -> mpf:
    """Distribution function evaluated to truncation rank k.

    Sums the measures of all rank-k cylinders strictly left of the one
    containing x; the truncation error is at most the measure of that
    cylinder.  Terms are computed in the log domain and accumulated
    linearly, skipping anything below the working precision.

    The walk stops at the first rank whose prefix measure (that of the
    cylinder containing x) is below the skip floor by more than one nat.
    That changes nothing: every later term is that prefix times further
    digit probabilities and one row's cumulative mass, and each of these
    factors is at most e**eps with eps <= 1e-10 (a custom row may sum to
    1 within that tolerance).  Over at most MAX_RANK = 10**6 ranks they
    grow the prefix by less than e**(1e-4), so no later term reaches the
    floor and the sum is the one the full walk would return.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ModelError(f"cdf needs 0 <= x <= 1, got {x}")
    if not 1 <= k <= model.depth_cap:
        raise ModelError(f"truncation rank {k} outside 1..depth_cap={model.depth_cap}")
    with working_dps(dps):
        if x == 1:
            return mpf(1)
        digits = encode(x, model.seq, k)
        floor_log = -(mp.dps + 2) * mp.ln(10)
        acc = mpf(0)
        prefix = LogReal.one()
        for i, a in enumerate(digits.digits, 1):
            row = model.row(i)
            term = prefix * row.cum(a)
            if not term.is_zero() and term.log() > floor_log:
                acc += term.to_mpf()
            prefix = prefix * row.logp(a)
            if prefix.log() < floor_log - 1:  # ln 0 = -inf: a zero prefix stops too
                break
        return acc


@dataclass
class DimensionSeries:
    """A running dimension approximation d_k with its formula tag and the
    partial sum of squared faithfulness ratios (the precondition under
    which the formula is exact in the limit; divergence is reported, never
    fatal)."""

    formula: str
    model_descriptor: dict
    dps: int
    points: list[tuple[int, mpf]]
    precondition_partial: mpf

    def values(self) -> list[mpf]:
        return [v for _, v in self.points]

    def to_jsonable(self) -> dict:
        from mpmath import nstr

        n = self.dps
        return {
            "formula": self.formula,
            "model": self.model_descriptor,
            "precision_dps": self.dps,
            "precondition_partial_sum": nstr(self.precondition_partial, n),
            "points": [[k, nstr(v, n)] for k, v in self.points],
        }


# A dimension series' formula tag and the per-row term its numerator sums.
MEASURE_ENTROPY = ("measure_entropy", lambda row: row.entropy())
SPECTRUM_COUNT = ("spectrum_count", lambda row: ln_int(row.support_count()))


def dimension_series(
    specs: Sequence[tuple[SymbolModel, tuple[str, Callable[[Row], mpf]]]],
    k_max: int,
    dps: int | None = None,
    on_rank: Callable[[int, mpf, Row], None] | None = None,
) -> list[DimensionSeries]:
    """d_k = (term(row 1) + ... + term(row k)) / ln(n_1 ... n_k) for each
    (model, (formula, term)) in specs, all from one ``walk`` of the first
    model.  The models share its sequence, so the others' rows are built
    at the walk's n_k, and the partial sum of r_k**2 is summed once for
    all.  ``on_rank(k, ln(n_1...n_k), row)`` sees each row of the walk.
    """
    for model, _ in specs:
        if not 1 <= k_max <= model.depth_cap:
            raise ModelError(f"k_max {k_max} outside 1..depth_cap={model.depth_cap}")
        if model.seq != specs[0][0].seq:
            raise ModelError("dimension series sharing a walk need one sequence")
    used = resolve_dps(dps)
    with working_dps(dps):
        numerators = [mpf(0)] * len(specs)
        points: list[list[tuple[int, mpf]]] = [[] for _ in specs]
        square_partial = mpf(0)
        for k, log_n, before, log_prefix, row in specs[0][0].walk(k_max):
            for i, (model, (_, row_term)) in enumerate(specs):
                numerators[i] += row_term(row if i == 0 else model.rule.row(k, row.n))
                points[i].append((k, numerators[i] / log_prefix))
            if k > 1:
                r = log_n / before
                square_partial += r * r
            if on_rank is not None:
                on_rank(k, log_prefix, row)
        return [
            DimensionSeries(
                formula=formula,
                model_descriptor=model.descriptor(),
                dps=used,
                points=series_points,
                precondition_partial=square_partial,
            )
            for (model, (formula, _)), series_points in zip(specs, points)
        ]


def dim_measure_series(model: SymbolModel, k_max: int, dps: int | None = None) -> DimensionSeries:
    """d_k = (h_1 + ... + h_k) / ln(n_1 ... n_k) for k <= k_max."""
    return dimension_series([(model, MEASURE_ENTROPY)], k_max, dps)[0]


def dim_spectrum_series(model: SymbolModel, k_max: int, dps: int | None = None) -> DimensionSeries:
    """d_k = ln(m_1 ... m_k) / ln(n_1 ... n_k) with m_i the number of
    positive entries in row i."""
    return dimension_series([(model, SPECTRUM_COUNT)], k_max, dps)[0]


@dataclass
class LiminfEstimate:
    """Windowed stand-in for a liminf: the minimum over the trailing window,
    plus the full suffix-minimum envelope so the raw structure stays visible.
    A finite series cannot decide a liminf; this is a labeled heuristic."""

    estimate: mpf
    window: int
    lower_envelope: list[tuple[int, mpf]]

    def to_jsonable(self) -> dict:
        from mpmath import nstr

        return {
            "estimate": nstr(self.estimate, 17),
            "window": self.window,
            "heuristic": "minimum over trailing window; no finite computation decides a liminf",
            "lower_envelope": [[k, nstr(v, 17)] for k, v in self.lower_envelope],
        }


def liminf_estimate(series: DimensionSeries, window: int) -> LiminfEstimate:
    """Trailing-window minimum and the suffix-minima envelope of a series."""
    if window < 1:
        raise ModelError(f"window must be >= 1, got {window}")
    if window > len(series.points):
        raise ModelError(
            f"window {window} larger than series of length {len(series.points)}"
        )
    values = series.values()
    estimate = min(values[-window:])
    envelope = []
    running = None
    for k, v in reversed(series.points):
        running = v if running is None else min(running, v)
        envelope.append((k, running))
    envelope.reverse()
    return LiminfEstimate(estimate=estimate, window=window, lower_envelope=envelope)


# ---------------------------------------------------------------------------
# dimension-preservation necessary conditions
# ---------------------------------------------------------------------------

DP_HYPOTHESES_MET = "hypotheses_met_dp_iff_dim1"
DP_NECESSARY_ONLY = "necessary_conditions_met_only"
DP_VIOLATED = "necessary_conditions_violated"


@dataclass
class DpReport:
    """Checks of the necessary conditions for the distribution function to
    preserve dimension, plus whether the bounded/separated hypotheses under
    which the dimension-1 criterion is exact actually hold.  The measure
    dimension series the estimate was taken from rides along, unserialized."""

    verdict: str
    all_positive: bool
    first_zero: Optional[tuple[int, int]]
    dim_estimate: mpf
    dim_ok: bool
    tol: float
    sequence_bounded: Optional[bool]
    probabilities_separated: Optional[bool]
    min_log_probability: Optional[mpf]
    k_max: int
    dps: int
    measure_series: DimensionSeries

    def to_jsonable(self) -> dict:
        from mpmath import nstr

        return {
            "verdict": self.verdict,
            "all_probabilities_positive": self.all_positive,
            "first_zero": list(self.first_zero) if self.first_zero else None,
            "dim_measure_estimate": nstr(self.dim_estimate, 17),
            "dim_estimate_at_least_1_minus_tol": self.dim_ok,
            "tol": self.tol,
            "sequence_bounded": self.sequence_bounded,
            "probabilities_separated_from_zero": self.probabilities_separated,
            "min_log10_probability": (
                nstr(self.min_log_probability / mp.ln(10), 17)
                if self.min_log_probability is not None
                else None
            ),
            "k_max": self.k_max,
            "precision_dps": self.dps,
        }


class PositivityScan:
    """Condition (a), fed each rank of a walk: the first rank whose row has
    a zero entry (and that digit), and the least log probability before it."""

    def __init__(self) -> None:
        self.first_zero: Optional[tuple[int, int]] = None
        self.min_log: Optional[mpf] = None

    def observe(self, k: int, log_prefix: mpf, row: Row) -> None:
        if self.first_zero is not None:
            return
        if row.support_count() < row.n:
            self.first_zero = (k, row.first_zero_digit())
            return
        m = row.min_positive_log()
        self.min_log = m if self.min_log is None else min(self.min_log, m)


def dp_necessary_conditions(
    model: SymbolModel, k_max: int, tol: float = 0.05, dps: int | None = None
) -> DpReport:
    """Report on the necessary conditions for dimension preservation.

    (a) every digit probability positive up to k_max, (b) the measure
    dimension estimate at least 1 - tol, and (c) whether the sequence is
    bounded with probabilities separated from zero, in which case the
    dimension-1 condition is also sufficient.  The positivity scan rides
    on the measure dimension series' rank walk.
    """
    scan = PositivityScan()
    (series,) = dimension_series([(model, MEASURE_ENTROPY)], k_max, dps, scan.observe)
    return dp_report(model, series, scan, tol)


def dp_report(
    model: SymbolModel, series: DimensionSeries, scan: PositivityScan, tol: float = 0.05
) -> DpReport:
    """The DP verdict from a walk's measure dimension series and positivity scan."""
    k_max = len(series.points)
    all_positive = scan.first_zero is None
    with working_dps(series.dps):
        window = k_max - trailing_decade_start(k_max) + 1
        estimate = liminf_estimate(series, window).estimate
        dim_ok = estimate >= 1 - mpf(tol)
    bounded = model.seq.eventually_bounded()
    separated = model.rule.separated_from_zero(model.seq) if all_positive else False
    if not all_positive or not dim_ok:
        verdict = DP_VIOLATED
    elif bounded and separated:
        verdict = DP_HYPOTHESES_MET
    else:
        verdict = DP_NECESSARY_ONLY
    return DpReport(
        verdict=verdict,
        all_positive=all_positive,
        first_zero=scan.first_zero,
        dim_estimate=estimate,
        dim_ok=bool(dim_ok),
        tol=tol,
        sequence_bounded=bounded,
        probabilities_separated=separated,
        min_log_probability=scan.min_log,
        k_max=k_max,
        dps=series.dps,
        measure_series=series,
    )

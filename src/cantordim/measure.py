"""Product measures of independent Cantor-expansion digits.

A SymbolModel assigns each rank k a probability row over the digits
0..n_k-1; the measure of a rank-k cylinder is the product of its digit
probabilities.  Rows are structured objects queried in O(1) (a uniform row
over 10**10 digits is never materialized), and every probability is held
as a plain mpf ln p (``LOG_ZERO`` for 0, see ``logreal``), since the
built-in counterexample model uses digit masses as small as 10**-(10**100).

Rows are built on demand and never kept.  The series pipelines read ranks
through ``SymbolModel.walk``: one pass that reads each term n_k once and
yields ln n_k, the prefix logs (raw kernel values, see ``precision``) and
the rank's row, built from that n_k.  ``dimension_series`` computes several
dimension series over models that share a sequence from one walk, with
per-rank consumers (the DP positivity scan, ratio series) riding along.
``cdf`` builds its rows from the terms of its own greedy digit walk.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Mapping, Optional, Sequence

from mpmath import mp, mpf

from .codec import DigitString, check_max_rank, greedy_digits
from .logreal import LINEAR_LOG_LIMIT, LOG_ZERO, LogReal, log_add, log_fraction, log_sub, log_sum, log_xlog
from .precision import (
    GUARD_DPS, MIN_DPS, as_mpf, eps_for, fone, fzero, ln_int, ln_int_raw, mpf_add, mpf_div, mpf_exp,
    mpf_lt, mpf_mul, mpf_neg, mpf_sub, mpf_text, working_dps,
)
from .sequences import (
    ArithmeticSequence,
    BasicSequence,
    Series,
    as_ratio,
    is_power_of_ten,
    rank_logs,
    reject_unknown_keys,
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
    def logp(self, digit: int) -> mpf:
        """ln P(digit), ``LOG_ZERO`` for a zero mass."""

    @abstractmethod
    def cum(self, digit: int) -> mpf:
        """ln P(X < digit), ``LOG_ZERO`` for a zero mass."""

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
    """Its entropy and -ln n are ``ln_int_raw`` and its exact negation: no mpf operator."""

    def __init__(self, n: int):
        self.n = n
        self._logp = None  # -ln n, built when first asked for; the dimension series never ask

    def logp(self, digit: int) -> mpf:
        self._check_digit(digit)
        return self.min_positive_log()

    def cum(self, digit: int) -> mpf:
        self._check_digit(digit)
        return log_fraction(Fraction(digit, self.n))

    def entropy(self) -> mpf:
        return ln_int(self.n)

    def support_count(self) -> int:
        return self.n

    def min_positive_log(self) -> mpf:
        if self._logp is None:
            self._logp = as_mpf(mpf_neg(ln_int_raw(self.n, *mp._prec_rounding)))
        return self._logp


class PointMassRow(Row):
    def __init__(self, n: int, j: int):
        if not 0 <= j < n:
            raise ModelError(f"point mass digit {j} outside 0..{n - 1}")
        self.n = n
        self.j = j

    def logp(self, digit: int) -> mpf:
        self._check_digit(digit)
        return mpf(0) if digit == self.j else LOG_ZERO

    def cum(self, digit: int) -> mpf:
        self._check_digit(digit)
        return mpf(0) if digit > self.j else LOG_ZERO

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
        self._log_p0 = mpf(log_p0)
        self._log_rest = log_sub(mpf(0), self._log_p0)  # ln(1 - p0)
        self._log_share = self._log_rest - ln_int(n - 1)

    def logp(self, digit: int) -> mpf:
        self._check_digit(digit)
        return self._log_p0 if digit == 0 else self._log_share

    def cum(self, digit: int) -> mpf:
        self._check_digit(digit)
        if digit == 0:
            return LOG_ZERO
        return log_add(self._log_p0, self._log_share + log_fraction(digit - 1))

    def entropy(self) -> mpf:
        # -(p0 ln p0 + (1-p0) ln share); the first term underflows any
        # fixed-width float but is kept honestly in the log domain.
        total = log_add(log_xlog(self._log_p0, self._log_p0), log_xlog(self._log_rest, self._log_share))
        # Over two digits 1 - p0 rounds to 1, so ln share = 0 and the sum is
        # the first term alone, near 10**-(10**10) at the first spike rank:
        # no linear mpf holds it.  A spike row comes after the uniform rows
        # of ranks 1..9, whose entropies sum to at least 9 ln 2 > 1, so an
        # entropy below 2**-(prec + 4) changes no rounded bit of the
        # numerator it joins, and it is returned as 0.
        if total < -(mp.prec + 4) * mp.ln(2):
            return mpf(0)
        return LogReal(total).to_mpf()

    def support_count(self) -> int:
        return self.n

    def min_positive_log(self) -> mpf:
        return self._log_p0


class CustomRow(Row):
    def __init__(self, probs: Sequence[Fraction], eps: mpf):
        if any(not 0 <= p <= 1 for p in probs):
            raise ModelError("probabilities must be in [0, 1]")
        logs = [log_fraction(p) for p in probs]
        self.n = len(logs)
        self._logs = logs
        total = log_sum(logs)
        if total == LOG_ZERO or abs(total) > eps:
            raise ModelError(f"row does not sum to 1 within tolerance (log sum = {total})")
        self._cums = [LOG_ZERO]
        for x in logs[:-1]:
            self._cums.append(log_add(self._cums[-1], x))

    def logp(self, digit: int) -> mpf:
        self._check_digit(digit)
        return self._logs[digit]

    def cum(self, digit: int) -> mpf:
        self._check_digit(digit)
        return self._cums[digit]

    def entropy(self) -> mpf:
        return LogReal(log_sum(log_xlog(x, x) for x in self._logs)).to_mpf()

    def support_count(self) -> int:
        return sum(1 for x in self._logs if x != LOG_ZERO)

    def first_zero_digit(self) -> Optional[int]:
        return next((i for i, x in enumerate(self._logs) if x == LOG_ZERO), None)

    def min_positive_log(self) -> mpf:
        return min(x for x in self._logs if x != LOG_ZERO)


# ---------------------------------------------------------------------------
# row rules
# ---------------------------------------------------------------------------


@dataclass(eq=False)  # a rule holds functions, so it compares and hashes by identity
class RowRule:
    """Produces the probability row for each rank: ``row(k, n)`` builds rank
    k's row from n = n_k, ``descriptor()`` is the rule's JSON descriptor, and
    ``separated_from_zero(seq)`` says whether inf over all ranks of the
    positive entries stays > 0 on seq."""

    name: object
    row: Callable[[int, int], Row]
    separated_from_zero: Callable[[BasicSequence], Optional[bool]]

    def descriptor(self):
        return copy.deepcopy(self.name)  # a copy: editing it leaves the rule as it is


# The spiked rules, by JSON name: uniform rows except at power-of-ten ranks,
# where the spike builds the row.  "example1" (the package's built-in worked
# counterexample) gives digit 0 the vanishing mass 10**-(10**k);
# "example1:tower" the steeper 10**-(10**(10**k)); and "example1_psi", the
# companion model, puts all spike mass on digit 0, so its spectrum is the set
# V of points with digit 0 forced at those ranks.
_SPIKE_ROWS: dict[str, Callable[[int, int], Row]] = {
    "example1": lambda k, n: VanishingZeroRow(n, -ln_int(10) * (10**k)),
    "example1:tower": lambda k, n: VanishingZeroRow(n, -ln_int(10) * mp.power(mpf(10), 10**k)),
    "example1_psi": lambda k, n: PointMassRow(n, 0),
}


class CustomRule(RowRule):
    """Explicit probability tables, one per rank; the last row repeats for
    ranks beyond the table.  Each entry is read as an exact rational here."""

    def __init__(self, rows: Sequence[Sequence]):
        # A string or a mapping would be read one character or key at a time.
        if not isinstance(rows, (list, tuple)):
            raise ModelError(f"custom rows must be an array of rows, got {rows!r}")
        for i, row in enumerate(rows, 1):
            if not isinstance(row, (list, tuple)):
                raise ModelError(f"custom row {i} must be an array of entries, got {row!r}")
        self.rows = table = [
            [as_ratio(p, f"custom row {i} entry {j}", ModelError) for j, p in enumerate(row, 1)]
            for i, row in enumerate(rows, 1)
        ]
        if not table:
            raise ModelError("custom rows need at least one row")

        def row(k: int, n: int) -> Row:
            raw = table[min(k, len(table)) - 1]
            if len(raw) != n:
                raise ModelError(f"custom row for rank {k} has {len(raw)} entries, expected {n}")
            # Rows are built inside working_dps, so the requested precision is
            # the ambient one less the guard digits (MIN_DPS outside any block).
            return CustomRow(raw, eps_for(max(mp.dps - GUARD_DPS, MIN_DPS)))

        # The table cycles its last row, so the infimum is a minimum over
        # finitely many entries.
        separated = all(p != 0 for raw in table for p in raw)
        descriptor = {"custom": [[str(p) if p.denominator != 1 else int(p) for p in raw] for raw in table]}
        super().__init__(descriptor, row, lambda seq: separated)


def make_row_rule(spec) -> RowRule:
    """Row-rule descriptor: "uniform" | "example1" | "example1:tower" |
    "example1_psi" | "point_mass:j" | {"custom": [[...], ...]}."""
    if isinstance(spec, str):
        if spec == "uniform":
            return RowRule(spec, lambda k, n: UniformRow(n), lambda seq: seq.eventually_bounded())
        spike = _SPIKE_ROWS.get(spec)
        if spike is not None:
            return RowRule(spec, lambda k, n: spike(k, n) if is_power_of_ten(k) else UniformRow(n),
                           lambda seq: False)
        if spec.startswith("point_mass:"):
            text = spec.split(":", 1)[1]
            try:
                j = int(text)
            except ValueError:
                raise ModelError(f"point_mass digit must be an integer, got {text!r}") from None
            if j < 0:
                raise ModelError(f"point mass digit must be >= 0, got {j}")

            def point_mass(k: int, n: int) -> Row:
                if j >= n:
                    raise ModelError(f"point mass digit {j} outside 0..{n - 1} at rank {k}")
                return PointMassRow(n, j)

            # all other digits carry zero mass
            return RowRule(f"point_mass:{j}", point_mass, lambda seq: False)
        raise ModelError(f"unknown row rule {spec!r}")
    if isinstance(spec, Mapping) and "custom" in spec:
        reject_unknown_keys(spec, {"custom"}, "row rule", ModelError)
        return CustomRule(spec["custom"])
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

    def row(self, k: int, n: int | None = None) -> Row:
        """Rank k's row, built after the depth-cap check from n = n_k (read
        here when not given); nothing is kept."""
        if not 1 <= k <= self.depth_cap:
            raise ModelError(f"rank {k} outside 1..depth_cap={self.depth_cap}")
        return self.rule.row(k, self.seq.term(k) if n is None else n)

    def walk(self, k_max: int):
        """The measure pipelines' shared rank walk: yield (k, ln n_k,
        ln(n_1...n_{k-1}), ln(n_1...n_k), row k) for k = 1..k_max, the logs
        as raw kernel values at the precision of the caller's block.

        The terms and logs come from ``rank_logs`` and each row is built
        from its n_k, so a walk reads each term once and holds one row at a
        time whatever k_max is.  A rank's term is read, then its log taken,
        then its depth cap and row are checked, in that order.
        """
        for k, n, log_n, before, prefix in rank_logs(self.seq, k_max):
            yield k, log_n, before, prefix, self.row(k, n)

    def descriptor(self) -> dict:
        return {
            "sequence": self.seq.descriptor(),
            "rows": self.rule.descriptor(),
            "depth_cap": self.depth_cap,
        }


def example1_model(depth_cap: int = DEPTH_CAP_DEFAULT, tower: bool = False) -> SymbolModel:
    """The built-in counterexample model: n_k = k+1, uniform rows except a
    vanishing digit-0 mass at power-of-ten ranks."""
    rule = make_row_rule("example1:tower" if tower else "example1")
    return SymbolModel(ArithmeticSequence(2, Fraction(1)), rule, depth_cap)


def example1_psi_model(depth_cap: int = DEPTH_CAP_DEFAULT) -> SymbolModel:
    """Companion model: n_k = k+1, uniform rows except all mass on digit 0
    at power-of-ten ranks; its spectrum is the digit-constrained set V."""
    return SymbolModel(ArithmeticSequence(2, Fraction(1)), make_row_rule("example1_psi"), depth_cap)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _require_same_sequence(model: SymbolModel, d: DigitString) -> None:
    if model.seq.descriptor() != d.seq.descriptor():
        raise ModelError("digit string and model are bound to different sequences")


def cylinder_measure_log(model: SymbolModel, d: DigitString, dps: int | None = None) -> LogReal:
    """Measure of the cylinder of d: the product of its digit probabilities,
    as a LogReal (.log() is the sum of the log probabilities, summed from 0
    in rank order; exact zero iff some digit has zero mass)."""
    _require_same_sequence(model, d)
    if d.rank > model.depth_cap:
        raise ModelError(f"rank {d.rank} exceeds depth_cap {model.depth_cap}")
    with working_dps(dps):
        total = mpf(0)
        for i, a in enumerate(d.digits, 1):
            total += model.row(i).logp(a)
            if total == LOG_ZERO:
                break
        return LogReal(total)


def cdf(model: SymbolModel, x, k: int, dps: int | None = None) -> mpf:
    """Distribution function evaluated to truncation rank k.

    Sums the measures of all rank-k cylinders strictly left of the one
    containing x; the truncation error is at most the measure of that
    cylinder.  Terms are computed in the log domain and accumulated
    linearly, skipping anything below the working precision, on the raw
    kernel (see ``precision``): ``acc += exp(prefix + cum)`` as ``mpf_add``
    and ``mpf_exp``, with ``LogReal.to_mpf``'s OverflowError past its limit.

    The digits of x and the rows come from one pass over n_1..n_k.  It
    stops at the first rank whose prefix measure (that of the cylinder
    containing x) is below the skip floor by more than one nat; the terms
    past it are still read, so a missing or non-integer term raises as it
    would on the full walk.  The stop changes no value: every later term is
    that prefix times further digit probabilities and one row's cumulative
    mass, and each of these factors is at most e**eps with eps <= 1e-10 (a
    custom row may sum to 1 within that tolerance).  Over at most MAX_RANK
    = 10**6 ranks they grow the prefix by less than e**(1e-4), so no later
    term reaches the floor and the sum is the one the full walk would
    return.

    At x = 1 the value is 1 and no row is built, but the rank cap is
    checked and the k terms are read, as on the walk for x < 1.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ModelError(f"cdf needs 0 <= x <= 1, got {x}")
    if not 1 <= k <= model.depth_cap:
        raise ModelError(f"truncation rank {k} outside 1..depth_cap={model.depth_cap}")
    check_max_rank(k)
    with working_dps(dps) as (_, prec, rnd):
        if x == 1:
            deque(model.seq.iter_terms(k), maxlen=0)
            return mpf(1)
        floor_log = (-(mp.dps + 2) * mp.ln(10))._mpf_
        stop_log = mpf_sub(floor_log, fone, prec, rnd)
        neg_limit = mpf_neg(LINEAR_LOG_LIMIT._mpf_)
        acc = fzero
        prefix = fzero  # ln of the measure of the cylinder containing x
        terms = model.seq.iter_terms(k)
        for i, (n, a) in enumerate(greedy_digits(x, terms), 1):
            row = model.rule.row(i, n)
            term = mpf_add(prefix, row.cum(a)._mpf_, prec, rnd)
            if mpf_lt(floor_log, term):
                # A log measure, at most eps <= 1e-10 above 0: only its lower side can pass the limit.
                if mpf_lt(term, neg_limit):
                    raise OverflowError(f"log magnitude {as_mpf(term)} too extreme for a linear-domain value")
                acc = mpf_add(acc, mpf_exp(term, prec, rnd), prec, rnd)
            prefix = mpf_add(prefix, row.logp(a)._mpf_, prec, rnd)
            if mpf_lt(prefix, stop_log):  # ln 0 = -inf: a zero prefix stops too
                break
        deque(terms, maxlen=0)  # the terms past the stop are still checked
        return as_mpf(acc)


@dataclass
class DimensionSeries:
    """A running dimension approximation d_k with its formula tag and the
    partial sum of squared faithfulness ratios (a sufficient proxy only for
    the formula's hypothesis, not that hypothesis; divergence is reported,
    never fatal).  ``texts[k - 1]`` is the text of d_k at ``dps`` digits.  Built
    with ``liminf=True``, it also keeps the suffix minima min(d_j..d_K) as
    ``envelope``: their runs (last rank, value), the values strictly rising.
    """

    formula: str
    model_descriptor: dict
    dps: int
    texts: list[str]
    precondition_partial: mpf
    envelope: Optional[list[tuple[int, mpf]]] = None

    @property
    def points(self) -> Series:
        """The ``(k, text)`` rows of d_k."""
        return Series.of_texts(1, self.texts)

    def to_jsonable(self) -> dict:
        return {
            "formula": self.formula,
            "model": self.model_descriptor,
            "precision_dps": self.dps,
            "precondition_partial_sum": mpf_text(self.precondition_partial, self.dps),
            "points": self.points,
        }


# A dimension series' formula tag and the per-row term its numerator sums,
# as a raw kernel value at (prec, rnd).
MEASURE_ENTROPY = ("measure_entropy", lambda row, prec, rnd: row.entropy()._mpf_)
SPECTRUM_COUNT = ("spectrum_count", lambda row, prec, rnd: ln_int_raw(row.support_count(), prec, rnd))


def dimension_series(
    specs: Sequence[tuple[SymbolModel, tuple[str, Callable[[Row, int, str], tuple]]]],
    k_max: int,
    dps: int | None = None,
    on_rank: Callable[[int, tuple, Row], None] | None = None,
    liminf: bool = False,
) -> list[DimensionSeries]:
    """d_k = (term(row 1) + ... + term(row k)) / ln(n_1 ... n_k) for each
    (model, (formula, term)) in specs, all from one ``walk`` of the first
    model.  The models share its sequence, so the others' rows are built
    at the walk's n_k, and the partial sum of r_k**2 is summed once for
    all.  ``on_rank(k, ln(n_1...n_k), row)`` sees each row of the walk,
    with the prefix log as a raw kernel value.  Each d_k is formatted in
    the walk and kept as text; with ``liminf``, each series' envelope is
    kept as a stack of runs, a new d_k ending every run not below it.
    """
    for model, _ in specs:
        if not 1 <= k_max <= model.depth_cap:
            raise ModelError(f"k_max {k_max} outside 1..depth_cap={model.depth_cap}")
        if model.seq != specs[0][0].seq:
            raise ModelError("dimension series sharing a walk need one sequence")
    with working_dps(dps) as (used, prec, rnd):
        numerators = [fzero] * len(specs)
        texts: list[list[str]] = [[] for _ in specs]
        runs: list[list[tuple[int, tuple]]] = [[] for _ in specs]
        square_partial = fzero
        for k, log_n, before, log_prefix, row in specs[0][0].walk(k_max):
            for i, (model, (_, row_term)) in enumerate(specs):
                term = row_term(row if i == 0 else model.rule.row(k, row.n), prec, rnd)
                numerators[i] = mpf_add(numerators[i], term, prec, rnd)
                d = mpf_div(numerators[i], log_prefix, prec, rnd)
                texts[i].append(mpf_text(as_mpf(d), used))
                if liminf:
                    stack = runs[i]
                    while stack and not mpf_lt(stack[-1][1], d):
                        stack.pop()
                    stack.append((k, d))
            if k > 1:
                r = mpf_div(log_n, before, prec, rnd)
                square_partial = mpf_add(square_partial, mpf_mul(r, r, prec, rnd), prec, rnd)
            if on_rank is not None:
                on_rank(k, log_prefix, row)
        return [
            DimensionSeries(
                formula=formula,
                model_descriptor=model.descriptor(),
                dps=used,
                texts=series_texts,
                precondition_partial=as_mpf(square_partial),
                envelope=[(k, as_mpf(v)) for k, v in stack] if liminf else None,
            )
            for (model, (formula, _)), series_texts, stack in zip(specs, texts, runs)
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
    A finite series cannot decide a liminf; this is a labeled heuristic.
    ``lower_envelope`` holds the envelope's runs, listed rank by rank in JSON.
    """

    estimate: mpf
    window: int
    lower_envelope: list[tuple[int, mpf]]

    def _envelope_rows(self):
        first = 1
        for last, value in self.lower_envelope:
            yield from zip(range(first, last + 1), repeat(mpf_text(value, 17)))  # one text a run
            first = last + 1

    def to_jsonable(self) -> dict:
        return {
            "estimate": mpf_text(self.estimate, 17),
            "window": self.window,
            "heuristic": "minimum over trailing window; no finite computation decides a liminf",
            "lower_envelope": Series(self.lower_envelope[-1][0], self._envelope_rows),
        }


def liminf_estimate(series: DimensionSeries, window: int) -> LiminfEstimate:
    """Trailing-window minimum and the suffix-minima envelope of a series
    built by ``dimension_series(..., liminf=True)``."""
    if window < 1:
        raise ModelError(f"window must be >= 1, got {window}")
    k_max = len(series.texts)
    if window > k_max:
        raise ModelError(f"window {window} larger than series of length {k_max}")
    if series.envelope is None:
        raise ModelError("the series was built without its envelope; build it with dimension_series(..., liminf=True)")
    start = k_max - window + 1  # the window's minimum is the envelope's value there
    estimate = next(v for last, v in series.envelope if last >= start)
    return LiminfEstimate(estimate=estimate, window=window, lower_envelope=series.envelope)


def final_decade_liminf(series: DimensionSeries) -> LiminfEstimate:
    """``liminf_estimate`` over the final decade: the ranks from the largest
    power of ten <= k_max on."""
    k_max = len(series.texts)
    return liminf_estimate(series, k_max - trailing_decade_start(k_max) + 1)


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
        with working_dps(self.dps):  # the report's precision, not the caller's
            return {
                "verdict": self.verdict,
                "all_probabilities_positive": self.all_positive,
                "first_zero": list(self.first_zero) if self.first_zero else None,
                "dim_measure_estimate": mpf_text(self.dim_estimate, 17),
                "dim_estimate_at_least_1_minus_tol": self.dim_ok,
                "tol": self.tol,
                "sequence_bounded": self.sequence_bounded,
                "probabilities_separated_from_zero": self.probabilities_separated,
                "min_log10_probability": (
                    mpf_text(self.min_log_probability / mp.ln(10), 17)
                    if self.min_log_probability is not None
                    else None
                ),
                "k_max": self.k_max,
                "precision_dps": self.dps,
            }


class PositivityScan:
    """Condition (a), fed each rank of a walk: the first rank whose row has
    a zero entry (and that digit), and the least log probability before it
    (kept as a raw kernel value; ``min_log`` wraps it)."""

    def __init__(self) -> None:
        self.first_zero: Optional[tuple[int, int]] = None
        self._min_log: Optional[tuple] = None

    @property
    def min_log(self) -> Optional[mpf]:
        return None if self._min_log is None else as_mpf(self._min_log)

    def observe(self, k: int, log_prefix: tuple, row: Row) -> None:
        if self.first_zero is not None:
            return
        if row.support_count() < row.n:
            self.first_zero = (k, row.first_zero_digit())
            return
        m = row.min_positive_log()._mpf_
        if self._min_log is None or mpf_lt(m, self._min_log):  # as min() keeps the first
            self._min_log = m


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
    (series,) = dimension_series([(model, MEASURE_ENTROPY)], k_max, dps, scan.observe, liminf=True)
    return dp_report(model, series, scan, final_decade_liminf(series), tol)


def dp_report(
    model: SymbolModel,
    series: DimensionSeries,
    scan: PositivityScan,
    liminf: LiminfEstimate,
    tol: float = 0.05,
) -> DpReport:
    """The DP verdict from a walk's measure dimension series, its
    ``final_decade_liminf`` and the positivity scan."""
    k_max = len(series.texts)
    all_positive = scan.first_zero is None
    estimate = liminf.estimate
    with working_dps(series.dps):
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

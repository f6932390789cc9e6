"""Pointwise ratio analysis between cylinder lengths and cylinder measures,
and the bundled report for the package's built-in counterexample.

The ratio

    b_k(x) = ln(lambda cylinder) / ln(mu cylinder)
           = ln(n_1...n_k) / (-ln product of digit probabilities)

rescales dimensions between Lebesgue measure and the digit-product measure
along x.  When it converges to delta, the image of a set under the
distribution function has dimension delta times the original.  The report
states that conclusion as a prediction: no finite computation evaluates
the image set's dimension independently.

``ratio_series`` reads b_k off one ``SymbolModel.walk``, adding one digit's
log mass per rank to the raw log of the cylinder measure (see
``precision`` for the kernel); ``billingsley_ratio`` computes one value
with mpf operators on the oracles' logs as its oracle.  ``example1_report`` feeds
one walk to every series it reports: both dimension series, the DP
positivity scan and one b_k series.  Every element of the digit-constrained
set V has the same cylinder measures under the example1 rows, so every
element of V, the extreme one and each sample, shares that series.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from mpmath import mpf

from .codec import DigitString, check_max_rank
from .logreal import LOG_ZERO
from .measure import (
    MEASURE_ENTROPY,
    SPECTRUM_COUNT,
    DimensionSeries,
    DpReport,
    LiminfEstimate,
    PositivityScan,
    Row,
    SymbolModel,
    cylinder_measure_log,
    dimension_series,
    dp_report,
    example1_model,
    example1_psi_model,
    final_decade_liminf,
    liminf_estimate,
)
from .precision import (
    as_mpf, fninf, fzero, mpf_add, mpf_cmp, mpf_div, mpf_neg, mpf_text, working_dps,
)
from .sequences import (
    BasicSequence,
    Series,
    is_power_of_ten,
    log_prefix_product,
    trailing_decade_start,
)

# The first power-of-ten rank, where the example1 models first spike.
FIRST_SPIKE = 10

FLAG_ZERO_MEASURE = "zero_measure"
FLAG_UNIT_MEASURE = "unit_measure"


@dataclass(frozen=True, slots=True)
class RatioPoint:
    """One b_k value; degenerate prefixes (measure 0 or 1) are flagged and
    carry value 0 by convention."""

    k: int
    value: mpf
    flag: Optional[str] = None


def billingsley_ratio(
    model: SymbolModel, d: DigitString, k: int, dps: int | None = None
) -> RatioPoint:
    """b_k along the digit string d (whose rank must be >= k)."""
    if k < 1:
        raise ValueError(f"ratio rank must be >= 1, got {k}")
    if d.rank < k:
        raise ValueError(f"digit string has rank {d.rank} < k = {k}")
    with working_dps(dps):
        log_mu = cylinder_measure_log(model, d.truncate(k), dps).log()
        log_prefix = log_prefix_product(model.seq, k, dps).log()
        if log_mu == LOG_ZERO:
            return RatioPoint(k=k, value=mpf(0), flag=FLAG_ZERO_MEASURE)
        if log_mu == 0:
            return RatioPoint(k=k, value=mpf(0), flag=FLAG_UNIT_MEASURE)
        return RatioPoint(k=k, value=log_prefix / (-log_mu))


@dataclass
class RatioSeries:
    """b_k for k = 1..k_max along one digit string, with the monotone
    rise/fall/flat segments of the series."""

    digits: DigitString
    dps: int
    points: list[RatioPoint]
    segments: list[tuple[str, int, int]] = field(default_factory=list)

    def rows(self, texts: dict[int, str] | None = None) -> Series:
        """The points as a series node, each formatted as it is written.
        ``texts`` maps ``id(point)`` to the point's text at this series'
        precision; series that hold the same point objects pass one dict,
        so each point is formatted once."""
        n, texts = self.dps, {} if texts is None else texts

        def rows():
            for p in self.points:
                text = texts.get(id(p))
                if text is None:
                    text = texts[id(p)] = mpf_text(p.value, n)
                yield (p.k, text, p.flag) if p.flag else (p.k, text)

        return Series(len(self.points), rows)

    def to_jsonable(self, texts: dict[int, str] | None = None) -> dict:
        """The series as JSON, its points as ``rows(texts)``."""
        return {
            "digits": self.digits.to_jsonable(),
            "precision_dps": self.dps,
            "segments": [[kind, a, b] for kind, a, b in self.segments],
            "points": self.rows(texts),
        }


_SEGMENT_KIND = {1: "rise", -1: "fall", 0: "flat"}


def _monotone_segments(points: list[RatioPoint]) -> list[tuple[str, int, int]]:
    segments: list[tuple[str, int, int]] = []
    for prev, cur in zip(points, points[1:]):
        kind = _SEGMENT_KIND[mpf_cmp(cur.value._mpf_, prev.value._mpf_)]  # values are never NaN
        if segments and segments[-1][0] == kind and segments[-1][2] == prev.k:
            segments[-1] = (kind, segments[-1][1], cur.k)
        else:
            segments.append((kind, prev.k, cur.k))
    return segments


class _RatioWalk:
    """b_k along one digit string, fed one rank of a model walk at a time.
    The cylinder measure is kept as its raw log: ln 1 = 0 to start, -inf
    once a digit has zero mass (the sum stays -inf)."""

    def __init__(self, d: DigitString):
        self.d = d
        self.log_mu = fzero
        self.points: list[RatioPoint] = []

    def step(self, k: int, log_prefix: tuple, row: Row, prec: int, rnd: str) -> None:
        """Advance by rank k at the kernel's (prec, rnd), with the flags and
        values of ``billingsley_ratio``."""
        log_mu = self.log_mu = mpf_add(self.log_mu, row.logp(self.d.digits[k - 1])._mpf_, prec, rnd)
        if log_mu == fninf:
            point = RatioPoint(k=k, value=mpf(0), flag=FLAG_ZERO_MEASURE)
        elif log_mu == fzero:
            point = RatioPoint(k=k, value=mpf(0), flag=FLAG_UNIT_MEASURE)
        else:
            value = mpf_div(log_prefix, mpf_neg(log_mu), prec, rnd)  # exact: log_mu has at most prec bits
            point = RatioPoint(k=k, value=as_mpf(value))
        self.points.append(point)

    def series(self, dps: int) -> RatioSeries:
        return RatioSeries(self.d, dps, self.points, _monotone_segments(self.points))


def ratio_series(
    model: SymbolModel, d: DigitString, k_max: int, dps: int | None = None
) -> RatioSeries:
    """The full b_k series along d for k = 1..k_max, from one ``walk`` of
    the model's ranks: each row is built once and not kept."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if d.rank < k_max:
        raise ValueError(f"digit string has rank {d.rank} < k_max = {k_max}")
    with working_dps(dps) as (used, prec, rnd):
        walk = _RatioWalk(d)
        for k, _, _, log_prefix, row in model.walk(k_max):
            walk.step(k, log_prefix, row, prec, rnd)
        return walk.series(used)


# ---------------------------------------------------------------------------
# the digit-constrained set V: digit 0 forced at power-of-ten ranks
# ---------------------------------------------------------------------------


def _v_element(seq: BasicSequence, k_max: int, free: Callable[[int], int]) -> DigitString:
    """The element of V to rank k_max with digit 0 at power-of-ten ranks and
    ``free(n_k)``, a digit in 0..n_k-1, at the others, taken in rank order
    from one pass over the terms."""
    check_max_rank(k_max)
    digits = tuple(0 if is_power_of_ten(k) else free(n) for k, n in enumerate(seq.iter_terms(k_max), 1))
    return DigitString.unchecked(seq, digits)


def v_extreme_element(seq: BasicSequence, k_max: int) -> DigitString:
    """The all-max-digit element of V to rank k_max."""
    return _v_element(seq, k_max, lambda n: n - 1)


def sample_v_element(seq: BasicSequence, k_max: int, rng: random.Random) -> DigitString:
    """A random element of V: digits uniform over the full range at free
    ranks, drawn in rank order."""
    return _v_element(seq, k_max, rng.randrange)


# ---------------------------------------------------------------------------
# the bundled counterexample report
# ---------------------------------------------------------------------------

REPORT_NOTES = [
    "image dimension is stated as a prediction (ratio limit 0 times set "
    "dimension); no finite computation evaluates the image set's dimension "
    "independently",
    "the faithfulness of the image cylinder family is only known under "
    "bounded-branching and separated-probability hypotheses, which this "
    "model violates; the prediction inherits that gap",
    "the headline compares the dimension of the set with the predicted "
    "dimension of its image under the distribution function; those are the "
    "two quantities that disagree",
]


@dataclass
class Example1Report:
    """End-to-end numeric reproduction of the built-in counterexample:
    measure dimension near 1, spectrum dimension of the companion model
    near 1, ratio series collapsing at spike ranks, and the resulting
    predicted image dimension 0."""

    k_max: int
    dps: int
    seed: int
    spike_form: str
    measure_series: "DimensionSeries"
    measure_liminf: "LiminfEstimate"
    spectrum_series: "DimensionSeries"
    spectrum_liminf: "LiminfEstimate"
    ratio_extreme: RatioSeries
    ratio_samples: list[RatioSeries]
    dp_report: "DpReport"
    delta_estimate: mpf

    def headline(self) -> dict:
        with working_dps(self.dps):  # the report's precision, not the caller's
            predicted = self.delta_estimate * self.spectrum_liminf.estimate
        if self.k_max < FIRST_SPIKE:
            conclusion = (
                f"no spike rank was reached (the first is rank {FIRST_SPIKE}, k_max is "
                f"{self.k_max}), so the ratio series has not collapsed yet: the ratio "
                "limit estimate 1 is a placeholder and the predicted image dimension "
                "says nothing about dimension preservation"
            )
        else:
            conclusion = (
                "set dimension stays near 1 while the ratio limit collapses to 0, "
                "so the predicted image dimension is 0: the distribution function "
                "does not preserve dimension"
            )
        return {
            "set_dimension_estimate": mpf_text(self.spectrum_liminf.estimate, 17),
            "ratio_limit_estimate_at_last_spike": mpf_text(self.delta_estimate, 17),
            "predicted_image_dimension": mpf_text(predicted, 17),
            "conclusion": conclusion,
        }

    def to_jsonable(self) -> dict:
        measure_dim = self.measure_series.to_jsonable()
        measure_dim["liminf"] = self.measure_liminf.to_jsonable()
        spectrum_dim = self.spectrum_series.to_jsonable()
        spectrum_dim["liminf"] = self.spectrum_liminf.to_jsonable()
        texts: dict[int, str] = {}  # the ratio series share their points
        return {
            "k_max": self.k_max,
            "precision_dps": self.dps,
            "seed": self.seed,
            "spike_exponent_form": self.spike_form,
            "measure_dimension": measure_dim,
            "spectrum_dimension": spectrum_dim,
            "ratio_series_extreme": self.ratio_extreme.to_jsonable(texts),
            "ratio_series_samples": [s.to_jsonable(texts) for s in self.ratio_samples],
            "dp_necessary_conditions": self.dp_report.to_jsonable(),
            "headline": self.headline(),
            "notes": REPORT_NOTES,
        }


def example1_report(
    k_max: int,
    seed: int = 0,
    tower: bool = False,
    samples: int = 3,
    dps: int | None = None,
) -> Example1Report:
    """Run the full counterexample pipeline to rank k_max.

    The digit strings (the extreme element of V, then each sample drawn in
    full, in turn) come first.  One ``walk`` of the shared arithmetic
    sequence then feeds every series: each rank builds the row of both
    models once, adds to the measure and spectrum numerators and to the
    shared sum of r_k**2, advances the positivity scan of the DP report,
    and multiplies the extreme element's cylinder measure by its digit's
    mass.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    model = example1_model(depth_cap=k_max, tower=tower)
    psi = example1_psi_model(depth_cap=k_max)
    seq = model.seq
    with working_dps(dps) as (used, prec, rnd):
        rng = random.Random(seed)
        walk = _RatioWalk(v_extreme_element(seq, k_max))
        drawn = [sample_v_element(seq, k_max, rng) for _ in range(samples)]
        scan = PositivityScan()

        def on_rank(k: int, log_prefix: tuple, row: Row) -> None:
            scan.observe(k, log_prefix, row)
            walk.step(k, log_prefix, row, prec, rnd)

        mseries, sseries = dimension_series(
            [(model, MEASURE_ENTROPY), (psi, SPECTRUM_COUNT)], k_max, dps, on_rank, liminf=True
        )
        m_est = final_decade_liminf(mseries)
        dp = dp_report(model, mseries, scan, m_est)
        s_est = liminf_estimate(sseries, m_est.window)
        last_spike = trailing_decade_start(k_max)  # a spike only from rank 10 on
        extreme = walk.series(used)
        # Every x in V has the same cylinder measures mu(I_k(x)): the rows are
        # uniform off the spike ranks, and V fixes digit 0 at them.  So b_k is
        # one series on all of V, and each sample holds the extreme series'
        # points and segments with its own digits.
        sample_series = [RatioSeries(d, used, extreme.points, extreme.segments) for d in drawn]
        delta_estimate = extreme.points[last_spike - 1].value if last_spike >= FIRST_SPIKE else mpf(1)
        return Example1Report(
            k_max=k_max,
            dps=used,
            seed=seed,
            spike_form="10^(10^(10^k))" if tower else "10^(10^k)",
            measure_series=mseries,
            measure_liminf=m_est,
            spectrum_series=sseries,
            spectrum_liminf=s_est,
            ratio_extreme=extreme,
            ratio_samples=sample_series,
            dp_report=dp,
            delta_estimate=delta_estimate,
        )

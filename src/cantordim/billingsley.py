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

``ratio_series`` reads b_k off one ``SymbolModel.walk``, multiplying the
cylinder measure by one digit's mass per rank.  ``example1_report`` feeds
the same walk to every series it reports: both dimension series, the DP
positivity scan and the ratio series of each digit string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from mpmath import mpf

from .codec import DigitString
from .logreal import LogReal
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
    liminf_estimate,
)
from .precision import resolve_dps, working_dps
from .sequences import (
    BasicSequence,
    is_power_of_ten,
    log_prefix_product,
    trailing_decade_start,
)

FLAG_ZERO_MEASURE = "zero_measure"
FLAG_UNIT_MEASURE = "unit_measure"


@dataclass(frozen=True)
class RatioPoint:
    """One b_k value; degenerate prefixes (measure 0 or 1) are flagged and
    carry value 0 by convention."""

    k: int
    value: mpf
    flag: Optional[str] = None


def _ratio_point(k: int, log_prefix: mpf, mu: LogReal) -> RatioPoint:
    """b_k from ln(n_1...n_k) and the cylinder measure mu along the string."""
    if mu.is_zero():
        return RatioPoint(k=k, value=mpf(0), flag=FLAG_ZERO_MEASURE)
    if mu.log() == 0:
        return RatioPoint(k=k, value=mpf(0), flag=FLAG_UNIT_MEASURE)
    return RatioPoint(k=k, value=log_prefix / (-mu.log()))


def billingsley_ratio(
    model: SymbolModel, d: DigitString, k: int, dps: int | None = None
) -> RatioPoint:
    """b_k along the digit string d (whose rank must be >= k)."""
    if k < 1:
        raise ValueError(f"ratio rank must be >= 1, got {k}")
    if d.rank < k:
        raise ValueError(f"digit string has rank {d.rank} < k = {k}")
    with working_dps(dps):
        mu = cylinder_measure_log(model, d.truncate(k), dps)
        return _ratio_point(k, log_prefix_product(model.seq, k, dps).log(), mu)


@dataclass
class RatioSeries:
    """b_k for k = 1..k_max along one digit string, with the monotone
    rise/fall/flat segments of the series."""

    digits: DigitString
    dps: int
    points: list[RatioPoint]
    segments: list[tuple[str, int, int]] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        from mpmath import nstr

        n = self.dps
        return {
            "digits": self.digits.to_jsonable(),
            "precision_dps": self.dps,
            "segments": [[kind, a, b] for kind, a, b in self.segments],
            "points": [
                [p.k, nstr(p.value, n)] + ([p.flag] if p.flag else [])
                for p in self.points
            ],
        }


def _monotone_segments(points: list[RatioPoint]) -> list[tuple[str, int, int]]:
    segments: list[tuple[str, int, int]] = []
    for prev, cur in zip(points, points[1:]):
        if cur.value > prev.value:
            kind = "rise"
        elif cur.value < prev.value:
            kind = "fall"
        else:
            kind = "flat"
        if segments and segments[-1][0] == kind and segments[-1][2] == prev.k:
            segments[-1] = (kind, segments[-1][1], cur.k)
        else:
            segments.append((kind, prev.k, cur.k))
    return segments


class _RatioWalk:
    """b_k along one digit string, fed one rank of a model walk at a time."""

    def __init__(self, d: DigitString):
        self.d = d
        self.mu = LogReal.one()
        self.points: list[RatioPoint] = []

    def step(self, k: int, log_prefix: mpf, row: Row) -> None:
        self.mu = self.mu * row.logp(self.d.digits[k - 1])
        self.points.append(_ratio_point(k, log_prefix, self.mu))

    def series(self, dps: int) -> RatioSeries:
        return RatioSeries(
            digits=self.d, dps=dps, points=self.points, segments=_monotone_segments(self.points)
        )


def ratio_series(
    model: SymbolModel, d: DigitString, k_max: int, dps: int | None = None
) -> RatioSeries:
    """The full b_k series along d for k = 1..k_max, from one ``walk`` of
    the model's ranks: each row is built once and not kept."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if d.rank < k_max:
        raise ValueError(f"digit string has rank {d.rank} < k_max = {k_max}")
    used = resolve_dps(dps)
    with working_dps(dps):
        walk = _RatioWalk(d)
        for k, _, _, log_prefix, row in model.walk(k_max):
            walk.step(k, log_prefix, row)
        return walk.series(used)


# ---------------------------------------------------------------------------
# the digit-constrained set V: digit 0 forced at power-of-ten ranks
# ---------------------------------------------------------------------------


def v_extreme_element(seq: BasicSequence, k_max: int) -> DigitString:
    """The all-max-digit element of V to rank k_max."""
    digits = tuple(
        0 if is_power_of_ten(k) else seq.term(k) - 1 for k in range(1, k_max + 1)
    )
    return DigitString(seq, digits)


def sample_v_element(seq: BasicSequence, k_max: int, rng: random.Random) -> DigitString:
    """A random element of V: digits uniform over the full range at free
    ranks, 0 at power-of-ten ranks."""
    digits = tuple(
        0 if is_power_of_ten(k) else rng.randrange(seq.term(k))
        for k in range(1, k_max + 1)
    )
    return DigitString(seq, digits)


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
        from mpmath import nstr

        return {
            "set_dimension_estimate": nstr(self.spectrum_liminf.estimate, 17),
            "ratio_limit_estimate_at_last_spike": nstr(self.delta_estimate, 17),
            "predicted_image_dimension": nstr(
                self.delta_estimate * self.spectrum_liminf.estimate, 17
            ),
            "conclusion": (
                "set dimension stays near 1 while the ratio limit collapses to 0, "
                "so the predicted image dimension is 0: the distribution function "
                "does not preserve dimension"
            ),
        }

    def to_jsonable(self) -> dict:
        measure_dim = self.measure_series.to_jsonable()
        measure_dim["liminf"] = self.measure_liminf.to_jsonable()
        spectrum_dim = self.spectrum_series.to_jsonable()
        spectrum_dim["liminf"] = self.spectrum_liminf.to_jsonable()
        return {
            "k_max": self.k_max,
            "precision_dps": self.dps,
            "seed": self.seed,
            "spike_exponent_form": self.spike_form,
            "measure_dimension": measure_dim,
            "spectrum_dimension": spectrum_dim,
            "ratio_series_extreme": self.ratio_extreme.to_jsonable(),
            "ratio_series_samples": [s.to_jsonable() for s in self.ratio_samples],
            "dp_necessary_conditions": self.dp_report.to_jsonable(),
            "headline": self.headline(),
            "notes": REPORT_NOTES,
        }

    def series_map(self) -> dict[str, list[tuple[int, mpf]]]:
        """Named (k, value) series for CSV / plot-data emission."""
        out = {
            "measure_dim": list(self.measure_series.points),
            "spectrum_dim": list(self.spectrum_series.points),
            "ratio_extreme": [(p.k, p.value) for p in self.ratio_extreme.points],
        }
        for i, s in enumerate(self.ratio_samples):
            out[f"ratio_sample_{i}"] = [(p.k, p.value) for p in s.points]
        return out


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
    and multiplies each string's cylinder measure by its digit's mass.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    used = resolve_dps(dps)
    model = example1_model(depth_cap=k_max, tower=tower)
    psi = example1_psi_model(depth_cap=k_max)
    seq = model.seq
    with working_dps(dps):
        rng = random.Random(seed)
        strings = [v_extreme_element(seq, k_max)]
        strings += [sample_v_element(seq, k_max, rng) for _ in range(samples)]
        walks = [_RatioWalk(d) for d in strings]
        scan = PositivityScan()

        def on_rank(k: int, log_prefix: mpf, row: Row) -> None:
            scan.observe(k, log_prefix, row)
            for walk in walks:
                walk.step(k, log_prefix, row)

        mseries, sseries = dimension_series(
            [(model, MEASURE_ENTROPY), (psi, SPECTRUM_COUNT)], k_max, dps, on_rank
        )
        dp = dp_report(model, mseries, scan)
        last_spike = trailing_decade_start(k_max)  # a spike only from rank 10 on
        window = k_max - last_spike + 1
        m_est = liminf_estimate(mseries, window)
        s_est = liminf_estimate(sseries, window)
        extreme_series, *sample_series = [walk.series(used) for walk in walks]
        delta_estimate = extreme_series.points[last_spike - 1].value if last_spike >= 10 else mpf(1)
        return Example1Report(
            k_max=k_max,
            dps=used,
            seed=seed,
            spike_form="10^(10^(10^k))" if tower else "10^(10^k)",
            measure_series=mseries,
            measure_liminf=m_est,
            spectrum_series=sseries,
            spectrum_liminf=s_est,
            ratio_extreme=extreme_series,
            ratio_samples=sample_series,
            dp_report=dp,
            delta_estimate=delta_estimate,
        )

"""Length/measure ratio series and the bundled counterexample report."""

import collections
import json
import math
import random

import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_str

from cantordim import (
    DigitString,
    SymbolModel,
    billingsley_ratio,
    dp_necessary_conditions,
    eps_for,
    example1_model,
    example1_psi_model,
    example1_report,
    liminf_estimate,
    make_row_rule,
    make_sequence,
    ratio_series,
    sample_v_element,
    is_power_of_ten,
    v_extreme_element,
    working_dps,
)
from cantordim import billingsley, cli, measure
from cantordim.measure import SPECTRUM_COUNT, dimension_series
from cantordim.billingsley import (
    FLAG_UNIT_MEASURE,
    FLAG_ZERO_MEASURE,
    _monotone_segments,
)
from cantordim.precision import mpf_text
from cantordim.sequences import Series, trailing_decade_start


def rendered(payload) -> str:
    """The payload as the CLI writer writes it."""
    return "".join(cli._json_pieces(payload))


def list_form(value):
    """The payload with every series node as its JSON list."""
    if isinstance(value, Series):
        return [list(row) for row in value]
    if isinstance(value, dict):
        return {key: list_form(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [list_form(item) for item in value]
    return value

ARITH = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})
CONSTANT3 = make_sequence({"kind": "constant", "s": 3})


def test_uniform_model_ratio_is_exactly_one():
    m = SymbolModel(ARITH, make_row_rule("uniform"), depth_cap=60)
    d = v_extreme_element(ARITH, 60)
    series = ratio_series(m, d, 60)
    assert all(p.value == 1 for p in series.points)
    assert series.segments == [("flat", 1, 60)]


def test_example1_ratios_one_through_rank_nine():
    m = example1_model(depth_cap=20)
    d = v_extreme_element(ARITH, 20)
    with working_dps(50):
        for k in range(1, 10):
            assert billingsley_ratio(m, d, k).value == 1


def test_example1_first_drop_vs_direct_oracle():
    # independent recomputation: ln(11!) / (ln(10!) + 10**10 ln 10)
    m = example1_model(depth_cap=15)
    d = v_extreme_element(ARITH, 15)
    with working_dps(50):
        got = billingsley_ratio(m, d, 10).value
        want = mp.ln(mpf(math.factorial(11))) / (
            mp.ln(mpf(math.factorial(10))) + (10**10) * mp.ln(10)
        )
        assert abs(got - want) <= want * mpf("1e-12")
        assert got < mpf("1e-8")


def test_series_pattern_through_second_spike():
    m = example1_model(depth_cap=100)
    d = v_extreme_element(ARITH, 100)
    series = ratio_series(m, d, 100)
    values = {p.k: p.value for p in series.points}
    assert values[9] == 1
    assert values[10] < values[9]
    for k in range(10, 99):
        assert values[k + 1] > values[k]
    assert values[100] < values[99]
    assert ("flat", 1, 9) == series.segments[0]
    assert ("fall", 9, 10) in series.segments
    assert ("rise", 10, 99) in series.segments
    assert ("fall", 99, 100) in series.segments


def test_spike_subsequences_decrease():
    m = example1_model(depth_cap=100)
    d = v_extreme_element(ARITH, 100)
    series = ratio_series(m, d, 100)
    values = {p.k: p.value for p in series.points}
    assert values[10] > values[100]  # lower surrogate along spike ranks
    assert values[9] > values[99]  # upper surrogate just before spikes


def test_degenerate_flags():
    pm = SymbolModel(ARITH, make_row_rule("point_mass:0"), depth_cap=10)
    d = DigitString(ARITH, (0,) * 10)
    assert billingsley_ratio(pm, d, 5).flag == FLAG_UNIT_MEASURE
    cantor = SymbolModel(CONSTANT3, make_row_rule({"custom": [["1/2", 0, "1/2"]]}), 10)
    dead = DigitString(CONSTANT3, (1, 0))
    assert billingsley_ratio(cantor, dead, 2).flag == FLAG_ZERO_MEASURE


def test_ratio_needs_enough_digits():
    m = example1_model(depth_cap=20)
    d = v_extreme_element(ARITH, 5)
    with pytest.raises(ValueError):
        billingsley_ratio(m, d, 6)
    with pytest.raises(ValueError):
        ratio_series(m, d, 6)


def test_precision_self_consistency():
    m = example1_model(depth_cap=40)
    d = v_extreme_element(ARITH, 40)
    coarse = ratio_series(m, d, 40, dps=30)
    fine = ratio_series(m, d, 40, dps=60)
    with working_dps(30):
        tol = eps_for(30)
        for a, b in zip(coarse.points, fine.points):
            denom = max(abs(b.value), mpf(1))
            assert abs(a.value - b.value) <= tol * denom


def test_sampled_elements_stay_in_v():
    import random

    rng = random.Random(3)
    for _ in range(5):
        d = sample_v_element(ARITH, 30, rng)
        assert all(a == 0 for k, a in enumerate(d.digits, 1) if is_power_of_ten(k))
        assert d.rank == 30


def test_report_before_first_spike_is_flat():
    report = example1_report(9, seed=1)
    assert all(text == "1.0" for _, text in report.measure_series.points)
    assert all(text == "1.0" for _, text in report.spectrum_series.points)
    assert all(p.value == 1 for p in report.ratio_extreme.points)


def test_report_at_first_spike():
    report = example1_report(10, seed=1)
    assert mpf(report.measure_series.points[-1][1]) < 1
    assert mpf(report.spectrum_series.points[-1][1]) < 1
    assert report.ratio_extreme.points[-1].value < mpf("1e-8")


@pytest.mark.parametrize("k_max", [9, 10, 11, 99, 100])
def test_delta_estimate_is_the_ratio_at_the_last_spike(k_max):
    report = example1_report(k_max, samples=0)
    spikes = [k for k in range(1, k_max + 1) if is_power_of_ten(k)]
    if spikes:
        assert report.delta_estimate == report.ratio_extreme.points[spikes[-1] - 1].value
        assert report.delta_estimate < 1
    else:
        assert report.delta_estimate == 1


@pytest.mark.parametrize("k_max", [5, 9])
def test_headline_below_the_first_spike_says_no_spike_was_reached(k_max):
    headline = example1_report(k_max, samples=0).headline()
    assert headline["predicted_image_dimension"] == "1.0"
    assert headline["conclusion"].startswith(
        f"no spike rank was reached (the first is rank 10, k_max is {k_max})"
    )
    assert "collapses to 0" not in headline["conclusion"]


@pytest.mark.parametrize("k_max", [10, 11])
def test_headline_from_the_first_spike_on_states_the_collapse(k_max):
    headline = example1_report(k_max, samples=0).headline()
    assert headline["conclusion"].startswith("set dimension stays near 1 while the ratio limit collapses to 0")


def test_report_headline_and_json():
    report = example1_report(20, seed=7)
    parsed = json.loads(rendered(report.to_jsonable()))
    assert parsed["dp_necessary_conditions"]["verdict"] == "necessary_conditions_met_only"
    assert float(parsed["headline"]["predicted_image_dimension"]) < 1e-8
    assert parsed["seed"] == 7
    assert len(parsed["ratio_series_samples"]) == 3
    assert parsed["spike_exponent_form"] == "10^(10^k)"


def test_report_rejects_negative_sample_count():
    with pytest.raises(ValueError, match="samples must be >= 0"):
        example1_report(10, samples=-2)
    assert example1_report(10, samples=0).ratio_samples == []


def test_report_tower_form_collapses_harder():
    standard = example1_report(10, seed=1)
    tower = example1_report(10, seed=1, tower=True)
    s = standard.ratio_extreme.points[-1].value
    t = tower.ratio_extreme.points[-1].value
    assert t < s  # log p0 jumps from -10**k ln 10 to -10**(10**k) ln 10
    assert tower.spike_form == "10^(10^(10^k))"


@pytest.mark.parametrize("k_max, samples, dps", [
    *(pytest.param(120, samples, dps, id=f"{samples}-{dps}") for samples in (0, 1, 2, 3) for dps in (15, 50, 100)),
    pytest.param(1001, 3, 15, id="1001-3-15"),  # the shared series crosses the rank-1000 spike
])
@pytest.mark.parametrize("tower", [False, True])
def test_example1_report_equals_its_unfused_composition(tower, k_max, samples, dps):
    seed = 11
    report = example1_report(k_max, seed=seed, tower=tower, samples=samples, dps=dps)
    model = example1_model(depth_cap=k_max, tower=tower)
    dp = dp_necessary_conditions(model, k_max, dps=dps)
    (spectrum,) = dimension_series([(example1_psi_model(depth_cap=k_max), SPECTRUM_COUNT)], k_max, dps, liminf=True)
    rng = random.Random(seed)
    strings = [v_extreme_element(ARITH, k_max)]
    strings += [sample_v_element(ARITH, k_max, rng) for _ in range(samples)]
    ratios = [ratio_series(model, d, k_max, dps) for d in strings]
    # == on every mpf: the fused walk does the same operations in the same order
    assert report.dp_report == dp
    assert report.measure_series == dp.measure_series
    assert report.spectrum_series == spectrum
    assert report.measure_series.precondition_partial == spectrum.precondition_partial
    last_spike = trailing_decade_start(k_max)
    window = k_max - last_spike + 1
    assert report.measure_liminf == liminf_estimate(dp.measure_series, window)
    assert report.spectrum_liminf == liminf_estimate(spectrum, window)
    assert [report.ratio_extreme] + report.ratio_samples == ratios
    assert report.delta_estimate == ratios[0].points[last_spike - 1].value
    # the walked ratios also equal the cached-row single-point oracle
    for series in ratios:
        for k in (9, 10, 11, 99, 100, 120, last_spike, k_max):
            assert series.points[k - 1] == billingsley_ratio(model, series.digits, k, dps)


@pytest.mark.parametrize("tower", [False, True])
def test_example1_series_share_one_segments_pass(tower):
    k_max, seed = 300, 4
    report = example1_report(k_max, seed=seed, tower=tower, samples=3)
    extreme = report.ratio_extreme
    assert extreme.segments == _monotone_segments(extreme.points)
    assert extreme.digits == v_extreme_element(ARITH, k_max)
    # one b_k series on all of V: each sample holds the extreme series'
    # point and segment lists, and its own digits
    rng = random.Random(seed)
    for s in report.ratio_samples:
        assert s.points is extreme.points and s.segments is extreme.segments
        assert s.digits == sample_v_element(ARITH, k_max, rng)
    assert len({s.digits for s in [extreme] + report.ratio_samples}) == 4


def unshared_jsonable(report) -> dict:
    """The report's JSON list form with every number formatted on its own by to_str."""
    out = list_form(report.to_jsonable())

    def points(series):
        return [
            [p.k, to_str(p.value._mpf_, series.dps)] + ([p.flag] if p.flag else [])
            for p in series.points
        ]

    def envelope(est):
        runs, first = [], 1
        for last, v in est.lower_envelope:
            runs += [[k, to_str(v._mpf_, 17)] for k in range(first, last + 1)]
            first = last + 1
        return runs

    out["ratio_series_extreme"]["points"] = points(report.ratio_extreme)
    for js, series in zip(out["ratio_series_samples"], report.ratio_samples):
        js["points"] = points(series)
    for key, est in (("measure_dimension", report.measure_liminf), ("spectrum_dimension", report.spectrum_liminf)):
        out[key]["liminf"]["lower_envelope"] = envelope(est)
    return out


@pytest.mark.parametrize("tower", [False, True])
def test_example1_report_formats_each_shared_number_once(monkeypatch, tower):
    k_max = 300
    calls = collections.Counter()

    def counting(module):
        def text(x, n):
            calls[module] += 1
            return mpf_text(x, n)

        return text

    monkeypatch.setattr(billingsley, "mpf_text", counting("billingsley"))
    monkeypatch.setattr(measure, "mpf_text", counting("measure"))
    report = example1_report(k_max, samples=3, tower=tower)
    assert calls == {"measure": 2 * k_max}  # the walk formats each dimension point once
    payload = report.to_jsonable()
    # the headline's three numbers; per dimension series its partial sum and
    # its liminf estimate; the DP report's two numbers
    assert calls == {"billingsley": 3, "measure": 2 * (k_max + 2) + 2}
    written = rendered(payload)
    ratio_points = [p for s in [report.ratio_extreme] + report.ratio_samples for p in s.points]
    distinct = len({id(p) for p in ratio_points})
    assert len(ratio_points) == 4 * k_max and distinct == k_max
    runs = [len(est.lower_envelope) for est in (report.measure_liminf, report.spectrum_liminf)]
    assert sum(runs) < 2 * k_max  # the spike ranks hold each envelope flat for a while
    # writing adds one call per distinct ratio point and one per envelope run
    assert calls["billingsley"] == distinct + 3
    assert calls["measure"] == 2 * (k_max + 2) + sum(runs) + 2
    assert written == json.dumps(unshared_jsonable(report), sort_keys=True, indent=2)


def test_report_text_does_not_depend_on_the_callers_precision():
    # the series are formatted as they are written, inside the caller's block
    rep = example1_report(200, samples=1, dps=30)
    outside = rendered(rep.to_jsonable())
    for dps in (15, 30, 100):
        with working_dps(dps):
            assert rendered(rep.to_jsonable()) == outside

"""Length/measure ratio series and the bundled counterexample report."""

import json
import math
import random

import pytest
from mpmath import mp, mpf

from cantordim import (
    DigitString,
    SymbolModel,
    billingsley_ratio,
    dim_spectrum_series,
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
from cantordim.billingsley import FLAG_UNIT_MEASURE, FLAG_ZERO_MEASURE

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
    assert all(v == 1 for _, v in report.measure_series.points)
    assert all(v == 1 for _, v in report.spectrum_series.points)
    assert all(p.value == 1 for p in report.ratio_extreme.points)


def test_report_at_first_spike():
    report = example1_report(10, seed=1)
    assert report.measure_series.points[-1][1] < 1
    assert report.spectrum_series.points[-1][1] < 1
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


def test_report_headline_and_json():
    report = example1_report(20, seed=7)
    payload = report.to_jsonable()
    text = json.dumps(payload, sort_keys=True)
    parsed = json.loads(text)
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


@pytest.mark.parametrize("dps", [15, 50, 100])
@pytest.mark.parametrize("samples", [0, 1, 2, 3])
@pytest.mark.parametrize("tower", [False, True])
def test_example1_report_equals_its_unfused_composition(tower, samples, dps):
    k_max, seed = 120, 11
    report = example1_report(k_max, seed=seed, tower=tower, samples=samples, dps=dps)
    model = example1_model(depth_cap=k_max, tower=tower)
    dp = dp_necessary_conditions(model, k_max, dps=dps)
    spectrum = dim_spectrum_series(example1_psi_model(depth_cap=k_max), k_max, dps)
    rng = random.Random(seed)
    strings = [v_extreme_element(ARITH, k_max)]
    strings += [sample_v_element(ARITH, k_max, rng) for _ in range(samples)]
    ratios = [ratio_series(model, d, k_max, dps) for d in strings]
    # == on every mpf: the fused walk does the same operations in the same order
    assert report.dp_report == dp
    assert report.measure_series == dp.measure_series
    assert report.spectrum_series == spectrum
    assert report.measure_series.precondition_partial == spectrum.precondition_partial
    window = k_max - 100 + 1
    assert report.measure_liminf == liminf_estimate(dp.measure_series, window)
    assert report.spectrum_liminf == liminf_estimate(spectrum, window)
    assert [report.ratio_extreme] + report.ratio_samples == ratios
    assert report.delta_estimate == ratios[0].points[99].value
    # the walked ratios also equal the cached-row single-point oracle
    for series in ratios:
        for k in (9, 10, 11, 99, 100, 120):
            assert series.points[k - 1] == billingsley_ratio(model, series.digits, k, dps)

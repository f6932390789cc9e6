"""The chunked report writer: the bytes of json.dumps, in bounded writes."""

import argparse
import contextlib
import io
import itertools
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantordim import (
    DigitSetSpec,
    DigitString,
    SymbolModel,
    box_dimension_estimate,
    cli,
    dim_measure_series,
    dim_spectrum_series,
    example1_report,
    faithfulness_diagnostic,
    faithfulness_ratio,
    make_row_rule,
    make_sequence,
    ratio_series,
)
from cantordim.billingsley import FLAG_UNIT_MEASURE, FLAG_ZERO_MEASURE
from cantordim.cli import run
from cantordim.precision import mpf_text
from cantordim.sequences import Series


@contextlib.contextmanager
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class RecordingStream(io.StringIO):
    """A text stream that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def written(payload) -> RecordingStream:
    """What the writer sends to stdout for payload."""
    out = RecordingStream()
    with contextlib.redirect_stdout(out):
        cli._write(itertools.chain(cli._json_pieces(payload), ("\n",)), None)
    return out


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


HUGE_INTS = st.integers(4301, 4600).map(lambda n: 10**n - 7) | st.integers(4301, 4600).map(lambda n: -(3**(n * 2)))
SCALARS = (st.none() | st.booleans() | st.integers() | HUGE_INTS | st.floats()
           | st.text() | st.sampled_from(["", "\"\\/\n\t\x00\x1f", "é€😀", "1.2345e-30"]))
POINT = st.lists(SCALARS, max_size=3) | st.tuples(st.integers(1, 10**6), st.text(max_size=8))
VALUES = st.recursive(
    SCALARS | st.lists(POINT, max_size=8),  # [k, value] series, some with empty points
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(VALUES, st.sampled_from([(1, 1), (3, 2), (cli.CHUNK_CHARS, cli.BATCH_ITEMS)]))
def test_writer_matches_json_dumps(payload, sizes):
    chunk, batch = sizes
    with unlimited_int_digits(), mock.patch.object(cli, "CHUNK_CHARS", chunk), \
            mock.patch.object(cli, "BATCH_ITEMS", batch):
        assert written(payload).getvalue() == reference(payload)


def test_writer_matches_json_dumps_on_long_series_and_odd_keys():
    points = [[k, f"{1 / k:.20f}"] for k in range(1, 5001)]
    for payload in (
        {"ratios": points, "digits": list(range(5000)), "mixed": points[:3] + [[], 7, {"a": []}]},
        {3: "x", 1.5: [True, None], -2: {}},
        {None: 1},
        {True: [1.0, float("nan"), float("inf")]},
        [[], [[]], {}, [{}], ()],
    ):
        assert written(payload).getvalue() == reference(payload)


def test_report_is_written_in_bounded_pieces():
    out = RecordingStream()
    with contextlib.redirect_stdout(out):
        assert run(["faithfulness", "--seq", '{"kind":"counterexample"}', "--k-max", "30000"]) == 0
    total = len(out.getvalue())
    assert total > 2 * 2**20  # larger than any one write may be
    assert max(out.sizes) < 2**20
    assert json.loads(out.getvalue())["k_max"] == 30000


# What a series node holds: number texts (as mpf_text makes them, which
# need no JSON escaping) and the ratio series' flag names.
NUMBER_TEXTS = st.text(alphabet="0123456789.e+-", max_size=8) | st.sampled_from(["0.0", "-inf", "nan", "1.0e-30"])
FLAGS = st.none() | st.sampled_from([FLAG_ZERO_MEASURE, FLAG_UNIT_MEASURE])
WRITER_SIZES = st.sampled_from([(1, 1), (3, 2), (cli.CHUNK_CHARS, cli.BATCH_ITEMS)])


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 10**6), st.lists(st.tuples(NUMBER_TEXTS, FLAGS), max_size=12), WRITER_SIZES)
def test_series_node_is_written_as_its_rows(first_k, cells, sizes):
    chunk, batch = sizes
    rows = [(k, text, flag) if flag else (k, text) for k, (text, flag) in zip(itertools.count(first_k), cells)]
    texts = [text for text, _ in cells]
    with mock.patch.object(cli, "CHUNK_CHARS", chunk), mock.patch.object(cli, "BATCH_ITEMS", batch):
        for series, expected in (
            (Series(len(rows), lambda: iter(rows)), [list(row) for row in rows]),
            (Series.of_texts(first_k, texts), [[k, t] for k, t in zip(itertools.count(first_k), texts)]),
        ):
            assert [list(row) for row in series] == expected
            for payload, listed in (
                (series, expected),
                ({"b": {"ratios": series}, "a": 1}, {"b": {"ratios": expected}, "a": 1}),
                ([series, [], Series(0, lambda: iter(()))], [expected, [], []]),
            ):
                assert written(payload).getvalue() == reference(listed)
            csv = "".join(cli._series_pieces(series, "head\n", ","))
            assert csv == "head\n" + "".join(f"{row[0]},{row[1]}\n" for row in expected)


def test_series_node_rows_by_index():
    series = Series.of_texts(5, ["a", "b", "c"])
    assert (series[0], series[2], series[-1], series[-3]) == ((5, "a"), (7, "c"), (7, "c"), (5, "a"))
    for i in (3, -4):
        with pytest.raises(IndexError):
            series[i]


def list_form(value):
    """The payload with every series node as its JSON list."""
    if isinstance(value, Series):
        return [list(row) for row in value]
    if isinstance(value, dict):
        return {key: list_form(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [list_form(item) for item in value]
    return value


REPORT_SEQUENCES = st.sampled_from([
    {"kind": "constant", "s": 3},
    {"kind": "arithmetic", "a1": 2, "d": 1},
    {"kind": "geometric", "b1": 2, "q": 3},
    {"kind": "counterexample"},
    {"kind": "custom", "table": [9, 2, 40], "tail": {"kind": "arithmetic", "a1": 3, "d": 2}},
])
ROWS = st.sampled_from(["uniform", "example1", "example1_psi", "point_mass:0"])


def report_payload(kind, seq, rows, k_max, dps, rng):
    """The payload of one report kind, as the CLI hands it to the writer."""
    model = SymbolModel(seq, make_row_rule(rows), k_max)
    if kind == "faithfulness":
        return faithfulness_diagnostic(seq, k_max, dps=dps).to_jsonable()
    if kind == "dim-measure":
        return dim_measure_series(model, k_max, dps).to_jsonable()
    if kind == "dim-spectrum":
        return dim_spectrum_series(model, k_max, dps).to_jsonable()
    if kind == "billingsley":
        # digit 0 most of the time, so point-mass rows give flagged points
        digits = DigitString(seq, tuple(0 if rng.random() < 0.7 else rng.randrange(n) for n in seq.iter_terms(k_max)))
        payload = ratio_series(model, digits, k_max, dps).to_jsonable()
        payload["model"] = model.descriptor()
        return payload
    if kind == "boxcount":
        return box_dimension_estimate(DigitSetSpec.with_exceptions(seq, (0,), (2, 5)), k_max, dps).to_jsonable()
    return example1_report(k_max, seed=rng.randrange(100), samples=rng.randrange(3), dps=dps).to_jsonable()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["faithfulness", "dim-measure", "dim-spectrum", "billingsley", "boxcount", "example1"]),
    spec=REPORT_SEQUENCES,
    rows=ROWS,
    k_max=st.integers(4, 40),
    dps=st.sampled_from([15, 30, 50]),
    seed=st.integers(0, 2**16),
    batch=st.sampled_from([1, 3, cli.BATCH_ITEMS]),
)
# flagged rows of both kinds; plain rows, then flagged ones from the spike at rank 10
@example(kind="billingsley", spec={"kind": "constant", "s": 3}, rows="point_mass:0", k_max=12, dps=15, seed=1, batch=3)
@example(kind="billingsley", spec={"kind": "arithmetic", "a1": 2, "d": 1}, rows="example1_psi", k_max=20, dps=30,
         seed=2, batch=4)
@example(kind="example1", spec={"kind": "constant", "s": 3}, rows="uniform", k_max=40, dps=30, seed=0, batch=7)
def test_every_report_is_written_as_json_dumps_of_its_list_form(kind, spec, rows, k_max, dps, seed, batch):
    payload = report_payload(kind, make_sequence(spec), rows, k_max, dps, random.Random(seed))
    ns = argparse.Namespace(format="json", out=None, command=kind)
    out = io.StringIO()
    with mock.patch.object(cli, "BATCH_ITEMS", batch), contextlib.redirect_stdout(out):
        cli._emit(ns, payload, dps)
    assert out.getvalue() == json.dumps(list_form(payload), sort_keys=True, indent=2) + "\n"


SPILL_CASES = [
    ({"kind": "counterexample"}, 150, 50),
    ({"kind": "custom", "table": [9, 2, 40], "tail": {"kind": "arithmetic", "a1": 3, "d": 2}}, 120, 20),
    ({"kind": "geometric", "b1": 2, "q": 3}, 40, 30),
]


@pytest.mark.parametrize("spec, k_max, dps", SPILL_CASES)
@pytest.mark.parametrize("batch", [1, 7, cli.BATCH_ITEMS])
def test_faithfulness_output_from_the_spill_equals_the_old_layout(capsys, spec, k_max, dps, batch):
    # The old layout: every field as the report gives it, with ratios as
    # [k, text] pairs of the oracle's r_k formatted at the report precision.
    seq = make_sequence(spec)
    report = faithfulness_diagnostic(seq, k_max, dps=dps)
    payload = report.to_jsonable()
    payload["decade_maxima"] = [[k, mpf_text(v, dps)] for k, v in report.decade_maxima]
    points = [(k, mpf_text(faithfulness_ratio(seq, k, dps), dps)) for k in range(2, k_max + 1)]
    payload["ratios"] = [[k, text] for k, text in points]
    head = f"# precision_dps={dps}\n"
    expected = {
        "json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
        "csv": head + "k,r_k\n" + "".join(f"{k},{text}\n" for k, text in points),
        "plot-data": head + "".join(f"{k} {text}\n" for k, text in points),
    }
    argv = ["faithfulness", "--seq", json.dumps(spec), "--k-max", str(k_max), "--precision", str(dps)]
    with mock.patch.object(cli, "BATCH_ITEMS", batch):
        for fmt, text in expected.items():
            assert run(argv + ["--format", fmt]) == 0
            assert capsys.readouterr().out == text, fmt

"""The chunked report writer: the bytes of json.dumps, in bounded writes."""

import contextlib
import io
import itertools
import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordim import cli, faithfulness_diagnostic, faithfulness_ratio, make_sequence
from cantordim.cli import run
from cantordim.precision import mpf_text
from cantordim.sequences import TextSeries


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


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 10**6), st.lists(st.text(max_size=8), max_size=12),
       st.sampled_from([(1, 1), (3, 2), (cli.CHUNK_CHARS, cli.BATCH_ITEMS)]))
def test_text_series_is_written_as_its_pairs(first_k, texts, sizes):
    chunk, batch = sizes
    series = TextSeries(first_k, texts)
    pairs = [[k, t] for k, t in zip(itertools.count(first_k), texts)]
    with mock.patch.object(cli, "CHUNK_CHARS", chunk), mock.patch.object(cli, "BATCH_ITEMS", batch):
        for payload, expected in (
            (series, pairs),
            ({"b": {"ratios": series}, "a": 1}, {"b": {"ratios": pairs}, "a": 1}),
            ([series, []], [pairs, []]),
        ):
            assert written(payload).getvalue() == reference(expected)


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
    payload = faithfulness_diagnostic(seq, k_max, dps=dps).to_jsonable()
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

"""CLI dispatch, serialization formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordim import cli
from cantordim.cli import run

COUNTER = '{"kind":"counterexample"}'
CONST3 = '{"kind":"constant","s":3}'
ARITH = '{"kind":"arithmetic","a1":2,"d":1}'


FAITH5 = ["faithfulness", "--seq", CONST3, "--k-max", "5"]
EXAMPLE5 = ["example1", "--k-max", "5"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_with_config(tmp_path, capsys, argv, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code = run(argv + ["--config", str(cfg)])
    return code, capsys.readouterr()


def assert_one_error_line(err):
    assert err.startswith("error:") and err.count("\n") == 1


def test_encode_decode_cylinder(capsys):
    code, payload = run_json(capsys, ["encode", "--seq", ARITH, "--x", "5/6", "--rank", "2"])
    assert code == 0
    assert payload["digits"]["digits"] == [1, 2]

    code, payload = run_json(capsys, ["decode", "--seq", ARITH, "--digits", "[1,2]"])
    assert code == 0
    assert payload["value"] == "5/6"

    code, payload = run_json(capsys, ["cylinder", "--seq", ARITH, "--digits", "[1,2]"])
    assert code == 0
    assert payload["cylinder"]["left"] == "5/6"
    assert payload["cylinder"]["length"] == "1/6"


@contextlib.contextmanager
def int_digit_limit(limit):
    """Python's int-to-str digit limit set to ``limit`` (0: none), then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# Rank 2000 of n_k = k + 1: the denominator 2001! has 5,700+ digits.
DIGITS_2000 = json.dumps(list(range(1, 2001)))  # the largest digit n_k - 1 at every rank


def test_decode_and_cylinder_print_answers_of_any_length(capsys):
    den = math.factorial(2001)
    with int_digit_limit(0):  # the expected texts are as long as the answers
        value, length = f"{den - 1}/{den}", f"1/{den}"
    code, payload = run_json(capsys, ["decode", "--seq", ARITH, "--digits", DIGITS_2000])
    assert code == 0
    assert payload["value"] == value
    code, payload = run_json(capsys, ["cylinder", "--seq", ARITH, "--digits", DIGITS_2000])
    assert code == 0
    assert payload["cylinder"]["length"] == length
    assert payload["cylinder"]["right"] == "1/1"


def test_run_gives_back_the_callers_int_digit_limit(capsys):
    den = math.factorial(2001)
    with int_digit_limit(0):
        value = f"{den - 1}/{den}"
    with int_digit_limit(5000):
        code, payload = run_json(capsys, ["decode", "--seq", ARITH, "--digits", DIGITS_2000])
        assert code == 0 and sys.get_int_max_str_digits() == 5000
        assert run(["decode", "--seq", ARITH, "--digits", "[2]"]) == 1  # a failing run
        assert sys.get_int_max_str_digits() == 5000
    assert payload["value"] == value and len(value) > 2 * 5700


@pytest.mark.parametrize("command", ["dim-measure", "dim-spectrum", "cdf", "billingsley"])
def test_depth_cap_is_not_a_flag(capsys, command):
    flags = BASE_FLAGS[command]
    argv = [command, *(token for k, v in flags.items() for token in (f"--{k}", v)), "--depth-cap", "5"]
    assert run(argv) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_every_subcommand_carries_its_handler():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(BASE_FLAGS)
    assert all(callable(p.get_default("run")) for p in sub.choices.values())


def test_custom_row_tolerance_follows_precision(capsys):
    thirds = '{"custom":[["1/3","1/3","1/3"]]}'
    argv = ["dim-measure", "--seq", CONST3, "--rows", thirds, "--k-max", "3"]
    assert run(argv + ["--precision", "20"]) == 0
    capsys.readouterr()
    # Rows summing to 1 + 10**-60 pass the 10**-45 tolerance of 50 digits
    # but not the 10**-95 of 100 digits.
    off = json.dumps({"custom": [["1/2", "0.5" + "0" * 58 + "1"]]})
    argv = ["dim-measure", "--seq", '{"kind":"constant","s":2}', "--rows", off, "--k-max", "3"]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--precision", "100"]) == 1
    assert "row does not sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("seq", ['{"kind":"constant","s":2}', '{"kind":"geometric","b1":2,"q":1}'])
def test_dim_measure_through_a_two_digit_spike_row(capsys, seq):
    # n_10 = 2: the spike row's entropy, about 10**-(10**10), vanishes next
    # to the nine entropies ln 2 before it, so d_10 = 9 ln 2 / (10 ln 2)
    argv = ["dim-measure", "--seq", seq, "--rows", "example1", "--k-max", "10"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    k, d10 = payload["points"][-1]
    assert k == 10 and math.isfinite(float(d10))
    assert d10 == "0.9"


def test_faithfulness_verdict(capsys):
    code, payload = run_json(capsys, ["faithfulness", "--seq", COUNTER, "--k-max", "1000"])
    assert code == 0
    assert payload["verdict"] == "criterion_violated"
    assert payload["violation_ranks"] == [10, 100, 1000]
    assert payload["precision_dps"] == 50


def test_dim_spectrum_constant_series(capsys):
    code, payload = run_json(
        capsys,
        ["dim-spectrum", "--seq", CONST3, "--rows", '{"custom":[[0.5,0,0.5]]}',
         "--k-max", "20"],
    )
    assert code == 0
    values = {k: float(v) for k, v in payload["points"]}
    assert len(values) == 20
    assert all(abs(v - 0.630930) < 1e-6 for v in values.values())


def test_cdf_command(capsys):
    code, payload = run_json(
        capsys,
        ["cdf", "--seq", CONST3, "--rows", '{"custom":[["1/2",0,"1/2"]]}',
         "--x", "1/3", "--rank", "8"],
    )
    assert code == 0
    assert abs(float(payload["cdf"]) - 0.5) < 2**-8


def test_billingsley_command(capsys):
    digits = json.dumps([1] * 9 + [0])
    code, payload = run_json(
        capsys,
        ["billingsley", "--seq", ARITH, "--rows", "example1", "--digits", digits,
         "--k-max", "10"],
    )
    assert code == 0
    ks = [p[0] for p in payload["points"]]
    assert ks == list(range(1, 11))
    assert float(payload["points"][-1][1]) < 1e-8


def test_boxcount_command(capsys):
    code, payload = run_json(
        capsys,
        ["boxcount", "--seq", CONST3, "--set", '{"every_rank":[0,2]}', "--k-max", "12"],
    )
    assert code == 0
    assert abs(float(payload["slope"]) - 0.6309297535714574) < 1e-12


def test_example1_report_structure(capsys):
    code, payload = run_json(capsys, ["example1", "--k-max", "12", "--seed", "7"])
    assert code == 0
    assert payload["dp_necessary_conditions"]["verdict"] == "necessary_conditions_met_only"
    assert payload["seed"] == 7
    assert "measure_dimension" in payload and "spectrum_dimension" in payload


def test_precision_flag_changes_emitted_digits(capsys):
    code, payload = run_json(
        capsys, ["faithfulness", "--seq", CONST3, "--k-max", "10", "--precision", "20"]
    )
    assert code == 0
    assert payload["precision_dps"] == 20


def test_precision_env_var_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("CANTORDIM_PRECISION", "25")
    code, payload = run_json(capsys, ["faithfulness", "--seq", CONST3, "--k-max", "10"])
    assert code == 0
    assert payload["precision_dps"] == 25


def test_csv_output(tmp_path, capsys):
    out = tmp_path / "ratios.csv"
    code = run(["faithfulness", "--seq", CONST3, "--k-max", "10",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# precision_dps=50"
    assert lines[1] == "k,r_k"
    assert len(lines) == 2 + 9


def test_plot_data_output(tmp_path):
    prefix = tmp_path / "ex1"
    code = run(["example1", "--k-max", "10", "--format", "plot-data",
                "--out", str(prefix)])
    assert code == 0
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert "ex1.measure_dim.dat" in produced
    assert "ex1.ratio_extreme.dat" in produced
    body = (tmp_path / "ex1.measure_dim.dat").read_text().splitlines()
    assert body[0].startswith("# precision_dps=")
    assert len(body[1].split()) == 2


def test_example1_per_series_csv(tmp_path):
    prefix = tmp_path / "ex1"
    code = run(["example1", "--k-max", "10", "--format", "csv", "--out", str(prefix)])
    assert code == 0
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert "ex1.spectrum_dim.csv" in produced
    assert "ex1.ratio_sample_0.csv" in produced
    body = (tmp_path / "ex1.ratio_extreme.csv").read_text().splitlines()
    assert body[1] == "k,value"
    assert len(body) == 2 + 10
    # multi-series csv without a prefix is a config error
    assert run(["example1", "--k-max", "10", "--format", "csv"]) == 2


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["example1", "--k-max", "15", "--seed", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_wins_with_warning(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k-max": 12, "seq": {"kind": "constant", "s": 3}}))
    code = run(["faithfulness", "--seq", CONST3, "--k-max", "5", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    assert "overrides" in captured.err
    assert json.loads(captured.out)["k_max"] == 12


@pytest.mark.parametrize("key", ["command", "config"])
def test_config_file_cannot_set_command_or_config(tmp_path, capsys, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: "decode"}))
    assert run(["faithfulness", "--seq", CONST3, "--k-max", "5", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["\x1e", "a\nb", "\u2028"])
def test_line_breaks_in_config_values_stay_on_the_error_line(tmp_path, capsys, value):
    code, captured = run_with_config(tmp_path, capsys, FAITH5, {"command": value})
    assert code == 2
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert_one_error_line(captured.err)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["faithfulness", "--seq", CONST3], {"k-max": "twelve"}),
        (EXAMPLE5, {"samples": 2.5}),
        (["encode", "--seq", CONST3, "--x", "1/2"], {"rank": 2.5}),
        (FAITH5, {"format": "xml"}),
        (EXAMPLE5, {"spike-form": "bogus"}),
        (EXAMPLE5, {"seed": "x"}),
        (FAITH5, {"out": None}),
        (["faithfulness", "--seq", CONST3], {"k": 9}),  # flags are not abbreviated
    ],
)
def test_config_values_are_typed_like_inline_flags(tmp_path, capsys, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    code, captured = run_with_config(tmp_path, capsys, argv, config)
    assert code == 2
    assert_one_error_line(captured.err)
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]  # no file named "null"


def test_config_strings_are_read_as_flag_text(tmp_path, capsys):
    code, captured = run_with_config(tmp_path, capsys, ["faithfulness", "--seq", CONST3], {"k-max": "12"})
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["k_max"] == 12
    code, captured = run_with_config(tmp_path, capsys, EXAMPLE5, {"samples": "1"})
    assert code == 0 and captured.err == ""
    assert len(json.loads(captured.out)["ratio_series_samples"]) == 1


def test_config_warns_only_about_flags_given_inline(tmp_path, capsys):
    code, captured = run_with_config(tmp_path, capsys, ["faithfulness", "--seq", CONST3], {"k-max": 12})
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["k_max"] == 12
    code, captured = run_with_config(tmp_path, capsys, FAITH5, {"met-tol": 0.1})
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["met_tol"] == 0.1


def test_config_key_set_is_the_set_flag(tmp_path, capsys):
    argv = ["boxcount", "--seq", CONST3, "--k-max", "12"]
    assert run(argv + ["--set", '{"every_rank":[0,2]}']) == 0
    inline = capsys.readouterr().out
    code, captured = run_with_config(tmp_path, capsys, argv, {"set": {"every_rank": [0, 2]}})
    assert code == 0 and captured.err == ""
    assert captured.out == inline


def test_set_and_rows_take_a_bare_name_or_json(tmp_path, capsys):
    # A value that starts with '{', '[' or '"' is JSON; anything else is a name.
    for flag, name, argv in (("set", "all", ["boxcount", "--seq", CONST3, "--k-max", "12"]),
                             ("rows", "uniform", ["dim-measure", "--seq", CONST3, "--k-max", "12"])):
        assert run(argv + [f"--{flag}", name]) == 0
        bare = capsys.readouterr()
        assert bare.err == "" and bare.out
        assert run(argv + [f"--{flag}", f'"{name}"']) == 0
        assert capsys.readouterr().out == bare.out
        code, captured = run_with_config(tmp_path, capsys, argv, {flag: name})
        assert code == 0 and captured.err == "" and captured.out == bare.out
        for malformed in ('{"every_rank":', "[0,", '"all'):
            assert run(argv + [f"--{flag}", malformed]) == 2
            err = capsys.readouterr().err
            assert_one_error_line(err)
            assert f"argument --{flag}: not valid JSON" in err
    assert run(["boxcount", "--seq", CONST3, "--k-max", "12", "--set", "al"]) == 1
    assert capsys.readouterr().err == "error: unknown digit-set descriptor 'al'\n"


def test_flag_errors_outside_argparse_types_are_one_line(tmp_path, capsys):
    assert run(["encode", "--seq", CONST3, "--x", "1/0", "--rank", "2"]) == 2  # ZeroDivisionError
    assert_one_error_line(capsys.readouterr().err)
    assert run(FAITH5 + ["--out", str(tmp_path / "missing" / "out.json")]) == 2
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        FAITH5 + ["--met-tol", "nan"],
        FAITH5 + ["--violation-threshold", "inf"],
        # r_k of constant(3) is 1/(k-1): a threshold of 0 would call it violated
        ["faithfulness", "--seq", CONST3, "--k-max", "20", "--violation-threshold", "0"],
        FAITH5 + ["--met-tol", "-0.05"],  # never met
        EXAMPLE5 + ["--samples", "-2"],
        ["billingsley", "--seq", CONST3, "--rows", "uniform", "--digits", "[1]", "--k-max", "0"],
    ],
)
def test_out_of_range_parameters_are_domain_errors(capsys, argv):
    assert run(argv) == 1
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        ["faithfulness", "--seq", '{"kind":"custom","table":5}', "--k-max", "5"],
        ["dim-measure", "--seq", CONST3, "--rows", '{"custom":5}', "--k-max", "5"],
        ["boxcount", "--seq", CONST3, "--set", '{"every_rank":5}', "--k-max", "5"],
        # integer fields given as non-integers are rejected, not truncated
        ["faithfulness", "--seq", '{"kind":"arithmetic","a1":2.5,"d":1}', "--k-max", "5"],
        ["faithfulness", "--seq", '{"kind":"constant","s":3.5}', "--k-max", "5"],
        ["faithfulness", "--seq", '{"kind":"geometric","b1":"2","q":2}', "--k-max", "5"],
        ["faithfulness", "--seq", '{"kind":"custom","table":[3,2.0]}', "--k-max", "2"],
        ["boxcount", "--seq", CONST3, "--set", '{"every_rank":[0.9,2]}', "--k-max", "5"],
        ["boxcount", "--seq", CONST3, "--set", '{"per_rank":[[0],[1.5]]}', "--k-max", "2"],
        ["boxcount", "--seq", CONST3, "--set",
         '{"except_ranks":"powers_of_10","digits_at_exception":[0.5]}', "--k-max", "5"],
        ["boxcount", "--seq", CONST3, "--set",
         '{"except_ranks":[2.5],"digits_at_exception":[0]}', "--k-max", "5"],
        # JSON booleans are not integers, although Python's bool is an int
        ["decode", "--seq", ARITH, "--digits", "[true, 0]"],
        ["boxcount", "--seq", CONST3, "--set", '{"every_rank":[true]}', "--k-max", "5"],
        ["faithfulness", "--seq", '{"kind":"arithmetic","a1":2,"d":true}', "--k-max", "5"],
        ["faithfulness", "--seq", '{"kind":"geometric","b1":2,"q":false}', "--k-max", "5"],
        ["faithfulness", "--seq", '{"kind":"constant","s":true}', "--k-max", "5"],
    ],
)
def test_wrong_typed_descriptor_fields_are_one_line_errors(capsys, argv):
    assert run(argv) in (1, 2)  # run() returning at all means no traceback
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.count("error:") == 1


@pytest.mark.parametrize(
    "argv, names",
    [
        # rank 0 is not a rank: it used to be accepted and never matched
        (["boxcount", "--seq", CONST3, "--set", '{"except_ranks":[0],"digits_at_exception":[0]}',
          "--k-max", "5"], ["except_ranks", "0"]),
        (["boxcount", "--seq", CONST3, "--set", '{"except_ranks":[3,0,5],"digits_at_exception":[0]}',
          "--k-max", "5"], ["except_ranks", "0"]),
        (["dim-measure", "--seq", CONST3, "--rows", "point_mass:1.5", "--k-max", "5"], ["point_mass", "'1.5'"]),
        (["dim-measure", "--seq", CONST3, "--rows", "point_mass:x", "--k-max", "5"], ["point_mass", "'x'"]),
        (["cdf", "--seq", CONST3, "--rows", "point_mass:", "--x", "1/3", "--rank", "3"], ["point_mass", "''"]),
        # rationals with no exact value, or booleans, name their field
        (["faithfulness", "--seq", '{"kind":"arithmetic","a1":2,"d":1e400}', "--k-max", "5"],
         ["arithmetic d", "inf"]),
        (["faithfulness", "--seq", '{"kind":"geometric","b1":2,"q":NaN}', "--k-max", "5"], ["geometric q", "nan"]),
        (["faithfulness", "--seq", '{"kind":"geometric","b1":2,"q":"1/0"}', "--k-max", "5"],
         ["geometric q", "'1/0'"]),
        (["dim-measure", "--seq", CONST3, "--rows", '{"custom":[[true,0,0]]}', "--k-max", "3"],
         ["custom row 1 entry 1", "True"]),
        (["dim-measure", "--seq", CONST3, "--rows", '{"custom":[[0.5,0.5,0],[0,1,false]]}', "--k-max", "3"],
         ["custom row 2 entry 3", "False"]),
        (["dim-measure", "--seq", CONST3, "--rows", '{"custom":[[1e400,0,0]]}', "--k-max", "3"],
         ["custom row 1 entry 1", "inf"]),
        (["dim-measure", "--seq", CONST3, "--rows", '{"custom":[[NaN,0,0]]}', "--k-max", "3"],
         ["custom row 1 entry 1", "nan"]),
        (["dim-measure", "--seq", CONST3, "--rows", '{"custom":[["a"]]}', "--k-max", "3"],
         ["custom row 1 entry 1", "'a'"]),
        # a key outside its descriptor's form is refused, not left at the default
        (["faithfulness", "--seq", '{"kind":"arithmetic","a1":2,"D":3}', "--k-max", "5"],
         ["'D'", "arithmetic sequence"]),
        (["faithfulness", "--seq", '{"kind":"geometric","b1":2,"Q":3}', "--k-max", "5"],
         ["'Q'", "geometric sequence"]),
        (["faithfulness", "--seq", '{"kind":"custom","table":[3],"tail":{"kind":"constant","s":2,"t":1}}',
          "--k-max", "5"], ["'t'", "constant sequence"]),
        (["dim-measure", "--seq", CONST3, "--rows", '{"custom":[["1/3","1/3","1/3"]],"rows":1}',
          "--k-max", "3"], ["'rows'", "row rule"]),
        (["boxcount", "--seq", CONST3, "--set", '{"except_ranks":"powers_of_10","digit_at_exception":[1]}',
          "--k-max", "5"], ["'digit_at_exception'", "digit-set"]),
        (["boxcount", "--seq", CONST3, "--set", '{"every_rank":[0],"per_rank":[[0]]}', "--k-max", "5"],
         ["'per_rank'", "digit-set"]),
        # a custom row given as a string is not read one character at a time
        (["dim-measure", "--seq", '{"kind":"constant","s":2}', "--rows", '{"custom":["01"]}', "--k-max", "3"],
         ["custom row 1", "'01'"]),
        (["cdf", "--seq", '{"kind":"constant","s":2}', "--rows", '{"custom":["10"]}', "--x", "1/3",
          "--rank", "3"], ["custom row 1", "'10'"]),
        # nor is any other array field given as a string, a mapping or a number
        (["faithfulness", "--seq", '{"kind":"custom","table":"34"}', "--k-max", "2"],
         ["custom table", "'34'"]),
        (["faithfulness", "--seq", '{"kind":"custom","table":{"3":1}}', "--k-max", "2"],
         ["custom table", "{'3': 1}"]),
        (["boxcount", "--seq", CONST3, "--set", '{"every_rank":"01"}', "--k-max", "5"],
         ["every_rank must be an array", "'01'"]),
        (["boxcount", "--seq", CONST3, "--set", '{"per_rank":"01"}', "--k-max", "2"],
         ["per_rank must be an array", "'01'"]),
        (["boxcount", "--seq", CONST3, "--set", '{"per_rank":["01"]}', "--k-max", "1"],
         ["per_rank must be an array", "'01'"]),
        (["boxcount", "--seq", CONST3, "--set", '{"except_ranks":"powers_of_10","digits_at_exception":"0"}',
          "--k-max", "5"], ["digits_at_exception must be an array", "'0'"]),
        (["boxcount", "--seq", CONST3, "--set", '{"except_ranks":[3],"digits_at_exception":5}',
          "--k-max", "5"], ["digits_at_exception must be an array", "5"]),
    ],
)
def test_bad_descriptor_values_are_named_in_one_line(capsys, argv, names):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert all(name in captured.err for name in names)
    assert captured.out == ""


def test_exit_codes(capsys, tmp_path):
    assert run(["bogus"]) == 2  # unknown subcommand
    capsys.readouterr()
    assert run(["encode", "--seq", "not json", "--x", "1/2", "--rank", "3"]) == 2
    capsys.readouterr()
    assert run(["encode", "--seq", CONST3, "--x", "3/2", "--rank", "3"]) == 1
    capsys.readouterr()
    assert run(["cylinder", "--seq", ARITH, "--digits", "[2]"]) == 1  # digit bound
    capsys.readouterr()
    assert run(["faithfulness", "--seq", CONST3]) == 2  # missing --k-max
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["faithfulness", "--seq", CONST3, "--k-max", "5", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_error_diagnostics_are_one_line(capsys):
    for argv in (
        ["encode", "--seq", CONST3, "--x", "3/2", "--rank", "3"],
        ["faithfulness", "--seq", CONST3, "--k-max", "abc"],  # argparse type error
        ["bogus"],  # unknown subcommand
    ):
        run(argv)
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0


@pytest.mark.parametrize(
    "first",
    [
        ["faithfulness", "--seq", CONST3, "--k-max", "abc"],  # parse error, exit 2
        ["encode", "--seq", CONST3, "--x", "1/2", "--rank", "-1"],  # domain error, exit 1
        "config-override",  # a --config file replacing an inline flag, with a warning
        ["bogus"],  # unknown subcommand
    ],
)
def test_shared_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch, first):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k-max": 12}))
    if first == "config-override":
        first = FAITH5 + ["--config", str(cfg)]
    good = ["encode", "--seq", ARITH, "--x", "5/7", "--rank", "6"]
    sequence = [good, first, good, first, FAITH5]

    def outcomes():
        results = []
        for argv in sequence:
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes()
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)  # a new parser per run
    assert shared == outcomes()
    assert shared[1][0] != 0 or "overrides" in shared[1][2]


def test_parser_is_built_once_over_many_runs(tmp_path, capsys, monkeypatch):
    built = []

    def counting_build_parser(_inner=cli.build_parser):
        built.append(1)
        return _inner()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k-max": 7}))
    for argv in (
        FAITH5,
        ["faithfulness", "--seq", CONST3, "--k-max", "abc"],
        ["encode", "--seq", CONST3, "--x", "3/2", "--rank", "3"],
        FAITH5 + ["--config", str(cfg)],
        ["cdf", "--seq", ARITH, "--rows", "uniform", "--x", "1/3", "--rank", "40"],
        EXAMPLE5,
    ):
        run(argv)
    capsys.readouterr()
    assert len(built) == 1


def test_emitted_json_reparses(capsys):
    for argv in (
        ["faithfulness", "--seq", COUNTER, "--k-max", "50"],
        ["dim-measure", "--seq", ARITH, "--rows", "uniform", "--k-max", "10"],
        ["example1", "--k-max", "10"],
    ):
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert "precision_dps" in payload


# ---------------------------------------------------------------------------
# fuzzing: random flag values inline and in config files
# ---------------------------------------------------------------------------

SMALL = st.integers(-2, 12)
NUMBER = st.one_of(SMALL, st.integers(), st.floats(), st.sampled_from(["1/2", "3", "x", ""]))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8,
)
SEQS = st.one_of(JSON_VALUES, st.fixed_dictionaries(
    {"kind": st.sampled_from(["constant", "arithmetic", "geometric", "counterexample", "custom", "x"])},
    optional={**{key: NUMBER for key in ("s", "a1", "d", "b1", "q")},
              "table": st.lists(NUMBER, max_size=6), "tail": JSON_VALUES},
))
ROWS = st.one_of(
    st.sampled_from(["uniform", "example1", "example1:tower", "example1_psi", "point_mass:1", "x"]),
    st.fixed_dictionaries({"custom": st.lists(st.lists(NUMBER, max_size=4), max_size=3)}),
    JSON_VALUES,
)
SETS = st.one_of(
    st.just('"all"'),
    st.fixed_dictionaries({"every_rank": st.lists(NUMBER, max_size=4)}),
    st.fixed_dictionaries({"except_ranks": st.one_of(st.just("powers_of_10"), st.lists(NUMBER, max_size=4))},
                          optional={"digits_at_exception": st.lists(NUMBER, max_size=3)}),
    st.fixed_dictionaries({"per_rank": st.lists(st.lists(NUMBER, max_size=3), max_size=4)}),
    JSON_VALUES,
)
SMALL_FLAG = st.one_of(SMALL, SMALL.map(str), st.none(), st.floats(), st.sampled_from(["", "x", "1.5"]))
# Every flag but --out (the fuzz writes no files); "command", "config" and
# "bogus" are not flags.  Counts stay small so every run is quick.
FLAG_VALUES = {
    "seq": SEQS, "rows": ROWS, "set": SETS, "digits": st.one_of(st.lists(SMALL, max_size=13), JSON_VALUES),
    "k-max": SMALL_FLAG, "rank": SMALL_FLAG, "samples": SMALL_FLAG,
    "seed": SMALL_FLAG, "precision": st.one_of(st.integers(15, 20), SMALL_FLAG),
    "x": st.one_of(NUMBER, st.sampled_from(["1/3", "0.5", "1/0"])),
    "met-tol": NUMBER, "violation-threshold": NUMBER,
    "format": st.sampled_from(["json", "csv", "plot-data", "xml"]),
    "spike-form": st.sampled_from(["double", "tower", "x"]),
    "command": JSON_VALUES, "config": JSON_VALUES, "bogus": JSON_VALUES,
}
BASE_FLAGS = {
    "encode": {"seq": CONST3, "x": "1/2", "rank": "4"},
    "decode": {"seq": ARITH, "digits": "[1,2]"},
    "cylinder": {"seq": ARITH, "digits": "[1,2]"},
    "faithfulness": {"seq": COUNTER, "k-max": "12"},
    "dim-measure": {"seq": ARITH, "rows": "example1", "k-max": "8"},
    "dim-spectrum": {"seq": CONST3, "rows": "uniform", "k-max": "8"},
    "cdf": {"seq": CONST3, "rows": "uniform", "x": "1/3", "rank": "5"},
    "billingsley": {"seq": ARITH, "rows": "example1", "k-max": "4", "digits": "[1,1,1,1]"},
    "boxcount": {"seq": CONST3, "set": '"all"', "k-max": "6"},
    "example1": {"k-max": "6", "samples": "1"},
}


EXTRA_FLAGS = {
    "faithfulness": ["met-tol", "violation-threshold"],
    "example1": ["seed", "spike-form"],
}


def _flag_text(value):
    return value if isinstance(value, str) else json.dumps(value)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_flags_and_config_files_never_escape_run(data):
    command = data.draw(st.sampled_from(sorted(BASE_FLAGS)))
    flags = dict(BASE_FLAGS[command])
    descriptors = [k for k in ("seq", "rows", "set", "digits") if k in flags]
    inline = data.draw(st.fixed_dictionaries({}, optional={k: FLAG_VALUES[k] for k in descriptors}))
    flags.update((k, _flag_text(v)) for k, v in inline.items())
    keys = [*flags, *EXTRA_FLAGS.get(command, []), "precision", "format", "command", "config", "bogus"]
    config = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=3).flatmap(
        lambda chosen: st.fixed_dictionaries({k: FLAG_VALUES[k] for k in chosen})))
    argv = [command] + [token for k, v in flags.items() for token in (f"--{k}", v)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)  # returning at all means no exception escaped
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        assert all(line.startswith(("error:", "warning:")) for line in lines)

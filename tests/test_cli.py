"""CLI dispatch, serialization formats, exit codes, determinism."""

import json
import math

import pytest

from cantordim.cli import run

COUNTER = '{"kind":"counterexample"}'
CONST3 = '{"kind":"constant","s":3}'
ARITH = '{"kind":"arithmetic","a1":2,"d":1}'


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


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


def test_decode_and_cylinder_print_answers_of_any_length(capsys):
    # Rank 2000 of n_k = k + 1: the denominator 2001! has 5,700+ digits.
    digits = json.dumps(list(range(1, 2001)))  # the largest digit n_k - 1 at every rank
    den = math.factorial(2001)
    code, payload = run_json(capsys, ["decode", "--seq", ARITH, "--digits", digits])
    assert code == 0
    assert payload["value"] == f"{den - 1}/{den}"
    code, payload = run_json(capsys, ["cylinder", "--seq", ARITH, "--digits", digits])
    assert code == 0
    assert payload["cylinder"]["length"] == f"1/{den}"
    assert payload["cylinder"]["right"] == "1/1"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["faithfulness", "--seq", '{"kind":"custom","table":5}', "--k-max", "5"],
        ["dim-measure", "--seq", CONST3, "--rows", '{"custom":5}', "--k-max", "5"],
        ["boxcount", "--seq", CONST3, "--set", '{"every_rank":5}', "--k-max", "5"],
    ],
)
def test_wrong_typed_descriptor_fields_are_one_line_errors(capsys, argv):
    assert run(argv) in (1, 2)  # run() returning at all means no traceback
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.count("error:") == 1


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
    run(["encode", "--seq", CONST3, "--x", "3/2", "--rank", "3"])
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


def test_emitted_json_reparses(capsys):
    for argv in (
        ["faithfulness", "--seq", COUNTER, "--k-max", "50"],
        ["dim-measure", "--seq", ARITH, "--rows", "uniform", "--k-max", "10"],
        ["example1", "--k-max", "10"],
    ):
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert "precision_dps" in payload

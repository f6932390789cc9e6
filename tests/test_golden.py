"""Byte-identity of CLI reports.

Each case runs one small pipeline through ``cantordim.cli.run`` and
compares the sha256 of its stdout with a digest recorded before the
change it guards: the shared rank-log pass for most cases, the exact
integer witness fits for the big-term and q = 1 faithfulness cases, the
single series emitter for the ``-csv`` and ``-plot`` cases, and the
integer codec walk and the ``cdf`` early stop for the ``encode-``,
``decode-``, ``cylinder-`` and ``cdf-`` cases (the ``-p30`` ones pin the
stopping rank's dependence on the precision), and the one-pass measure
walk for the ``example1-1500-``, ``example1-tower-p80``,
``dim-spectrum-counterexample-psi``, ``dim-measure-pointmass``,
``dim-measure-custom-zero-p30`` and ``billingsley-counterexample-csv``
cases (the ``example1-1500-`` ones cross the spike at rank 1000).  Any
change to the summation order, the emitted precision or the report
layout shows here.  The same bytes must reach an ``--out`` file, and the
per-series files of multi-series CSV and plot-data (``MULTI_SERIES``) are
pinned too; both were recorded before the chunked writer replaced
``json.dumps`` and whole-document writes.
Re-record a digest only when an output change is intended.
"""

import hashlib
import json

import pytest

from cantordim.cli import run

ARITH = '{"kind":"arithmetic","a1":2,"d":1}'
CONST3 = '{"kind":"constant","s":3}'
GEOM = '{"kind":"geometric","b1":2,"q":3}'
COUNTER = '{"kind":"counterexample"}'
CUSTOM = '{"kind":"custom","table":[2,3,5,7,11,13],"tail":{"kind":"arithmetic","a1":3,"d":2}}'
BIGTERM = json.dumps({"kind": "custom", "table": [10**59 + 7, 2, 3, 5, 7, 11]})
CUSTOM_ROWS = '{"custom":[["1/2","1/4","1/4"],["1/2",0,"1/2"]]}'
BILL_DIGITS = json.dumps([0 if k in (10, 100) else (7 * k) % (k + 1) for k in range(1, 121)])
ZERO_ROWS = '{"custom":[[0,"1/2","1/2"],["1/3","1/3","1/3"],["1/6",0,"5/6"]]}'
COUNTER_BILL_DIGITS = json.dumps([0 if k in (10, 100) else k % 2 for k in range(1, 151)])
X = "123456789012345678901234567/987654321098765432109876543211"


def _counter_term(k):
    return 10**k if k >= 10 and str(k) == "1" + "0" * (len(str(k)) - 1) else 2


ARITH_DIGITS = json.dumps([pow(3, 5 * k, k + 1) for k in range(1, 301)])
COUNTER_DIGITS = json.dumps([(pow(3, 5 * k, _counter_term(k)) + k // 2) % _counter_term(k)
                             for k in range(1, 301)])

CASES = {
    "faithfulness-constant": ["faithfulness", "--seq", CONST3, "--k-max", "200"],
    "faithfulness-arithmetic": ["faithfulness", "--seq", ARITH, "--k-max", "300"],
    "faithfulness-geometric": ["faithfulness", "--seq", GEOM, "--k-max", "150"],
    "faithfulness-counterexample": ["faithfulness", "--seq", COUNTER, "--k-max", "1000"],
    "faithfulness-custom": ["faithfulness", "--seq", CUSTOM, "--k-max", "200"],
    "faithfulness-custom-bigterm": ["faithfulness", "--seq", BIGTERM, "--k-max", "6"],
    "faithfulness-geometric-q1": ["faithfulness", "--seq", '{"kind":"geometric","b1":3,"q":1}',
                                  "--k-max", "100"],
    "faithfulness-arithmetic-csv-p30": ["faithfulness", "--seq", ARITH, "--k-max", "120",
                                        "--precision", "30", "--format", "csv"],
    "dim-measure-uniform": ["dim-measure", "--seq", ARITH, "--rows", "uniform", "--k-max", "150"],
    "dim-measure-example1": ["dim-measure", "--seq", ARITH, "--rows", "example1", "--k-max", "150"],
    "dim-measure-custom": ["dim-measure", "--seq", CONST3, "--rows", CUSTOM_ROWS, "--k-max", "60"],
    "dim-spectrum-uniform": ["dim-spectrum", "--seq", GEOM, "--rows", "uniform", "--k-max", "60"],
    "dim-spectrum-example1": ["dim-spectrum", "--seq", ARITH, "--rows", "example1_psi", "--k-max", "150"],
    "dim-spectrum-custom": ["dim-spectrum", "--seq", CONST3, "--rows", CUSTOM_ROWS, "--k-max", "60"],
    "billingsley-example1": ["billingsley", "--seq", ARITH, "--rows", "example1", "--k-max", "120",
                             "--digits", BILL_DIGITS],
    "billingsley-psi-flags": ["billingsley", "--seq", ARITH, "--rows", "example1_psi", "--k-max", "20",
                              "--digits", json.dumps([k % (k + 1) for k in range(1, 21)])],
    "boxcount-arithmetic": ["boxcount", "--seq", ARITH, "--k-max", "200", "--set",
                            '{"except_ranks":"powers_of_10","digits_at_exception":[0]}'],
    "boxcount-constant": ["boxcount", "--seq", CONST3, "--k-max", "80", "--set", '{"every_rank":[0,2]}'],
    "boxcount-counterexample": ["boxcount", "--seq", COUNTER, "--k-max", "120", "--set", '"all"'],
    "billingsley-unit-flags": ["billingsley", "--seq", CONST3, "--rows", "point_mass:0", "--k-max", "5",
                               "--digits", "[0,0,0,0,0]"],
    "example1": ["example1", "--k-max", "200"],
    "example1-tower-p30": ["example1", "--k-max", "120", "--spike-form", "tower", "--precision", "30",
                           "--samples", "2", "--seed", "5"],
    "example1-1500-nosamples": ["example1", "--k-max", "1500", "--samples", "0"],
    "example1-1500-samples-p80": ["example1", "--k-max", "1500", "--samples", "2", "--seed", "7",
                                  "--precision", "80"],
    "example1-tower-p80": ["example1", "--k-max", "150", "--spike-form", "tower", "--samples", "1",
                           "--seed", "3", "--precision", "80"],
    "dim-spectrum-counterexample-psi": ["dim-spectrum", "--seq", COUNTER, "--rows", "example1_psi",
                                        "--k-max", "300"],
    "dim-measure-pointmass": ["dim-measure", "--seq", CONST3, "--rows", "point_mass:0", "--k-max", "80"],
    "dim-measure-custom-zero-p30": ["dim-measure", "--seq", CONST3, "--rows", ZERO_ROWS, "--k-max", "90",
                                    "--precision", "30"],
    "billingsley-counterexample-csv": ["billingsley", "--seq", COUNTER, "--rows", "uniform",
                                       "--k-max", "150", "--digits", COUNTER_BILL_DIGITS, "--format", "csv"],
    "encode-arithmetic": ["encode", "--seq", ARITH, "--x", X, "--rank", "300"],
    "encode-counterexample": ["encode", "--seq", COUNTER, "--x", X, "--rank", "300"],
    "decode-arithmetic": ["decode", "--seq", ARITH, "--digits", ARITH_DIGITS],
    "decode-counterexample": ["decode", "--seq", COUNTER, "--digits", COUNTER_DIGITS],
    "cylinder-arithmetic": ["cylinder", "--seq", ARITH, "--digits", ARITH_DIGITS],
    "cylinder-counterexample": ["cylinder", "--seq", COUNTER, "--digits", COUNTER_DIGITS],
    "cdf-arithmetic-uniform": ["cdf", "--seq", ARITH, "--rows", "uniform", "--x", X, "--rank", "2000"],
    "cdf-counterexample-uniform": ["cdf", "--seq", COUNTER, "--rows", "uniform", "--x", X, "--rank", "300"],
    "cdf-arithmetic-example1": ["cdf", "--seq", ARITH, "--rows", "example1", "--x", X, "--rank", "1000"],
    "cdf-arithmetic-example1-p30": ["cdf", "--seq", ARITH, "--rows", "example1", "--x", X, "--rank", "1000",
                                    "--precision", "30"],
    "cdf-constant-custom": ["cdf", "--seq", CONST3, "--rows", CUSTOM_ROWS, "--x", "1/4", "--rank", "300"],
    "cdf-constant-custom-p30": ["cdf", "--seq", CONST3, "--rows", CUSTOM_ROWS, "--x", "1/4", "--rank", "300",
                                "--precision", "30"],
}
# CSV and plot-data on stdout: one series per report.
for _name, _formats in (
    ("faithfulness-counterexample", ("plot",)),  # faithfulness CSV: the -csv-p30 case
    ("dim-measure-example1", ("csv", "plot")),
    ("billingsley-example1", ("csv", "plot")),
    ("boxcount-arithmetic", ("csv", "plot")),
):
    for _fmt in _formats:
        CASES[f"{_name}-{_fmt}"] = CASES[_name] + ["--format", "csv" if _fmt == "csv" else "plot-data"]

DIGESTS = {
    "faithfulness-constant": "2b817373d174bd3d6f18dec8d31589386d9a6f3213e1859be93ecff72c129753",
    "faithfulness-arithmetic": "bded016e1165580124d647b07df5cfeb2ddd15688506ec1653709f0e2588a3dc",
    "faithfulness-geometric": "5d38450388be437e98189163a725c8b7825178e94302bdd5f0fab2c4fe0ef431",
    "faithfulness-counterexample": "c3975debc72294733c1a91a94f3ba6b189909286604e39a4bd85dd7f7011eab2",
    "faithfulness-custom": "b4c97b5491cc272376aa77edbb7a910637f80f23f4bf7abbb1297fa3410f8d81",
    "faithfulness-custom-bigterm": "7961b5804bb6d9bd60c86825887ee9a389bcc811c4ad409d1691b03e79b8f779",
    "faithfulness-geometric-q1": "26f230944b1af0559ff71fa9f0b35efff9090211ad27bdec3ffcdf12be6f7106",
    "faithfulness-arithmetic-csv-p30": "38cd61cf10e2cc3f1763c20400129e44258570d49f958d61aaa8e393c3572f5e",
    "dim-measure-uniform": "f8fe367a12f4cfd4debfd46b412e2a40cff75b7e78f058dda1902bb121fe3589",
    "dim-measure-example1": "68ae75ebbb9cdabc7fa6af5bd4a37007c8c8ee318ea86046a4d7cdc52059cebe",
    "dim-measure-custom": "1cb74bd92c6a512176ca84d988cca3e3f0b708b38a254623f01551fbf2679565",
    "dim-spectrum-uniform": "32b03b5ba867cd31f452e30ce464ff04aa5e734382522461439099e5eb9f5880",
    "dim-spectrum-example1": "60d193efac92899b9826b0d11cbf65888db095310a94e2a5c5cba57e47f2f6ce",
    "dim-spectrum-custom": "7b36cf29ba10c757f5bd7a1d8e60468d0e912dc78e3248c2530fa30b983a2a06",
    "billingsley-example1": "33c46d2d4d82e89b7bd4315eedcc107d365f7653973b0dd951a08fb36d1e76de",
    "billingsley-psi-flags": "e2757508e07bc6b62bf9ff27a36fb13af612be07c0842177b2c76e81ea469107",
    "boxcount-arithmetic": "3fb4cabf271e6d86dd4780188fce5377ff6570a3a0a4d137c51a3b356453e058",
    "boxcount-constant": "0b515b77a4be1b962c15f4f546d66a0b2ac620147d9216fd4a10024f457dc030",
    "boxcount-counterexample": "025daccd6394ab31c7945885a11cc263c6a19aa67f98bfc2ab366ef70694398a",
    "billingsley-unit-flags": "7aa877037c30dfdd123a9400f3686fa4871da726688d83da6dfc7df61f9d8146",
    "example1": "a6a03fb42cd2feffc43a43d19018033fbcf0901aa39d4b4cce0ba4655e1cab08",
    "example1-tower-p30": "d1f07955b6cef305ce4270c8319037ee46c3433f018bcee157e7d9a12e785f02",
    "faithfulness-counterexample-plot": "89aca1d9f1368f603e77e9bcd4f123ca65b38fe20434edf9283f964c29631b6b",
    "dim-measure-example1-csv": "4dd2218bb935cbec05c3d55600610f13c7446a21d6c62f66ec4be5da9e100d74",
    "dim-measure-example1-plot": "d12eef2a7b3650013c479391c21bce119ca326c4eb44c62b04a162bd02ee4e0c",
    "billingsley-example1-csv": "7a9d4b1dd79d05a76d225be83a1df35b2715eb53b6aca80bc223da5eb6327571",
    "billingsley-example1-plot": "8073a565662cd966c94a58d2c3870eba92a82e0df7a219559f148d16ab0bbf0b",
    "boxcount-arithmetic-csv": "05e48dc0ca293639f95b5bb3a81e03de793530c2e9b8926ad62aa0b639a23dfd",
    "boxcount-arithmetic-plot": "45a9de33d3e61b6b18a551b7445f5220f4e8c8bf16d344aa87b2f1dc572a1b9c",
    "example1-1500-nosamples": "ece31b5052a1dcab0ac35509b8f4dc742cbff4d5db554874e00ce2f0334638aa",
    "example1-1500-samples-p80": "fe7c9e55d0281137d77a8a4fc7928a23bec47322710a509f1ad1d2432ec62c9b",
    "example1-tower-p80": "2160d42dfd52f7ff7d2dca1bb5485175ca910bcca309e95610f1f23262fd51ae",
    "dim-spectrum-counterexample-psi": "28ecaa56893931a746e7ae78955f09a0a47ccd86061c471e3bb0ed65ffb8f5b2",
    "dim-measure-pointmass": "aa1a6a498506788273ce7bce83af266fdcda6c739ae4039d0b5930569c5f3587",
    "dim-measure-custom-zero-p30": "a935d01b3f6b3af20424fb2edb1d6a7c36fa223e400d1aea5478ce4d7d79e085",
    "billingsley-counterexample-csv": "ca4059261f1cb931919975a6f54d9d3ea9e850efe1c83ec6582f0073e85be069",
    "encode-arithmetic": "74be0cfc8702490b2d7d3b2555f3e975549cea6a584f74d3286cc5c3213ed33b",
    "encode-counterexample": "db0a2aec3e6a0e715cc958256e2ea1fd6c9ce1dbc9c038003c2f9d531bb1a845",
    "decode-arithmetic": "1258de3fafc83ac64e1e38502157503bf71e9c72e6929f9675b4733a31fd86a5",
    "decode-counterexample": "bd76bf3372cfb5f6eae0b41231283f1964d62252aa42c24c2c6f648ae5f86270",
    "cylinder-arithmetic": "b6fbd5da2ba2707c177091ba431cc336273e9248240ff48f24bd99fcc8ed70ca",
    "cylinder-counterexample": "990f11cadc787fc54f3030ef18409bfd1e6bbe24661c187d4311ebc8bf6cc13e",
    "cdf-arithmetic-uniform": "1318743759ea7af16241614890def0711ffd1c6c8e31c6e2851f9b2cb5263528",
    "cdf-counterexample-uniform": "50ed19b4e1223916b939e3e93774f07d6714a034621b1c465af056dcc3362577",
    "cdf-arithmetic-example1": "8c3e30e7040519511944d7835522a3541cd0bb3659e97a1c872206e23b9e8e82",
    "cdf-arithmetic-example1-p30": "7687a6268e5bc06e152731b06a470dfbb11539941017b63923573baf9b586823",
    "cdf-constant-custom": "e5e372a58baca3ccde535f252c558853dae38e8812b9ae0726fb075a6d91f405",
    "cdf-constant-custom-p30": "73777eb454a4855919e8c05a9b69475bdf86ff803197e496f901ae9b4b5d4271",
}


# Multi-series CSV and plot-data: argv (without --out) and the digest of
# each PREFIX.<series>.<ext> file written with --out PREFIX.
MULTI_SERIES = {
    "example1-csv": (["example1", "--k-max", "200", "--format", "csv"], {
        ".measure_dim.csv": "77f728527d313552d0b4381b53fecd857e98a5bd0c1c0bdcf8d3f522f7c6eeb4",
        ".ratio_extreme.csv": "43db98222f0a669da35dd2a8f6f3d6e997deb8787ca7af0e5231620a8b9ad336",
        ".ratio_sample_0.csv": "43db98222f0a669da35dd2a8f6f3d6e997deb8787ca7af0e5231620a8b9ad336",
        ".ratio_sample_1.csv": "43db98222f0a669da35dd2a8f6f3d6e997deb8787ca7af0e5231620a8b9ad336",
        ".ratio_sample_2.csv": "43db98222f0a669da35dd2a8f6f3d6e997deb8787ca7af0e5231620a8b9ad336",
        ".spectrum_dim.csv": "d2604c1265e0e32d8d5ed519847c67976b08552d03d1cdea2b3f2401e453d3a2",
    }),
    "example1-plot": (["example1", "--k-max", "200", "--format", "plot-data"], {
        ".measure_dim.dat": "d600bbf2236b89455c1567f9d40d669c0ee79c6f495419c7f3ecd99051153efb",
        ".ratio_extreme.dat": "d1269a18eed35d7ef1251d85f994d0cb313dcdf1ce2a48fd535b7e32ccc16a78",
        ".ratio_sample_0.dat": "d1269a18eed35d7ef1251d85f994d0cb313dcdf1ce2a48fd535b7e32ccc16a78",
        ".ratio_sample_1.dat": "d1269a18eed35d7ef1251d85f994d0cb313dcdf1ce2a48fd535b7e32ccc16a78",
        ".ratio_sample_2.dat": "d1269a18eed35d7ef1251d85f994d0cb313dcdf1ce2a48fd535b7e32ccc16a78",
        ".spectrum_dim.dat": "3ed75c66359b6011b25009fe37f9530d4d3fed6fad739f0a621093bfa80e010b",
    }),
    "example1-tower-p30-csv": (CASES["example1-tower-p30"] + ["--format", "csv"], {
        ".measure_dim.csv": "993be3a18b632b38153d90a29fb2af942efc23dc52ccb92f83ec18075a8f51f1",
        ".ratio_extreme.csv": "8ca72ed659955252ff3ccd9fd7b6d6ca8b7ea94845593af588705404c86c53f8",
        ".ratio_sample_0.csv": "8ca72ed659955252ff3ccd9fd7b6d6ca8b7ea94845593af588705404c86c53f8",
        ".ratio_sample_1.csv": "8ca72ed659955252ff3ccd9fd7b6d6ca8b7ea94845593af588705404c86c53f8",
        ".spectrum_dim.csv": "609b29fdef2791a4926508bc22845d5de757fc15aa2ea8a36cf365609f832ff6",
    }),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, capsys):
    assert run(CASES[name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_holds_the_stdout_bytes(name, tmp_path):
    assert run(CASES[name] + ["--out", str(tmp_path / "report")]) == 0
    (written,) = tmp_path.iterdir()  # plot-data names its file report.<series>.dat
    assert hashlib.sha256(written.read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MULTI_SERIES))
def test_multi_series_files_unchanged(name, tmp_path):
    argv, digests = MULTI_SERIES[name]
    assert run(argv + ["--out", str(tmp_path / "run")]) == 0
    written = {p.name.removeprefix("run"): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == digests

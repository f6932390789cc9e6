"""Command-line frontend.

One subcommand per pipeline; JSON descriptors arrive inline as flags or in
a config file (the file wins on conflict, with a warning).  Output is JSON
by default, CSV or gnuplot-style two-column data on request.  Identical
configuration and seed produce byte-identical output: reports carry no
timestamps and all numbers are emitted as fixed-precision decimal strings.

Exit codes: 0 success, 1 domain error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from mpmath import nstr

from . import billingsley as bl
from . import codec, estimator, measure, sequences
from .precision import default_dps, resolve_dps, working_dps


class ConfigError(Exception):
    """Malformed descriptors, flags, or config files."""


DOMAIN_ERRORS = (
    sequences.SequenceError,
    codec.CodecError,
    measure.ModelError,
    estimator.EstimatorError,
    ValueError,
    ZeroDivisionError,
    OverflowError,
)


def _parse_json_flag(raw, flag):
    if raw is None:
        raise ConfigError(f"missing required option {flag}")
    if not isinstance(raw, str):
        return raw  # already structured (came from a config file)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{flag} is not valid JSON: {exc}") from exc


def _parse_rational(raw, flag):
    if raw is None:
        raise ConfigError(f"missing required option {flag}")
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{flag} is not a rational number: {raw!r}") from exc


def _parse_digits(raw, seq):
    payload = _parse_json_flag(raw, "--digits")
    if not isinstance(payload, list) or not all(isinstance(d, int) for d in payload):
        raise ConfigError("--digits must be a JSON array of integers")
    return codec.DigitString(seq, tuple(payload))


def _require(ns, name):
    value = getattr(ns, name.replace("-", "_"))
    if value is None:
        raise ConfigError(f"missing required option --{name}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantordim",
        description=(
            "Cantor series expansions: faithfulness diagnostics, dimension "
            "series of digit-product measures, and covering-based dimension "
            "estimates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--precision", type=int, default=None, help="significant decimal digits (default 50 or CANTORDIM_PRECISION)")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv", "plot-data"), default="json")
        p.add_argument("--config", default=None, help="JSON config file; wins over inline flags")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    seq_flag = ("--seq", {"default": None, "help": "sequence descriptor JSON"})
    rows_flag = ("--rows", {"default": None, "help": "row-rule descriptor JSON or name"})
    kmax_flag = ("--k-max", {"type": int, "default": None})
    digits_flag = ("--digits", {"default": None, "help": "digit string as a JSON array"})
    depth_flag = ("--depth-cap", {"type": int, "default": None})

    add("encode", "digit string of a rational point", seq_flag,
        ("--x", {"default": None, "help": "rational in [0,1), e.g. 5/6 or 0.83"}),
        ("--rank", {"type": int, "default": None}))
    add("decode", "exact rational value of a digit string", seq_flag, digits_flag)
    add("cylinder", "exact cylinder interval of a digit string", seq_flag, digits_flag)
    add("faithfulness", "faithfulness-ratio sweep and verdict", seq_flag, kmax_flag,
        ("--met-tol", {"type": float, "default": sequences.MET_TOL_DEFAULT}),
        ("--violation-threshold", {"type": float, "default": sequences.VIOLATION_THRESHOLD_DEFAULT}))
    add("dim-measure", "entropy dimension series of a digit measure", seq_flag, rows_flag, kmax_flag, depth_flag)
    add("dim-spectrum", "support-count dimension series", seq_flag, rows_flag, kmax_flag, depth_flag)
    add("cdf", "distribution function at a point", seq_flag, rows_flag, depth_flag,
        ("--x", {"default": None}), ("--rank", {"type": int, "default": None}))
    add("billingsley", "length/measure log-ratio series along a digit string",
        seq_flag, rows_flag, kmax_flag, digits_flag, depth_flag)
    add("boxcount", "cylinder-count dimension estimate of a digit set", seq_flag, kmax_flag,
        ("--set", {"default": None, "dest": "set_spec", "help": "digit-set descriptor JSON"}))
    add("example1", "built-in counterexample pipeline", kmax_flag,
        ("--seed", {"type": int, "default": 0}),
        ("--samples", {"type": int, "default": 3}),
        ("--spike-form", {"choices": ("double", "tower"), "default": "double"}))
    return parser


def _apply_config(ns: argparse.Namespace) -> None:
    """Merge a config file into the parsed namespace; file values win and
    conflicts with explicitly given flags are warned about."""
    if not ns.config:
        return
    try:
        payload = json.loads(Path(ns.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in payload.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or not hasattr(ns, dest):
            raise ConfigError(f"config key {key!r} is not an option of {ns.command!r}")
        current = getattr(ns, dest)
        if current is not None and current != value:
            print(
                f"warning: config file overrides --{key} ({current!r} -> {value!r})",
                file=sys.stderr,
            )
        setattr(ns, dest, value)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows, out: str | None, dps: int) -> None:
    lines = [f"# precision_dps={dps}"]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_plot_data(series: dict, out: str | None, dps: int) -> None:
    """Two-column whitespace-separated data, one file per series."""
    if len(series) > 1 and not out:
        raise ConfigError("plot-data with multiple series needs --out as a path prefix")
    for name, points in series.items():
        lines = [f"# precision_dps={dps}"]
        for k, v in points:
            lines.append(f"{k} {nstr(v, dps)}")
        text = "\n".join(lines) + "\n"
        if out:
            Path(f"{out}.{name}.dat").write_text(text)
        else:
            sys.stdout.write(text)


def _emit_series_csv(series: dict, out: str | None, dps: int) -> None:
    """One CSV file per named series (multi-series reports)."""
    if not out:
        raise ConfigError("csv with multiple series needs --out as a path prefix")
    for name, points in series.items():
        rows = [("k", "value")] + [(k, nstr(v, dps)) for k, v in points]
        _emit_csv(rows, f"{out}.{name}.csv", dps)


def _emit(ns, payload: dict, dps: int, csv_rows=None, series=None) -> None:
    if ns.format == "json":
        _emit_json(payload, ns.out)
    elif ns.format == "csv":
        if csv_rows is None:
            raise ConfigError(f"{ns.command} has no CSV form; use --format json")
        _emit_csv(csv_rows, ns.out, dps)
    else:
        if series is None:
            raise ConfigError(f"{ns.command} has no plot-data form; use --format json")
        _emit_plot_data(series, ns.out, dps)


# ---------------------------------------------------------------------------
# subcommand pipelines
# ---------------------------------------------------------------------------


def _seq_from(ns) -> sequences.BasicSequence:
    return sequences.make_sequence(_parse_json_flag(ns.seq, "--seq"))


def _model_from(ns, seq, k_hint: int) -> measure.SymbolModel:
    rows_raw = ns.rows
    if rows_raw is None:
        raise ConfigError("missing required option --rows")
    rows_spec = rows_raw
    if isinstance(rows_raw, str):
        stripped = rows_raw.strip()
        rows_spec = json.loads(stripped) if stripped.startswith("{") else rows_raw
    rule = measure.make_row_rule(rows_spec)
    depth = ns.depth_cap if ns.depth_cap is not None else max(measure.DEPTH_CAP_DEFAULT, k_hint)
    return measure.SymbolModel(seq, rule, depth_cap=depth)


def _cmd_encode(ns, dps):
    seq = _seq_from(ns)
    x = _parse_rational(ns.x, "--x")
    rank = _require(ns, "rank")
    d = codec.encode(x, seq, rank)
    payload = {
        "precision_dps": dps,
        "x": f"{x.numerator}/{x.denominator}",
        "digits": d.to_jsonable(),
    }
    _emit(ns, payload, dps)
    return 0


def _cmd_decode(ns, dps):
    seq = _seq_from(ns)
    d = _parse_digits(ns.digits, seq)
    value = codec.decode(d)
    payload = {
        "precision_dps": dps,
        "digits": d.to_jsonable(),
        "value": f"{value.numerator}/{value.denominator}",
    }
    _emit(ns, payload, dps)
    return 0


def _cmd_cylinder(ns, dps):
    seq = _seq_from(ns)
    d = _parse_digits(ns.digits, seq)
    payload = {"precision_dps": dps, "cylinder": codec.cylinder(d).to_jsonable()}
    _emit(ns, payload, dps)
    return 0


def _cmd_faithfulness(ns, dps):
    seq = _seq_from(ns)
    report = sequences.faithfulness_diagnostic(
        seq,
        _require(ns, "k-max"),
        met_tol=ns.met_tol,
        violation_threshold=ns.violation_threshold,
        dps=dps,
    )
    _emit(ns, report.to_jsonable(), dps, csv_rows=report.csv_rows(),
          series={"ratios": report.ratios})
    return 0


def _cmd_dim(ns, dps, which):
    seq = _seq_from(ns)
    k_max = _require(ns, "k-max")
    model = _model_from(ns, seq, k_max)
    fn = measure.dim_measure_series if which == "measure" else measure.dim_spectrum_series
    series = fn(model, k_max, dps=dps)
    _emit(ns, series.to_jsonable(), dps, csv_rows=series.csv_rows(),
          series={f"dim_{which}": series.points})
    return 0


def _cmd_cdf(ns, dps):
    seq = _seq_from(ns)
    rank = _require(ns, "rank")
    model = _model_from(ns, seq, rank)
    x = _parse_rational(ns.x, "--x")
    value = measure.cdf(model, x, rank, dps=dps)
    payload = {
        "precision_dps": dps,
        "model": model.descriptor(),
        "x": f"{x.numerator}/{x.denominator}",
        "rank": rank,
        "cdf": nstr(value, dps),
    }
    _emit(ns, payload, dps)
    return 0


def _cmd_billingsley(ns, dps):
    seq = _seq_from(ns)
    k_max = _require(ns, "k-max")
    model = _model_from(ns, seq, k_max)
    d = _parse_digits(ns.digits, seq)
    series = bl.ratio_series(model, d, k_max, dps=dps)
    payload = series.to_jsonable()
    payload["model"] = model.descriptor()
    _emit(ns, payload, dps, csv_rows=series.csv_rows(),
          series={"ratios": [(p.k, p.value) for p in series.points]})
    return 0


def _cmd_boxcount(ns, dps):
    seq = _seq_from(ns)
    spec = estimator.DigitSetSpec.from_descriptor(seq, _parse_json_flag(ns.set_spec, "--set"))
    estimate = estimator.box_dimension_estimate(spec, _require(ns, "k-max"), dps=dps)
    _emit(ns, estimate.to_jsonable(), dps, csv_rows=estimate.csv_rows(),
          series={"ratios": estimate.ratios()})
    return 0


def _cmd_example1(ns, dps):
    report = bl.example1_report(
        _require(ns, "k-max"),
        seed=ns.seed,
        tower=(ns.spike_form == "tower"),
        samples=ns.samples,
        dps=dps,
    )
    series = report.series_map()
    if ns.format == "csv":
        _emit_series_csv(series, ns.out, dps)
        return 0
    _emit(ns, report.to_jsonable(), dps, series=series)
    return 0


COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "cylinder": _cmd_cylinder,
    "faithfulness": _cmd_faithfulness,
    "dim-measure": partial(_cmd_dim, which="measure"),
    "dim-spectrum": partial(_cmd_dim, which="spectrum"),
    "cdf": _cmd_cdf,
    "billingsley": _cmd_billingsley,
    "boxcount": _cmd_boxcount,
    "example1": _cmd_example1,
}


def run(argv) -> int:
    # Exact answers (decode/cylinder denominators) may have any number of
    # digits; Python refuses int-to-str past 4300 digits by default.
    sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(ns)
        dps = resolve_dps(ns.precision) if ns.precision is not None else default_dps()
    except (ConfigError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with working_dps(dps):
            return COMMANDS[ns.command](ns, dps)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

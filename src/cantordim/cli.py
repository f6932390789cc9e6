"""Command-line frontend.

One subcommand per pipeline.  Every input is a flag, typed by one argparse
parser: the JSON descriptors (``--seq``, ``--rows``, ``--set``,
``--digits``) are decoded, a bare name passing for ``--rows`` and
``--set``, and ``--x`` is read as an exact rational while the flags are
parsed.  A ``--config`` JSON file supplies flags too: each entry
``"key": value`` becomes ``--key=value`` (a string as it stands, any other
value JSON-encoded) after the inline flags, so the file wins, with a
warning when the same flag is also given inline, and its values pass the
same ``type`` and ``choices`` checks.  Output is JSON by default, CSV or
gnuplot-style two-column data on request (a flagged point gets its flag
as a third field).  Identical configuration and seed produce
byte-identical output: reports carry no timestamps and all numbers are
emitted as fixed-precision decimal strings.

Exit codes: 0 success, 1 domain error (including a descriptor of an
unknown kind or with a missing or wrong-typed field), 2 configuration
error (a flag or config value the parser rejects, an unreadable config
file, an unwritable --out path, an output form the command lacks).
Every error is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import billingsley as bl
from . import codec, estimator, measure, sequences
from .precision import mpf_text, resolve_dps, working_dps


class ConfigError(Exception):
    """Malformed flags or config files."""


# SequenceError, CodecError, ModelError and EstimatorError are ValueErrors;
# ZeroDivisionError and OverflowError are ArithmeticErrors.
DOMAIN_ERRORS = (ValueError, ArithmeticError)


class _Parser(argparse.ArgumentParser):
    """Raises every parse failure as a ConfigError instead of printing usage
    and exiting, so it reaches the user as one ``error:`` line."""

    def error(self, message):
        raise ConfigError(message)


def _json_value(raw: str):
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from exc


def _json_or_name(raw: str):
    """A JSON descriptor when it starts with '{', '[' or '"', else a bare name."""
    return _json_value(raw) if raw.lstrip().startswith(("{", "[", '"')) else raw


def _digits(raw: str) -> tuple[int, ...]:
    value = _json_value(raw)
    if not isinstance(value, list) or not all(type(d) is int for d in value):
        raise argparse.ArgumentTypeError("must be a JSON array of integers")
    return tuple(value)


def _rational(raw: str) -> Fraction:
    # argparse turns only TypeError/ValueError from a type into an error
    # message; "1/0" raises ZeroDivisionError.
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    # Flags are matched by their full names only, so a config key is one
    # exact flag and the override warning sees every inline spelling.
    parser = _Parser(
        prog="cantordim",
        allow_abbrev=False,
        description=(
            "Cantor series expansions: faithfulness diagnostics, dimension "
            "series of digit-product measures, and covering-based dimension "
            "estimates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, *flags):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(run=handler)
        p.add_argument("--precision", type=int, help="significant decimal digits (default 50 or CANTORDIM_PRECISION)")
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv", "plot-data"), default="json")
        p.add_argument("--config", help="JSON file of flag values; wins over inline flags")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)

    seq_flag = ("--seq", {"type": _json_value, "required": True, "help": "sequence descriptor JSON"})
    rows_flag = ("--rows", {"type": _json_or_name, "required": True, "help": "row-rule descriptor JSON or name"})
    kmax_flag = ("--k-max", {"type": int, "required": True})
    digits_flag = ("--digits", {"type": _digits, "required": True, "help": "digit string as a JSON array"})
    x_flag = ("--x", {"type": _rational, "required": True, "help": "rational in [0,1), e.g. 5/6 or 0.83"})
    rank_flag = ("--rank", {"type": int, "required": True})

    add("encode", "digit string of a rational point", _cmd_encode, seq_flag, x_flag, rank_flag)
    add("decode", "exact rational value of a digit string", _cmd_decode, seq_flag, digits_flag)
    add("cylinder", "exact cylinder interval of a digit string", _cmd_cylinder, seq_flag, digits_flag)
    add("faithfulness", "faithfulness-ratio sweep and verdict", _cmd_faithfulness, seq_flag, kmax_flag,
        ("--met-tol", {"type": float, "default": sequences.MET_TOL_DEFAULT}),
        ("--violation-threshold", {"type": float, "default": sequences.VIOLATION_THRESHOLD_DEFAULT}))
    add("dim-measure", "entropy dimension series of a digit measure", partial(_cmd_dim, which="measure"),
        seq_flag, rows_flag, kmax_flag)
    add("dim-spectrum", "support-count dimension series", partial(_cmd_dim, which="spectrum"),
        seq_flag, rows_flag, kmax_flag)
    add("cdf", "distribution function at a point", _cmd_cdf, seq_flag, rows_flag, x_flag, rank_flag)
    add("billingsley", "length/measure log-ratio series along a digit string", _cmd_billingsley,
        seq_flag, rows_flag, kmax_flag, digits_flag)
    add("boxcount", "cylinder-count dimension estimate of a digit set", _cmd_boxcount, seq_flag, kmax_flag,
        ("--set", {"type": _json_or_name, "required": True, "help": "digit-set descriptor JSON or name"}))
    add("example1", "built-in counterexample pipeline", _cmd_example1, kmax_flag,
        ("--seed", {"type": int, "default": 0}),
        ("--samples", {"type": int, "default": 3}),
        ("--spike-form", {"choices": ("double", "tower"), "default": "double"}))
    return parser


# Finds --config ahead of the full parse; built once, as it never changes.
_CONFIG_FLAG = _Parser(add_help=False, allow_abbrev=False)
_CONFIG_FLAG.add_argument("--config")


def _one_line(text: str) -> str:
    """text with each unprintable character backslash-escaped, so a config
    key or value holding a line break cannot split a message in two."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii") for c in text)


def _with_config(argv: list[str]) -> list[str]:
    """argv followed by one ``--key=value`` flag per entry of the --config file."""
    path = _CONFIG_FLAG.parse_known_args(argv)[0].config
    if path is None:
        return argv
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot load config file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = []
    for key, value in payload.items():
        if key == "config":
            raise ConfigError("a config file cannot name another config file")
        if value is None:
            raise ConfigError(f"config key {key!r} is null; leave it out to keep the default")
        flag = f"--{key}"
        if any(arg == flag or arg.startswith(flag + "=") for arg in argv):
            print(f"warning: config file overrides {_one_line(flag)}", file=sys.stderr)
        flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return [*argv, *flags]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


# Output is written in pieces of about CHUNK_CHARS characters, so no report
# is ever held as one string; runs of flat list items are formatted
# BATCH_ITEMS at a time.
CHUNK_CHARS = 1 << 16
BATCH_ITEMS = 2048
_CONTAINERS = (dict, list, tuple)


def _scalar(value) -> str:
    # json.dumps(value) exactly, with its two common cases inlined.
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _batches(rows, length: int):
    """The rows in lists of up to BATCH_ITEMS."""
    rows = iter(rows)
    for _ in range(0, length, BATCH_ITEMS):
        yield list(itertools.islice(rows, BATCH_ITEMS))


def _json_pieces(value, indent: str = ""):
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, in pieces.

    A list of scalars (a digit string) is formatted BATCH_ITEMS items to a
    piece, and so is a ``Series`` node, one f-string to a row."""
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            yield sep + encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key)) + ": "
            yield from _json_pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple, sequences.Series)):
        if not len(value):
            yield "[]"
            return
        inner, cell = indent + "  ", indent + "    "
        sep, quote_sep, close = ",\n" + inner, '",\n' + cell + '"', '"\n' + inner + "]"
        if isinstance(value, sequences.Series):
            text = lambda row: f'[\n{cell}{row[0]},\n{cell}"{quote_sep.join(row[1:])}{close}'  # noqa: E731
        else:
            text = None if any(isinstance(item, _CONTAINERS) for item in value) else _scalar
        if text is None:
            for i, item in enumerate(value):
                yield "[\n" + inner if i == 0 else sep
                yield from _json_pieces(item, inner)
        else:
            for i, batch in enumerate(_batches(value, len(value))):
                yield ("[\n" + inner if i == 0 else sep) + sep.join(map(text, batch))
        yield "\n" + indent + "]"
    else:
        yield _scalar(value)


def _series_pieces(series: sequences.Series, head: str, sep: str):
    """A series node as ``k<sep>text`` lines under ``head``, with
    ``<sep>flag`` after the text of a flagged point."""
    yield head
    for batch in _batches(series, len(series)):
        yield "".join([f"{row[0]}{sep}{sep.join(row[1:])}\n" for row in batch])


def _write(pieces, path: str | None) -> None:
    """Write the text pieces to ``path`` (stdout if None), CHUNK_CHARS at a time."""
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
            buf, size = [], 0
            for piece in pieces:
                buf.append(piece)
                size += len(piece)
                if size >= CHUNK_CHARS:
                    fh.write("".join(buf))
                    buf, size = [], 0
            fh.write("".join(buf))
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _emit(ns, payload: dict, dps: int, series=None, column=None) -> None:
    """Write the JSON report, or its named ``Series`` nodes as CSV or plot-data.

    The JSON is byte for byte ``json.dumps(payload, sort_keys=True,
    indent=2)`` plus a newline.  One CSV series goes to --out (or stdout)
    headed ``k,<column>``; several need --out and go to one
    ``PATH.<name>.csv`` each, headed ``k,value``.  plot-data is two
    whitespace-separated columns, one ``PATH.<name>.dat`` per series with
    --out.
    """
    if ns.format == "json":
        _write(itertools.chain(_json_pieces(payload), ("\n",)), ns.out)
        return
    csv = ns.format == "csv"
    if series is None:
        raise ConfigError(f"{ns.command} has no {'CSV' if csv else 'plot-data'} form; use --format json")
    if len(series) > 1 and not ns.out:
        raise ConfigError(f"{ns.format} with multiple series needs --out as a path prefix")
    for name, points in series.items():
        head = f"# precision_dps={dps}\n"
        if csv:
            head += f"k,{column if len(series) == 1 else 'value'}\n"
        suffix = "" if csv and len(series) == 1 else f".{name}.{'csv' if csv else 'dat'}"
        _write(_series_pieces(points, head, "," if csv else " "), ns.out and ns.out + suffix)


# ---------------------------------------------------------------------------
# subcommand pipelines
# ---------------------------------------------------------------------------


def _fraction_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _model_from(ns, seq, k_hint: int) -> measure.SymbolModel:
    return measure.SymbolModel(seq, measure.make_row_rule(ns.rows), max(measure.DEPTH_CAP_DEFAULT, k_hint))


def _cmd_encode(ns, dps):
    d = codec.encode(ns.x, sequences.make_sequence(ns.seq), ns.rank)
    _emit(ns, {"precision_dps": dps, "x": _fraction_text(ns.x), "digits": d.to_jsonable()}, dps)


def _cmd_decode(ns, dps):
    d = codec.DigitString(sequences.make_sequence(ns.seq), ns.digits)
    payload = {
        "precision_dps": dps,
        "digits": d.to_jsonable(),
        "value": _fraction_text(codec.decode(d)),
    }
    _emit(ns, payload, dps)


def _cmd_cylinder(ns, dps):
    d = codec.DigitString(sequences.make_sequence(ns.seq), ns.digits)
    _emit(ns, {"precision_dps": dps, "cylinder": codec.cylinder(d).to_jsonable()}, dps)


def _cmd_faithfulness(ns, dps):
    report = sequences.faithfulness_diagnostic(
        sequences.make_sequence(ns.seq),
        ns.k_max,
        met_tol=ns.met_tol,
        violation_threshold=ns.violation_threshold,
        dps=dps,
    )
    payload = report.to_jsonable()
    _emit(ns, payload, dps, {"ratios": payload["ratios"]}, "r_k")


def _cmd_dim(ns, dps, which):
    model = _model_from(ns, sequences.make_sequence(ns.seq), ns.k_max)
    fn = measure.dim_measure_series if which == "measure" else measure.dim_spectrum_series
    series = fn(model, ns.k_max, dps=dps)
    _emit(ns, series.to_jsonable(), dps, {f"dim_{which}": series.points}, "d_k")


def _cmd_cdf(ns, dps):
    model = _model_from(ns, sequences.make_sequence(ns.seq), ns.rank)
    value = measure.cdf(model, ns.x, ns.rank, dps=dps)
    payload = {
        "precision_dps": dps,
        "model": model.descriptor(),
        "x": _fraction_text(ns.x),
        "rank": ns.rank,
        "cdf": mpf_text(value, dps),
    }
    _emit(ns, payload, dps)


def _cmd_billingsley(ns, dps):
    seq = sequences.make_sequence(ns.seq)
    model = _model_from(ns, seq, ns.k_max)
    series = bl.ratio_series(model, codec.DigitString(seq, ns.digits), ns.k_max, dps=dps)
    payload = series.to_jsonable()
    payload["model"] = model.descriptor()
    _emit(ns, payload, dps, {"ratios": payload["points"]}, "b_k")


def _cmd_boxcount(ns, dps):
    spec = estimator.DigitSetSpec.from_descriptor(sequences.make_sequence(ns.seq), ns.set)
    estimate = estimator.box_dimension_estimate(spec, ns.k_max, dps=dps)
    payload = estimate.to_jsonable()
    _emit(ns, payload, dps, {"ratios": payload["series"]}, "ratio")


def _cmd_example1(ns, dps):
    report = bl.example1_report(
        ns.k_max,
        seed=ns.seed,
        tower=(ns.spike_form == "tower"),
        samples=ns.samples,
        dps=dps,
    )
    payload = report.to_jsonable()  # its ratio series share one dict of point texts
    series = {"measure_dim": payload["measure_dimension"]["points"],
              "spectrum_dim": payload["spectrum_dimension"]["points"],
              "ratio_extreme": payload["ratio_series_extreme"]["points"]}
    series.update((f"ratio_sample_{i}", s["points"]) for i, s in enumerate(payload["ratio_series_samples"]))
    _emit(ns, payload, dps, series)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {_one_line(str(exc))}", file=sys.stderr)
    return code


# The parser run() uses, built on its first call and kept for the process:
# building one costs more than a short request, and parsing leaves it
# unchanged, so every run sees the same parser.  It is built through the
# global name build_parser, so a wrapper installed over it is the one kept.
_parser = None


def _shared_parser() -> argparse.ArgumentParser:
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser


def run(argv) -> int:
    # Exact answers (decode/cylinder denominators) may have any number of
    # digits; Python refuses int-to-str past 4300 digits by default.  The
    # run lifts that limit and gives the caller's back as it returns.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            ns = _shared_parser().parse_args(_with_config(argv))
            dps = resolve_dps(ns.precision)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        except (ConfigError, ValueError) as exc:
            return _fail(exc, 2)
        try:
            with working_dps(dps):
                ns.run(ns, dps)
        except ConfigError as exc:
            return _fail(exc, 2)
        except DOMAIN_ERRORS as exc:
            return _fail(exc, 1)
        return 0
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

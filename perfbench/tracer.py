"""Timing and counting wrappers around the public functions of cantordim.

Only the benchmark installs these; nothing under ``src/`` knows about them.
Every wrapped call becomes a span (name, start, end, parent).  Spans are
kept in compact in-memory arrays and written out once, at the end of the
pass.  Self time -- a span's duration minus the time its child spans
cover -- is accumulated per name while the pass runs.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("precision", "logreal", "sequences", "codec", "measure",
          "estimator", "billingsley", "cli")

# Dunder methods that do a layer's work (arithmetic, validation); other
# dunders (comparisons, repr, hash) stay unwrapped and bill their caller.
WRAPPED_DUNDERS = {"__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                   "__abs__", "__pow__", "__post_init__"}

# Private cli helpers that form the emission boundary.
CLI_EMITTERS = ("_emit", "_emit_json", "_emit_csv", "_emit_plot_data", "_emit_series_csv")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.digits_validated = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child time]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            s_start.append(start)
            s_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                s_end[idx] = end
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def write_spans(self, path: Path) -> None:
        """Name table as a JSON header line, then the four span arrays as raw
        native-order bytes (int32 name, int32 parent, f64 start, f64 end)."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "layout": ["name:i4", "parent:i4", "start:f8", "end:f8"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


class ImportSpans:
    """Meta-path finder that records each layer module's import as a span
    named ``<layer>.import``: module bodies are layer work that every CLI
    invocation pays for."""

    def __init__(self, tracer: Tracer, package: str):
        self.tracer = tracer
        self.prefix = package + "."

    def find_spec(self, name, path, target=None):
        layer = name[len(self.prefix):]
        if not name.startswith(self.prefix) or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        spec.loader.exec_module = self.tracer.wrap(f"{layer}.import", spec.loader.exec_module)
        return spec


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw) and not getattr(raw, "__isabstractmethod__", False):
            setattr(cls, attr, tracer.wrap(name, raw))


def install(tracer: Tracer, package) -> None:
    """Wrap every public function and method of the eight layer modules,
    and rebind each name a module imported from another to its wrapper."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
            elif inspect.isfunction(obj) and (not attr.startswith("_") or
                                             (layer == "cli" and attr in CLI_EMITTERS)):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)

    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            replacement = wrapped.get(id(obj))
            if replacement is not None:
                setattr(mod, attr, replacement)

    # Count digits validated by every DigitString construction.
    codec = modules["codec"]
    post_init = codec.DigitString.__post_init__

    def counting_post_init(self, _inner=post_init):
        tracer.digits_validated += len(self.digits)
        return _inner(self)

    codec.DigitString.__post_init__ = counting_post_init

    # argparse work done by cli.run: building the parser and parsing argv.
    cli = modules["cli"]
    build_parser = cli.build_parser

    def traced_build_parser(_inner=build_parser):
        parser = _inner()
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ranks: int, ln_int_hits: int, ln_int_misses: int,
                  emitted_bytes: int) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""

    def calls(pred) -> int:
        return sum(c for name, c in zip(tracer.names, tracer.calls) if pred(name))

    def self_s(pred) -> float:
        return sum(t for name, t in zip(tracer.names, tracer.self_s) if pred(name))

    def parts(name: str) -> list[str]:
        return name.split(".")

    ln_calls = ln_int_hits + ln_int_misses
    term_calls = calls(lambda n: n.startswith("sequences.") and n.endswith(".term"))
    row_calls = calls(lambda n: n == "measure.SymbolModel.row")
    rows_built = calls(lambda n: n.startswith("measure.") and n.endswith("Rule.row"))
    out = {
        "precision.ln_int.calls": ln_calls,
        "precision.ln_int.hit_ratio": _ratio(ln_int_hits, ln_calls),
        "precision.ln_int.self_s": self_s(lambda n: n == "precision.ln_int"),
        "sequences.term.calls": term_calls,
        "sequences.log_term.calls": calls(
            lambda n: n.startswith("sequences.") and n.endswith(".log_term")),
        "sequences.term.per_rank": _ratio(term_calls, ranks),
        "sequences.fit.self_s": self_s(
            lambda n: n in ("sequences.fit_envelope", "sequences.fit_subgeometric")),
        "sequences.sweep.self_s": self_s(lambda n: n == "sequences.faithfulness_diagnostic"),
        "logreal.add.calls": calls(lambda n: n == "logreal.LogReal.__add__"),
        "logreal.mul.calls": calls(lambda n: n == "logreal.LogReal.__mul__"),
        "measure.row.calls": row_calls,
        "measure.rows_built": rows_built,
        "measure.row.hit_ratio": _ratio(row_calls - rows_built, row_calls),
        "measure.entropy.calls": calls(
            lambda n: n.startswith("measure.") and n.endswith("Row.entropy")),
        "billingsley.ratio_series.calls": calls(lambda n: n == "billingsley.ratio_series"),
        "codec.digitstring.built": calls(lambda n: n == "codec.DigitString.__post_init__"),
        "codec.digitstring.digits_validated": tracer.digits_validated,
        "estimator.admissible_count.calls": calls(
            lambda n: n == "estimator.DigitSetSpec.admissible_count"),
        "cli.parse.self_s": self_s(lambda n: n in ("cli.build_parser", "cli.parse_args")),
        "cli.emit.self_s": self_s(lambda n: parts(n)[0] == "cli" and parts(n)[1] in CLI_EMITTERS),
        "cli.emit.bytes": emitted_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls(lambda n, layer=layer: parts(n)[0] == layer)
        out[f"{layer}.self_s"] = self_s(lambda n, layer=layer: parts(n)[0] == layer)
    return out

"""One benchmark pass in a fresh, single-threaded process.

    python3 perfbench/worker.py --src SRC --setup-only
    python3 perfbench/worker.py --src SRC --jobs JOBS.json --out DIR [--trace SPANS]

The process imports cantordim from SRC and times that import plus the
first ``build_parser()`` (its set-up time).  With ``--jobs`` it then runs
every job through ``cantordim.cli.run``, one after the other, writing each
job's stdout to DIR/<i>.out, and prints one JSON line with the per-job exit
codes, start times, latencies, output sizes and digests, the pass wall time,
the process's peak RSS and the speed-probe samples (see SpeedProbe), which
also cover the set-up.  With ``--trace`` the public functions of every layer
are wrapped first, the spans go to SPANS and per-layer figures are added,
and no speed probe runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


class CountingWriter:
    """Text stream that forwards to a file and counts the bytes written."""

    def __init__(self, fh):
        self.fh = fh
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return self.fh.write(text)

    def flush(self) -> None:
        self.fh.flush()


class SpeedProbe:
    """Times a fixed pure-Python loop every PERIOD_S seconds of wall time.

    The shared host runs this process at a speed that swings by up to 2x
    within seconds, invisibly to it (no steal time is reported).  The probe
    samples that speed during the set-up and the jobs, from a SIGALRM
    handler in the same thread, so run.py can correct each time for the
    host's slow spells.  Sample times are seconds since ``origin``.
    """

    PERIOD_S = 0.01
    LOOPS = 400
    # The loop's time when nothing else slows the host: the fastest twentieth
    # of its samples on the 2-vCPU host where the benchmark was written, 0.2%
    # of the period.  Times are reported at the speed this stands for.
    FULL_S = 22.5e-6

    def __init__(self, origin: float):
        self.origin = origin
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        x = 1
        for _ in range(self.LOOPS):
            x = x * 31 % 1000003
        self.at.append(t0 - self.origin)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(cli, jobs: list, out_dir: Path, origin: float, tracer=None) -> dict:
    records = []
    started = time.perf_counter()
    for i, job in enumerate(jobs):
        records.append(_run_job(cli, job, out_dir / f"{i}.out", origin, tracer))
    wall = time.perf_counter() - started
    emitted = 0
    for i, rec in enumerate(records):
        path = out_dir / f"{i}.out"
        rec["bytes"] = path.stat().st_size
        rec["sha256"] = _digest(path)
        emitted += rec.pop("emitted")
    return {"wall_s": wall, "jobs": records, "emitted_bytes": emitted}


def _run_job(cli, job: dict, out_path: Path, origin: float, tracer) -> dict:
    err = io.StringIO()
    with open(out_path, "w") as fh:
        sink = CountingWriter(fh) if tracer else fh
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.run(job["argv"])
            except Exception:  # a traceback is a failed operation, not a dead pass
                rc = -1
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
    return {"rc": rc, "start_s": t0 - origin, "latency_s": t1 - t0,
            "stderr": err.getvalue()[-2000:], "emitted": sink.bytes if tracer else 0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--jobs")
    ap.add_argument("--out")
    ap.add_argument("--trace", help="write spans to this file and report per-layer figures")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    tracer = None
    if args.trace:
        import mpmath  # noqa: F401  (a dependency, not a layer: keep its import out of the spans)

        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
        sys.meta_path.insert(0, tracing.ImportSpans(tracer, "cantordim"))

    # Times (set-up, job starts, probe samples) are seconds since the origin.
    probe = SpeedProbe(time.perf_counter())
    with contextlib.nullcontext() if tracer else probe:
        import cantordim
        import cantordim.cli as cli

        cli.build_parser()
        result = {"setup_s": time.perf_counter() - probe.origin}
        if not args.setup_only:
            jobs = json.loads(Path(args.jobs).read_text())
            if tracer:
                tracing.install(tracer, cantordim)
            from cantordim import precision

            before = precision._ln_int_cached.cache_info()
            result.update(run_pass(cli, jobs, Path(args.out), probe.origin, tracer))
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer:
                after = precision._ln_int_cached.cache_info()
                result["layers"] = tracing.layer_metrics(
                    tracer,
                    ranks=sum(job["ranks"] for job in jobs),
                    ln_int_hits=after.hits - before.hits,
                    ln_int_misses=after.misses - before.misses,
                    emitted_bytes=result["emitted_bytes"],
                )
                result["spans"] = len(tracer.span_start)
                tracer.write_spans(Path(args.trace))
    result["probe"] = {"at": probe.at, "took": probe.took}
    sys.__stdout__.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""cantordim benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload {sweep,measure,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; cantordim is imported from ./src.  Each
workload pass runs in a fresh single-threaded process (perfbench/worker.py)
that drives ``cantordim.cli.run`` in-process, one job after the other.
Passes repeat until S seconds have gone.  Every time is scaled to a fixed
host speed with the worker's in-process speed probe (see at_full_speed);
a request's latency is its best over the passes, set-up time is the median
over fresh processes, and each job counts once in attempted/failed.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
on untraced passes and half on traced ones (every public function of the
eight layer modules wrapped, see tracer.py) and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is the result
JSON; the line before it holds provenance, sample counts and failures,
which are also written to .perfbench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from worker import SpeedProbe  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_RUNS = 9
PROBE_PERIOD_S = SpeedProbe.PERIOD_S
PROBE_FULL_S = SpeedProbe.FULL_S
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CANTORDIM_PRECISION"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(*args) -> dict:
    """Run perfbench/worker.py in a fresh process and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(jobs_file: Path, work: Path, budget_s: float, traced: bool) -> list[dict]:
    """Closed loop: one pass at a time, starting another while it should end
    nearer the deadline than half a pass past it (always at least one).
    Only the outputs of the first untraced pass stay on disk, in work/first;
    later passes are compared with it by digest."""
    passes = []
    deadline = time.monotonic() + budget_s
    last = 0.0
    while not passes or time.monotonic() + last / 2 < deadline:
        out = work / ("first" if not (passes or traced) else "rest")
        out.mkdir(exist_ok=True)
        extra = ["--trace", work / "spans.bin"] if traced else []
        started = time.monotonic()
        passes.append(run_worker("--jobs", jobs_file, "--out", out, *extra))
        last = time.monotonic() - started
    return passes


def judge_passes(jobs: list, passes: list, first_dir: Path, seed: int):
    """Check the first pass against digests and oracles, and every later pass
    against the first.  A job fails when its first output fails a check or
    any later pass differs from it; each job counts once however many passes
    repeat it.  Returns (correct, failed, failure list)."""
    import checks

    sys.set_int_max_str_digits(0)  # the oracles handle answers of any length
    sys.path.insert(0, str(SRC))
    import cantordim

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    rng = random.Random(f"checks:{seed}")
    first = passes[0]
    correct, failed, failures = True, 0, []
    for i, (job, rec0) in enumerate(zip(jobs, first["jobs"])):
        text = (first_dir / f"{i}.out").read_text() if rec0["rc"] == 0 else ""
        verdict = checks.judge(cantordim, job, rec0["rc"], rec0["stderr"], text,
                               rec0["sha256"], digests, rng)
        for n, p in enumerate(passes[1:], 1):
            rec = p["jobs"][i]
            if verdict is None and (rec["rc"], rec["sha256"]) != (rec0["rc"], rec0["sha256"]):
                verdict = checks.Failure(f"pass {n} output differs from the first pass")
        if verdict is None:
            continue
        failed += 1
        correct = correct and verdict.known
        failures.append({"job": i, "op": job["op"], "known_int_str_limit": verdict.known,
                         "reason": verdict.reason})
    return correct, failed, failures


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import mpmath
    import mpmath.libmp

    source = hashlib.sha256()
    for path in sorted((SRC / "cantordim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def at_full_speed(probe: dict, start: float, duration: float) -> float:
    """A time measured in a worker, scaled to a fixed host speed.

    The worker's speed probe times a fixed loop every PROBE_PERIOD_S seconds
    (see worker.SpeedProbe).  A sample's speed is PROBE_FULL_S over the time
    it took, so that the work done in an interval is its length times the
    mean speed of the samples taken in it.  The result is the duration, less
    the time of the samples taken inside it, times the mean speed of the
    samples from one period before the start to one period after the end:
    the seconds the work would take on a host that always ran the probe loop
    in PROBE_FULL_S.
    """
    at, took = probe["at"], probe["took"]
    end = start + duration
    inside = sum(took[bisect.bisect_left(at, start):bisect.bisect_left(at, end)])
    near = took[bisect.bisect_left(at, start - PROBE_PERIOD_S):
                bisect.bisect_right(at, end + PROBE_PERIOD_S)]
    return (duration - inside) * statistics.fmean(PROBE_FULL_S / t for t in near or took)


def setup_times(reports: list) -> list[float]:
    return [at_full_speed(r["probe"], 0.0, r["setup_s"]) for r in reports]


def end_to_end(jobs: list, passes: list, setup: list, failed: int) -> dict:
    # Every pass repeats the same requests.  A request's latency is its best
    # over the passes of its latency at full speed (at_full_speed): the probe
    # misses some slow spells (its loop stays in the L1 cache), and those only
    # ever add time.  The percentiles are taken across requests, and wall_s
    # is a pass made of every request's latency.
    latencies = [min(at_full_speed(p["probe"], p["jobs"][i]["start_s"], p["jobs"][i]["latency_s"])
                     for p in passes)
                 for i in range(len(jobs))]
    wall = sum(latencies)
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "ranks_per_s": (sum(job["ranks"] for job in jobs) / wall, "ranks/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        "output_bytes": (statistics.median(sum(r["bytes"] for r in p["jobs"]) for p in passes),
                         "bytes"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "request_p95_ms": (p95 * 1e3, "ms"),
        "success_rate": (1 - failed / len(jobs), "ratio"),
    }


LAYER_UNITS = {"self_s": "s", "hit_ratio": "ratio", "per_rank": "calls/rank", "bytes": "bytes"}


def per_layer(untraced: list, traced: list) -> dict:
    names = traced[0]["layers"]
    out = {}
    for name in names:
        value = statistics.median(p["layers"][name] for p in traced)
        out[name] = (value, LAYER_UNITS.get(name.rsplit(".", 1)[1], "count"))
    overhead = min(p["wall_s"] for p in traced) / min(p["wall_s"] for p in untraced)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cantordim" / "cli.py").is_file():
        print(f"error: no cantordim sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = WORKLOADS[args.workload](args.seed)
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))

    try:
        run_worker("--setup-only")  # untimed: byte-compiles the sources
        setup = setup_times([run_worker("--setup-only") for _ in range(SETUP_RUNS)])
        if args.trace:
            untraced = run_passes(jobs_file, work, args.seconds / 2, traced=False)
            traced = run_passes(jobs_file, work, args.seconds / 2, traced=True)
        else:
            untraced = run_passes(jobs_file, work, args.seconds, traced=False)
            traced = []
        passes = untraced + traced
        correct, failed, failures = judge_passes(jobs, passes, work / "first", args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup += setup_times(untraced)
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(jobs, untraced, setup, failed))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        "samples": {"setup_s": len(setup), "passes": len(untraced),
                    "traced_passes": len(traced),
                    "requests": len(jobs)},
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "pass_host_speed": [statistics.fmean(PROBE_FULL_S / t for t in p["probe"]["took"])
                            for p in untraced],
        "traced_spans": [p["spans"] for p in traced],
        "failures": failures,
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

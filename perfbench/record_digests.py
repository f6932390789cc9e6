"""Record perfbench/digests.json from the current sources.

    python3 perfbench/record_digests.py

Runs one pass of every workload at the default seed, keeps the sha256 of
each job output that passes its oracle check (failed jobs get no digest,
so a later fix is judged by the oracle alone), plus the digest of the
seed-independent sections of the example1 report.  Run it only when an
output change is intended.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    import checks

    sys.set_int_max_str_digits(0)
    sys.path.insert(0, str(run.SRC))
    import cantordim

    digests = {"jobs": {}}
    for name, make_jobs in WORKLOADS.items():
        work = run.OUT / "record" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        jobs = make_jobs(DEFAULT_SEED)
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps(jobs))
        result = run.run_worker("--jobs", jobs_file, "--out", work)
        rng = random.Random(f"checks:{DEFAULT_SEED}")
        for i, (job, rec) in enumerate(zip(jobs, result["jobs"])):
            text = (work / f"{i}.out").read_text() if rec["rc"] == 0 else ""
            verdict = checks.judge(cantordim, job, rec["rc"], rec["stderr"], text,
                                   rec["sha256"], {}, rng)
            if verdict is not None:
                print(f"{name}[{i}] {job['op']}: no digest ({verdict.reason[:100]})")
                continue
            digests["jobs"][checks.argv_key(job["argv"])] = rec["sha256"]
            if job["op"] == "example1":
                digests["example1_invariant"] = checks.example1_invariant_digest(json.loads(text))
    shutil.rmtree(run.OUT / "record")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests['jobs'])} job digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

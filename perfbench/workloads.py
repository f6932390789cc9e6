"""Seeded job lists for the three benchmark workloads.

A job is a dict with the argv handed to ``cantordim.cli.run``, the op
name, the number of ranks it covers (``k_max`` or ``rank``) and the
parameters the output checks need.  The program only ever sees ``argv``.
Why each workload exists is recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import json
import math
import random

DEFAULT_SEED = 0

ARITHMETIC = {"kind": "arithmetic", "a1": 2, "d": 1}
COUNTEREXAMPLE = {"kind": "counterexample"}
CONSTANT3 = {"kind": "constant", "s": 3}
CUSTOM = {"kind": "custom", "table": [2, 3, 5, 7, 11, 13],
          "tail": {"kind": "arithmetic", "a1": 3, "d": 2}}
GEOMETRIC = {"kind": "geometric", "b1": 2, "q": 3}

EXCEPTIONS_SET = {"except_ranks": "powers_of_10", "digits_at_exception": [0]}

# exact: every (op, sequence) cell gets REQUESTS_PER_CELL requests at the
# same log-uniform grid of ranks.  The seed picks the points and digits, not
# the ranks, so the total work and the number of ranks past the int-to-str
# limit are the same at every seed.
EXACT_OPS = ("encode", "decode", "cylinder", "cdf", "boxcount")
EXACT_SEQS = (ARITHMETIC, COUNTEREXAMPLE, CONSTANT3)
REQUESTS_PER_CELL = 20
RANK_LO, RANK_HI = 10, 3000
DENOMINATOR_DIGITS = 40


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def term(desc: dict, k: int) -> int:
    """n_k of the sequences used here, independent of cantordim."""
    kind = desc["kind"]
    if kind == "constant":
        return desc["s"]
    if kind == "arithmetic":
        return desc["a1"] + (k - 1) * desc["d"]
    if kind == "geometric":
        return desc["b1"] * desc["q"] ** (k - 1)
    if kind == "counterexample":
        return 10**k if k >= 10 and 10 ** (len(str(k)) - 1) == k else 2
    if kind == "custom":
        table = desc["table"]
        return table[k - 1] if k <= len(table) else term(desc["tail"], k)
    raise ValueError(f"no oracle term for {kind!r}")


def _faithfulness(seq: dict, k_max: int) -> dict:
    return {"op": "faithfulness", "ranks": k_max, "params": {"seq": seq, "k_max": k_max},
            "argv": ["faithfulness", "--seq", _dumps(seq), "--k-max", str(k_max)]}


def sweep_jobs(seed: int) -> list[dict]:
    # The seed only picks the ranks the oracle samples; the argv is fixed so
    # every pass does the same work.
    del seed
    return [
        _faithfulness(COUNTEREXAMPLE, 30000),
        _faithfulness(ARITHMETIC, 10000),
        _faithfulness(GEOMETRIC, 3000),
        _faithfulness(CUSTOM, 10000),
    ]


def measure_jobs(seed: int) -> list[dict]:
    return [
        {"op": "example1", "ranks": 10000,
         "params": {"k_max": 10000, "samples": 3, "seed": seed},
         "argv": ["example1", "--k-max", "10000", "--samples", "3", "--seed", str(seed)]},
        {"op": "dim-measure", "ranks": 70000,
         "params": {"seq": ARITHMETIC, "rows": "example1", "k_max": 70000},
         "argv": ["dim-measure", "--seq", _dumps(ARITHMETIC), "--rows", "example1",
                  "--k-max", "70000"]},
    ]


def _rank_grid() -> list[int]:
    """Midpoints of REQUESTS_PER_CELL equal steps of log rank over RANK_LO..RANK_HI."""
    lo, hi = math.log(RANK_LO), math.log(RANK_HI)
    width = (hi - lo) / REQUESTS_PER_CELL
    return [round(math.exp(lo + (j + 0.5) * width)) for j in range(REQUESTS_PER_CELL)]


def _rational(rng: random.Random) -> str:
    den = rng.randrange(10 ** (DENOMINATOR_DIGITS - 1), 10**DENOMINATOR_DIGITS)
    return f"{rng.randrange(den)}/{den}"


def _exact_job(op: str, seq: dict, rank: int, rng: random.Random) -> dict:
    seq_arg = _dumps(seq)
    if op in ("encode", "cdf"):
        x = _rational(rng)
        argv = [op, "--seq", seq_arg, "--x", x, "--rank", str(rank)]
        if op == "cdf":
            argv[3:3] = ["--rows", "uniform"]
        return {"op": op, "ranks": rank, "params": {"seq": seq, "x": x, "rank": rank},
                "argv": argv}
    if op in ("decode", "cylinder"):
        digits = [rng.randrange(term(seq, k)) for k in range(1, rank + 1)]
        return {"op": op, "ranks": rank, "params": {"seq": seq, "digits": digits},
                "argv": [op, "--seq", seq_arg, "--digits", _dumps(digits)]}
    return {"op": op, "ranks": rank, "params": {"seq": seq, "k_max": rank},
            "argv": ["boxcount", "--seq", seq_arg, "--set", _dumps(EXCEPTIONS_SET),
                     "--k-max", str(rank)]}


def exact_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"exact:{seed}")
    jobs = [_exact_job(op, seq, rank, rng)
            for op in EXACT_OPS for seq in EXACT_SEQS for rank in _rank_grid()]
    # The order is the same at every seed: which requests find the ln_int
    # and row caches warm from earlier requests in the pass is then fixed too.
    random.Random("exact:order").shuffle(jobs)
    return jobs


WORKLOADS = {"sweep": sweep_jobs, "measure": measure_jobs, "exact": exact_jobs}

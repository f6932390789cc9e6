"""The term logs of a long rank walk, computed ahead of it in a helper process.

A walk over an arithmetic sequence, or over the arithmetic tail of a custom
table, takes ln n_k of a new integer at every rank: one libmp ``mpf_log``
call, about a third of a 7*10**4-rank ``dim-measure``.  With a second CPU
free, ``helper_logs`` hands these calls to one helper process that runs
ahead of the walk, and the walk puts each value it receives into
the ``ln_int`` cache (``precision.ln_int_fed``).  The helper computes
``precision.ln_int_uncached`` of the same terms at the walk's (prec, rnd),
so the walk keeps every bit.

The helper runs ``serve`` in ``sys.executable`` with this cantordim first
on its PYTHONPATH and the working directory off its ``sys.path``, and
talks over its stdin and stdout:

1. once it has imported cantordim, it writes one line: the mpmath version
   and integer backend it computes with (``precision.LIBMP_IDENTITY``);
2. the walk computes its own logs meanwhile and looks for that line every
   CHUNK ranks.  If it names the walk's own mpmath, the walk sends one JSON
   line: the sequence descriptor, k_max, (prec, rnd) and ``start``, the
   rank CHUNK past its own or the walk's ``first`` rank for the helper,
   whichever is later;
3. the helper rebuilds the terms from the descriptor and writes ln n_k for
   k = start..k_max as pickled lists of CHUNK raw values.  At a term error
   it stops; the walk meets the same error in its own terms.

If the helper cannot start, computes with another mpmath, or dies, the
walk computes the rest of its logs itself.  However the walk stops, the
helper is killed and waited for.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from itertools import islice, repeat

from .precision import LIBMP_IDENTITY, ln_int_uncached

# Ranks per message, and between two looks for the helper's first line.
CHUNK = 1024

# The shortest walk given a helper.  On the 2-CPU host where this was set,
# whose speed varies by up to 2x, a helper was ready 0.12-0.19 s after it
# started (a fresh interpreter plus ``import cantordim``) and one log took
# 6.6-10 us, so the helper's start-up is paid back from about 2*10**4 ranks.
HELPER_MIN_RANKS = 20_000

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # holds this cantordim

# ``python -c`` puts the working directory ('') at sys.path[0], ahead of
# PYTHONPATH, where a stray cantordim, json or pickle would shadow ours.
_SERVE = "import sys\nif sys.path[0] == '':\n    del sys.path[0]\nfrom cantordim.logfeed import serve\nserve()"


def helper_logs(descriptor: dict, k_max: int, prec: int, rnd: str, first: int):
    """Yield, for k = 1, 2, ..., ln n_k at (prec, rnd) as a raw value from a
    helper process, or None where the walk is to compute it itself: at
    least at every rank before ``first``."""
    # Imported here, as few runs start a helper: pickle, select and
    # subprocess add about 9 ms to every start-up.
    import pickle
    import select
    import subprocess

    proc = None
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_ROOT, os.environ.get("PYTHONPATH"))))},
        )
        k = 1
        while not select.select([proc.stdout], [], [], 0)[0]:
            yield from repeat(None, CHUNK)
            k += CHUNK
        # Not used if it died before it was ready, or computes with another mpmath.
        if proc.stdout.readline() == f"{LIBMP_IDENTITY}\n".encode():
            start = max(k + CHUNK, first)
            job = {"seq": descriptor, "k_max": k_max, "prec": prec, "rnd": rnd, "start": start}
            proc.stdin.write(json.dumps(job).encode() + b"\n")
            proc.stdin.close()
            yield from repeat(None, start - k)
            while True:
                yield from pickle.load(proc.stdout)
    except (OSError, EOFError, pickle.UnpicklingError):
        pass  # the helper could not start, or died: the walk computes the rest
    finally:
        if proc is not None:
            proc.kill()
            for pipe in (proc.stdin, proc.stdout):
                with contextlib.suppress(OSError):  # unflushed bytes to a dead helper
                    pipe.close()
            proc.wait()
    yield from repeat(None)


def serve() -> None:
    """The helper's side of ``helper_logs``."""
    import pickle

    from .sequences import SequenceError, make_sequence

    out = sys.stdout.buffer
    out.write(f"{LIBMP_IDENTITY}\n".encode())
    out.flush()
    line = sys.stdin.buffer.readline()
    if not line:
        return  # the walk ended first
    job = json.loads(line)
    prec, rnd = job["prec"], job["rnd"]
    terms = make_sequence(job["seq"]).iter_terms(job["k_max"], job["start"])
    try:
        while chunk := [ln_int_uncached(n, prec, rnd) for n in islice(terms, CHUNK)]:
            pickle.dump(chunk, out, pickle.HIGHEST_PROTOCOL)
            out.flush()
    except SequenceError:
        pass  # the walk raises it from its own terms, at the same rank

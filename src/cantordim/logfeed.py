"""The term logs of a long rank walk, computed ahead of it in a helper process.

A walk over an arithmetic sequence, or over the arithmetic tail of a custom
table, takes ln n_k of a new integer at every rank: one libmp ``mpf_log``
call, about a third of a 7*10**4-rank ``dim-measure``.  With a second CPU
free, ``helper_logs`` hands these calls to one helper process that runs
ahead of the walk, and the walk puts each value it receives into
the ``ln_int`` cache (``precision.ln_int_fed``).  The helper computes
``precision.ln_int_uncached`` of the same terms at the walk's (prec, rnd),
so the walk keeps every bit.

The helper is a fork of the walk's own process, so it runs the same code
and the same mpmath on the walk's own sequence object.  It computes ln n_k
for k = start..k_max, where ``start`` is rank CHUNK + 1 or the walk's
``first`` rank for the helper, whichever is later, and writes them to a
pipe as pickled lists of CHUNK raw values; the walk computes the ranks
before ``start`` itself meanwhile.  At a term error the helper stops; the
walk meets the same error in its own terms.  The helper always ends in
``os._exit``, so it never returns into the walk's caller, runs no atexit
hook and flushes none of the caller's buffers.

If the fork fails or the helper dies, the walk computes the rest of its
logs itself.  However the walk stops, the helper is killed and waited for.
"""

from __future__ import annotations

import os
import signal
from itertools import islice, repeat

from .precision import ln_int_uncached

# Ranks per message.
CHUNK = 1024

# The shortest walk given a helper.  On the 2-CPU host where this was set,
# whose speed varies by up to 2x, a helper that started as a fresh
# interpreter was ready 0.12-0.19 s after it started and one log took
# 6.6-10 us, so its start-up was paid back from about 2*10**4 ranks.  On
# the same host a forked helper of a 23 MB process writes its first byte
# 1.0-5.1 ms after the fork.  The bound is kept all the same: retuning it
# is a separate change, to be measured on its own.
HELPER_MIN_RANKS = 20_000


def helper_logs(seq, k_max: int, prec: int, rnd: str, first: int):
    """Yield, for k = 1, 2, ..., ln n_k of ``seq`` at (prec, rnd) as a raw
    value from a helper process, or None where the walk is to compute it
    itself: at least at every rank before ``first``."""
    import pickle  # imported here, as few runs start a helper

    start = max(CHUNK + 1, first)
    pid = None
    try:
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb") as logs:
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        logs.close()
                        out = open(write_fd, "wb")
                        terms = seq.iter_terms(k_max, start)
                        while chunk := [ln_int_uncached(n, prec, rnd) for n in islice(terms, CHUNK)]:
                            pickle.dump(chunk, out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                    finally:
                        os._exit(0)
            finally:
                os.close(write_fd)
            yield from repeat(None, start - 1)
            while True:
                yield from pickle.load(logs)
    except (OSError, EOFError, pickle.UnpicklingError):
        pass  # the fork failed, or the helper died: the walk computes the rest
    finally:
        if pid:  # never 0: the helper ends in os._exit
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    yield from repeat(None)

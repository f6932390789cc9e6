"""The term logs of a long rank walk, computed ahead of it in a helper process.

A walk over an arithmetic sequence, or over the arithmetic tail of a custom
table, takes ln n_k of a new integer at every rank: one libmp ``mpf_log``
call, about a third of a 7*10**4-rank ``dim-measure``.  With a second CPU
free and at least HELPER_MIN_RANKS such ranks, ``helper_logs`` hands these
calls to one helper process that runs ahead of the walk, and the walk puts
each value it receives into the ``ln_int`` cache (``precision.ln_int_fed``).
The helper computes ``precision.ln_int_uncached`` of the same terms at the
walk's (prec, rnd), so the walk keeps every bit.

The helper is a fork of the walk's own process, so it runs the same code
and the same mpmath on the walk's own sequence object.  It computes ln n_k
for k = start..k_max, where ``start`` is rank CHUNK + 1 or the walk's
``first`` rank for the helper, whichever is later, and writes them to a
pipe as pickled lists of CHUNK raw values; the walk computes the ranks
before ``start`` itself meanwhile.  At a term error the helper stops; the
walk meets the same error in its own terms.  The helper always ends in
``os._exit``, so it never returns into the walk's caller, runs no atexit
hook and flushes none of the caller's buffers.

Before the fork the walk reads the CPU it is running on (field 39 of
``/proc/self/stat``), and the helper, before its first log, takes that CPU
out of its own affinity mask when another CPU is left.  A fork often
starts on its parent's CPU, and the two would then take turns on it for
the first tenths of a second instead of running side by side.  Pinning is
best effort: if the CPU cannot be read or the mask cannot be set, the
helper runs unpinned.  The walk's own mask is never touched, so a library
caller's process keeps the one it set.

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

# The shortest walk given a helper: 4*CHUNK.  On the 2-CPU host where this
# was set, whose speed varies by up to 2x, medians of 15 alternating
# in-process runs of a bare arithmetic ``rank_logs`` at 50 digits, with the
# pinned helper against without one, were 22.0 against 21.6 ms at 2,048
# ranks, 30.6 against 34.9 at 3,072, 40.0 against 48.0 at 4,096 and 84.3
# against 97.9 at 8,192: the break-even lies between 2,048 and 3,072 ranks
# of a walk with no other work per rank, and below that for a pipeline.
HELPER_MIN_RANKS = 4096


def _walk_cpu():
    """The CPU this process is running on, or None if it cannot be read:
    field 39 of /proc/self/stat, counted after the last ')' as the command
    name before it may hold spaces or parentheses."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _pin_off(cpu) -> None:
    """Keep this process (the helper) off ``cpu`` if it may run on another
    CPU; best effort."""
    if cpu is None:
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (OSError, ValueError):
        pass


def helper_logs(seq, k_max: int, prec: int, rnd: str, first: int):
    """Yield, for k = 1, 2, ..., ln n_k of ``seq`` at (prec, rnd) as a raw
    value from a helper process, or None where the walk is to compute it
    itself: at least at every rank before ``first``."""
    import pickle  # imported here, as few runs start a helper

    start = max(CHUNK + 1, first)
    cpu = _walk_cpu()
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
                        _pin_off(cpu)
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

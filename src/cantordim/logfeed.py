"""Work of a long rank walk done beside it in one forked helper process.

``helper`` forks the helper, pins it off the walk's CPU, and hands the walk
the messages it sends down a pipe; however the walk stops, the helper is
killed and waited for.  The helper has two jobs:

- **Term logs** (``helper_logs``).  A walk over an arithmetic sequence, or
  over the arithmetic tail of a custom table, takes ln n_k of a new integer
  at every rank: one libmp ``mpf_log`` call, about a third of a
  7*10**4-rank ``dim-measure``.  With a second CPU free and at least
  HELPER_MIN_RANKS such ranks, the helper computes
  ``precision.ln_int_uncached`` of the same terms at the walk's (prec,
  rnd) for k = start..k_max, where ``start`` is rank CHUNK + 1 or the
  walk's ``first`` rank for the helper, whichever is later, and sends them
  as lists of CHUNK raw values; the walk computes the ranks before
  ``start`` itself meanwhile, and hands each value it receives to
  ``precision.remember_ln_int``.  At a term error the helper stops, and
  the walk meets the same error in its own terms.
- **The later ranks of a faithfulness sweep**
  (``sequences.faithfulness_diagnostic``), when the term logs are cheap
  and no log helper starts: the helper computes the per-rank work of the
  ranks past the split and sends it CHUNK ranks at a time.

The helper is a fork of the walk's own process, so it runs the same code
and the same mpmath on the walk's own objects, and its bits are the ones
the walk would compute.  It writes each message pickled.  The log helper
waits for the walk to read when the pipe is full, so it runs at most a
pipe's worth ahead; the sweep helper, whose walk reads only after its own
ranks, keeps what the pipe cannot take yet as bytes, so it never waits.
It always ends in ``os._exit``, so it never returns into the walk's
caller, runs no atexit hook and flushes none of the caller's buffers.

Before the fork the walk reads the CPU it is running on (field 39 of
``/proc/self/stat``), and the helper, before its first message, takes that
CPU out of its own affinity mask when another CPU is left.  A fork often
starts on its parent's CPU, and the two would then take turns on it for
the first tenths of a second instead of running side by side.  Pinning is
best effort: if the CPU cannot be read or the mask cannot be set, the
helper runs unpinned.  The walk's own mask is never touched, so a library
caller's process keeps the one it set.

If the fork fails or the helper dies, the walk computes the rest itself.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager, suppress
from itertools import islice, repeat
from typing import Callable, Iterable

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


@contextmanager
def helper(produce: Callable[[], Iterable], run_ahead: bool = False):
    """Fork a helper process that runs ``produce()`` and sends each message
    it yields down a pipe, and give the walk an iterator over them in order.

    The iterator ends after the last message, or where the helper died; it
    is empty if the fork failed.  The helper waits for the walk to read
    when the pipe is full, or, with ``run_ahead``, writes what the pipe
    takes and keeps the rest as pickled bytes, for a walk that reads only
    after work of its own.  However the block ends, the helper is killed
    and waited for.
    """
    import pickle  # imported here, as few runs start a helper

    def receive(pipe):
        try:
            while True:
                yield pickle.load(pipe)
        except (OSError, EOFError, pickle.UnpicklingError):
            pass  # the helper is done, or died

    cpu = _walk_cpu()
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        yield iter(())
        return
    pid = None
    with open(read_fd, "rb") as pipe:
        try:
            try:
                with suppress(OSError):  # no process: the walk does the work itself
                    pid = os.fork()
                if pid == 0:
                    try:
                        pipe.close()
                        _pin_off(cpu)
                        os.set_blocking(write_fd, not run_ahead)
                        pending = bytearray()
                        for message in produce():
                            pending += pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                            with suppress(BlockingIOError):
                                del pending[:os.write(write_fd, pending)]
                        os.set_blocking(write_fd, True)
                        while pending:
                            del pending[:os.write(write_fd, pending)]
                    finally:
                        os._exit(0)
            finally:
                os.close(write_fd)  # in the walk: the helper ends in os._exit
            yield receive(pipe) if pid else iter(())
        finally:
            if pid:  # never 0: the helper ends in os._exit
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def helper_logs(seq, k_max: int, prec: int, rnd: str, first: int):
    """Yield, for k = 1, 2, ..., ln n_k of ``seq`` at (prec, rnd) as a raw
    value from a helper process, or None where the walk is to compute it
    itself: at least at every rank before ``first``."""
    start = max(CHUNK + 1, first)

    def produce():
        terms = seq.iter_terms(k_max, start)
        while chunk := [ln_int_uncached(n, prec, rnd) for n in islice(terms, CHUNK)]:
            yield chunk

    with helper(produce) as chunks:
        yield from repeat(None, start - 1)
        for chunk in chunks:
            yield from chunk
    yield from repeat(None)

"""A faithfulness sweep split between the walk and one forked helper: the
same bytes as a serial sweep, and no helper left running however it ends."""

import contextlib
import io
import json
import os
import signal
import threading
import time

import pytest
from mpmath import mpf

from cantordim import cli, logfeed, make_sequence, sequences
from cantordim.precision import _ln_int_cached, mpf_add, mpf_div, walk_precision, working_dps

K = 300

# Pseudo-random entries with one big term at rank 150, so that the maximum
# of the decade 100..999 lies at rank 150.
TABLE = [2 + (7 * k * k) % 50 for k in range(1, K + 1)]
TABLE[149] = 10**40 + 1

SEQUENCES = {
    "constant(3)": {"kind": "constant", "s": 3},
    "counterexample": {"kind": "counterexample"},
    "geometric(2,3)": {"kind": "geometric", "b1": 2, "q": 3},
    "rational-q": {"kind": "geometric", "b1": 2**K, "q": "3/2"},  # integer terms to rank K + 1
    "table": {"kind": "custom", "table": TABLE},
    "table+geometric": {"kind": "custom", "table": [2, 3, 5, 7, 11, 13],
                        "tail": {"kind": "geometric", "b1": 2, "q": 3}},
}


class Helpers:
    """The helpers forked, and the first rank of each part the walk itself swept."""

    def __init__(self):
        self.pids = []
        self.walk_parts = []

    def assert_all_exited(self):
        # The walk has waited for each helper, so none is left to wait for.
        for pid in self.pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def helpers(monkeypatch):
    """Every sweep of 3 ranks or more splits, at rank round(K * SPLIT_SHARE),
    and its helper sends 7 ranks per message."""
    started = Helpers()
    walk_pid = os.getpid()

    def recording_fork(_fork=os.fork):
        pid = _fork()
        if pid:
            started.pids.append(pid)
        return pid

    def recording_part(ranks, first, *args, _part=sequences._sweep_part):
        if os.getpid() == walk_pid:
            started.walk_parts.append(first)
        return _part(ranks, first, *args)

    monkeypatch.setattr(sequences, "SPLIT_MIN_RANKS", 3)
    monkeypatch.setattr(logfeed, "CHUNK", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sequences, "_single_threaded", lambda: True)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(sequences, "_sweep_part", recording_part)
    yield started
    started.assert_all_exited()


def split_at(monkeypatch, s, k_max=K):
    monkeypatch.setattr(sequences, "SPLIT_SHARE", s / k_max)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    _ln_int_cached.cache_clear()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def serial_run(monkeypatch, argv):
    with monkeypatch.context() as mp:
        mp.setattr(sequences, "SPLIT_MIN_RANKS", 10**9)
        return run(argv)


def faithfulness(spec, k_max=K, *extra):
    return ["faithfulness", "--seq", json.dumps(spec), "--k-max", str(k_max), *extra]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", SEQUENCES)
def test_split_bytes_match_the_serial_sweep(helpers, monkeypatch, name, fmt):
    argv = faithfulness(SEQUENCES[name], K, "--format", fmt)
    split = run(argv)
    assert split[0] == 0 and split[2] == ""
    assert len(helpers.pids) == 1
    assert helpers.walk_parts == [2]  # the walk swept ranks 2..s alone
    assert serial_run(monkeypatch, argv) == split


@pytest.mark.parametrize("name", SEQUENCES)
def test_split_report_matches_the_serial_sweep_bit_for_bit(helpers, monkeypatch, name):
    # The raw sum of r_k**2 and decade maxima, past the digits a report prints.
    seq = make_sequence(SEQUENCES[name])
    split = sequences.faithfulness_diagnostic(seq, K)
    assert len(helpers.pids) == 1 and helpers.walk_parts == [2]
    monkeypatch.setattr(sequences, "SPLIT_MIN_RANKS", 10**9)
    assert sequences.faithfulness_diagnostic(seq, K) == split


@pytest.mark.parametrize("name, s", [
    ("counterexample", 99),  # the helper starts at the spike rank 100
    ("counterexample", 100),  # the walk ends at the spike
    ("counterexample", 101),  # the helper starts just past it
    ("table", 99),
    ("table", 120),  # the maximum of the decade 100..999 lies in the helper's ranks
    ("table", 150),  # ... and here it is the walk's last rank
    ("constant(3)", 2),  # the walk sweeps rank 2 alone
    ("constant(3)", K - 1),  # the helper sweeps rank K alone
])
def test_split_points_keep_the_bytes(helpers, monkeypatch, name, s):
    split_at(monkeypatch, s)
    assert sequences._split_rank(make_sequence(SEQUENCES[name]), K) == s
    argv = faithfulness(SEQUENCES[name])
    split = run(argv)
    assert len(helpers.pids) == 1 and helpers.walk_parts == [2]
    assert serial_run(monkeypatch, argv) == split


def test_equal_decade_maxima_keep_the_walks():
    with working_dps(30):
        prec, rnd = walk_precision()
        one, three = mpf(1)._mpf_, mpf(3)._mpf_
        value = mpf_div(one, three, prec, rnd)
        walks, helpers = (100, value), (100, mpf_div(one, three, prec, rnd))
        assert walks[1] == helpers[1] and walks[1] is not helpers[1]

        def part(maxima, total):
            return [["t"], [], True, maxima, total, 2, 5, 1]

        merged = part([(10, value), walks], value)
        sequences._merge(merged, part([helpers, (1000, value)], [value, value]), prec, rnd)
        assert merged[3] == [(10, value), walks, (1000, value)]
        assert merged[3][1] is walks
        total = mpf_add(mpf_add(value, value, prec, rnd), value, prec, rnd)
        assert merged[:3] + merged[4:] == [["t", "t"], [], True, total, 2, 5, 1]

        greater = (1000, mpf_add(value, value, prec, rnd))
        sequences._merge(merged, part([greater], []), prec, rnd)
        assert merged[3][-1] == greater  # a strictly greater later maximum of the same decade wins


def test_a_term_error_past_the_split_comes_from_the_walk(helpers, monkeypatch):
    # term(602) = 2**600 * (3/2)**601 is the first term that is not an integer.
    argv = faithfulness({"kind": "geometric", "b1": 2**600, "q": "3/2"}, 1100)
    split_at(monkeypatch, 550, 1100)
    code, out, err = run(argv)
    assert (code, out) == (1, "") and err.startswith("error: term(602) = ") and err.endswith(" is not an integer\n")
    assert len(helpers.pids) == 1
    assert helpers.walk_parts[0] == 2 and len(helpers.walk_parts) > 1  # the walk swept past s itself
    assert serial_run(monkeypatch, argv) == (code, out, err)


def stop_walk_at(monkeypatch, rank, action):
    """Run ``action()`` in the walk (not the helper) the first time its rank
    walk reaches ``rank``."""
    walk_pid, pending = os.getpid(), [action]

    def rank_logs(seq, k_max, _rank_logs=sequences.rank_logs):
        for item in _rank_logs(seq, k_max):
            if item[0] == rank and os.getpid() == walk_pid and pending:
                pending.pop()()
            yield item

    monkeypatch.setattr(sequences, "rank_logs", rank_logs)


def test_a_killed_helper_leaves_the_bytes_unchanged(helpers, monkeypatch):
    # The helper sends one message and then hangs, until the walk kills it.
    walk_pid = os.getpid()

    def later_parts(*args, _later=sequences._later_parts):
        for i, part in enumerate(_later(*args)):
            if i == 1 and os.getpid() != walk_pid:
                time.sleep(60)
            yield part

    monkeypatch.setattr(sequences, "_later_parts", later_parts)
    stop_walk_at(monkeypatch, 100, lambda: os.kill(helpers.pids[0], signal.SIGKILL))
    argv = faithfulness(SEQUENCES["counterexample"])
    killed = run(argv)
    assert len(helpers.pids) == 1
    assert helpers.walk_parts[0] == 2 and len(helpers.walk_parts) > 1
    assert serial_run(monkeypatch, argv) == killed


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_helper_that_cannot_start_leaves_the_bytes_unchanged(helpers, monkeypatch, call):
    def refused():
        raise OSError(f"no {call}")

    monkeypatch.setattr(os, call, refused)
    argv = faithfulness(SEQUENCES["counterexample"])
    alone = run(argv)
    assert helpers.walk_parts[0] == 2 and len(helpers.walk_parts) > 1
    assert serial_run(monkeypatch, argv) == alone


def test_keyboard_interrupt_in_the_walk_reaps_the_helper(helpers, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    stop_walk_at(monkeypatch, 40, interrupt)
    with pytest.raises(KeyboardInterrupt):
        sequences.faithfulness_diagnostic(make_sequence(SEQUENCES["counterexample"]), K)
    assert len(helpers.pids) == 1
    helpers.assert_all_exited()


MIN = sequences.SPLIT_MIN_RANKS
SPLIT = round(MIN * sequences.SPLIT_SHARE)
ARITHMETIC = {"kind": "arithmetic", "a1": 2, "d": 1}


@pytest.mark.parametrize("spec, k_max, cpus, split", [
    (SEQUENCES["counterexample"], MIN, {0, 1}, SPLIT),
    (SEQUENCES["counterexample"], MIN - 1, {0, 1}, None),
    (SEQUENCES["counterexample"], MIN, {0}, None),  # one CPU
    (SEQUENCES["constant(3)"], MIN, {0, 1}, SPLIT),
    (SEQUENCES["geometric(2,3)"], MIN, {0, 1}, SPLIT),
    (SEQUENCES["table+geometric"], MIN, {0, 1}, SPLIT),
    ({"kind": "custom", "table": [2] * MIN}, MIN, {0, 1}, SPLIT),
    (ARITHMETIC, logfeed.HELPER_MIN_RANKS, {0, 1}, None),  # the log helper's walk
    (ARITHMETIC, logfeed.HELPER_MIN_RANKS - 1, {0, 1}, round((logfeed.HELPER_MIN_RANKS - 1) * sequences.SPLIT_SHARE)),
    ({"kind": "custom", "table": [2, 3], "tail": ARITHMETIC}, 10**5, {0, 1}, None),
])
def test_which_sweeps_split(monkeypatch, spec, k_max, cpus, split):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(sequences, "_single_threaded", lambda: True)
    assert sequences._split_rank(make_sequence(spec), k_max) == split


def test_no_split_beside_a_second_thread(monkeypatch):
    # A fork copies a lock that another thread holds, and the child may then
    # wait on it for ever.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seq = make_sequence(SEQUENCES["counterexample"])
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        assert sequences._split_rank(seq, MIN) is None
    finally:
        parked.set()
        thread.join()

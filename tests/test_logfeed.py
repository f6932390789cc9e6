"""Term logs from a helper process: the same bits as the walk's own, and no
helper left running however the walk ends."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import cantordim
from cantordim import SymbolModel, cli, dim_measure_series, logfeed, make_row_rule, make_sequence, sequences
from cantordim.measure import ModelError
from cantordim.precision import _ln_int_cached, working_dps
from cantordim.sequences import SequenceError, rank_logs

K = 300

_SCHED_GETAFFINITY = getattr(os, "sched_getaffinity", None)

SEQUENCES = {
    "arithmetic(2,1)": {"kind": "arithmetic", "a1": 2, "d": 1},
    "arithmetic(3,2)": {"kind": "arithmetic", "a1": 3, "d": 2},
    "table+arithmetic": {"kind": "custom", "table": [2, 3, 5, 7, 11, 13],
                         "tail": {"kind": "arithmetic", "a1": 3, "d": 2}},
    "rational-d": {"kind": "arithmetic", "a1": 2, "d": "3/2"},  # term(2) = 7/2 raises
}


class Helpers:
    """The helpers forked, and how many logs the walks took from them."""

    def __init__(self):
        self.pids = []
        self.fed = 0

    def assert_all_exited(self):
        # The walk has waited for each helper, so none is left to wait for.
        for pid in self.pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def helpers(monkeypatch):
    """Every walk gets a helper, which takes over at rank CHUNK + 1, and
    leaves the walk's CPU mask as it found it."""
    started = Helpers()
    mask = _SCHED_GETAFFINITY and _SCHED_GETAFFINITY(0)

    def recording_fork(_fork=os.fork):
        pid = _fork()
        if pid:
            started.pids.append(pid)
        return pid

    def counting_logs(*args, _logs=logfeed.helper_logs):
        logs = _logs(*args)
        try:
            for log in logs:
                started.fed += log is not None
                yield log
        finally:
            logs.close()

    monkeypatch.setattr(logfeed, "HELPER_MIN_RANKS", 1)
    monkeypatch.setattr(logfeed, "CHUNK", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sequences, "_single_threaded", lambda: True)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(logfeed, "helper_logs", counting_logs)
    yield started
    started.assert_all_exited()
    assert (_SCHED_GETAFFINITY and _SCHED_GETAFFINITY(0)) == mask  # the walk's own mask is never touched


def walk(spec, k_max=K, stop=None):
    """The raw walk at 30 digits from a cold ln_int cache, then the error it
    ends in; ``stop(k)`` runs at each rank."""
    _ln_int_cached.cache_clear()
    out = []
    try:
        with working_dps(30):
            for item in rank_logs(make_sequence(spec), k_max):
                out.append(item)
                if stop is not None:
                    stop(item[0])
    except SequenceError as exc:
        out.append(str(exc))
    return out


@pytest.fixture(scope="module")
def serial():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logfeed, "HELPER_MIN_RANKS", K + 1)
        return {name: walk(spec) for name, spec in SEQUENCES.items()}


@pytest.mark.parametrize("name", SEQUENCES)
def test_full_walk_matches_the_serial_walk(helpers, serial, name):
    assert walk(SEQUENCES[name]) == serial[name]
    assert len(helpers.pids) == 1
    assert helpers.fed == (0 if name == "rational-d" else K - logfeed.CHUNK)


@pytest.mark.parametrize("name", SEQUENCES)
def test_cli_bytes_match_the_serial_run(helpers, monkeypatch, name):
    argv = ["faithfulness", "--seq", json.dumps(SEQUENCES[name]), "--k-max", str(K), "--precision", "20"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        _ln_int_cached.cache_clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    fed = run()
    assert len(helpers.pids) == 1 and helpers.fed == (0 if name == "rational-d" else K - logfeed.CHUNK)
    monkeypatch.setattr(logfeed, "HELPER_MIN_RANKS", K + 1)
    assert run() == fed
    assert len(helpers.pids) == 1


def test_a_helper_walk_keeps_its_logs_out_of_the_cache(helpers, monkeypatch):
    # Each log the helper sends is held for its rank in remember_ln_int,
    # where the uniform row's entropy reads it again: only the CHUNK ranks
    # the walk computes itself enter the cache, and each hits there once.
    model = SymbolModel(make_sequence(SEQUENCES["arithmetic(2,1)"]), make_row_rule("uniform"), K)

    def run():
        _ln_int_cached.cache_clear()
        try:
            return dim_measure_series(model, K, 30), _ln_int_cached.cache_info()
        finally:
            _ln_int_cached.cache_clear()

    fed, info = run()
    assert len(helpers.pids) == 1 and helpers.fed == K - logfeed.CHUNK
    assert (info.misses, info.hits, info.currsize) == (logfeed.CHUNK, logfeed.CHUNK, logfeed.CHUNK)
    monkeypatch.setattr(logfeed, "HELPER_MIN_RANKS", K + 1)
    serial, info = run()
    assert (info.misses, info.hits, info.currsize) == (K, K, K)
    assert fed.texts == serial.texts and fed.precondition_partial._mpf_ == serial.precondition_partial._mpf_


def test_break_reaps_the_helper(helpers, serial):
    got = []
    with working_dps(30):
        for item in rank_logs(make_sequence(SEQUENCES["arithmetic(2,1)"]), K):
            got.append(item)
            if item[0] == 50:
                break
    assert got == serial["arithmetic(2,1)"][:50]
    helpers.assert_all_exited()


def test_depth_cap_error_mid_walk_reaps_the_helper(helpers):
    model = SymbolModel(make_sequence(SEQUENCES["arithmetic(2,1)"]), make_row_rule("example1"), depth_cap=50)
    got = []
    with working_dps(30), pytest.raises(ModelError, match="rank 51 outside"):
        for k, log_n, _, _, _ in model.walk(K):
            got.append((k, log_n))
    helpers.assert_all_exited()
    assert len(got) == 50 and helpers.fed == 51 - logfeed.CHUNK  # rank 51 takes its log first


def test_keyboard_interrupt_reaps_the_helper(helpers):
    def interrupt(k):
        if k == 40:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        walk(SEQUENCES["arithmetic(3,2)"], stop=interrupt)
    helpers.assert_all_exited()


def test_a_killed_helper_leaves_the_walk_unchanged(helpers, monkeypatch):
    # Long enough that the helper's logs overfill the pipe: when it dies,
    # the walk reads what the pipe holds and computes the rest.
    spec, k_max = SEQUENCES["table+arithmetic"], 20_000

    def kill(k):
        if k == 40:
            os.kill(helpers.pids[0], signal.SIGKILL)

    fed = walk(spec, k_max, stop=kill)
    assert 40 - logfeed.CHUNK <= helpers.fed < k_max - logfeed.CHUNK
    monkeypatch.setattr(logfeed, "HELPER_MIN_RANKS", k_max + 1)
    assert fed == walk(spec, k_max)


def _cpus_allowed(pid):
    """The CPUs process ``pid`` may run on, from its Cpus_allowed_list."""
    with open(f"/proc/{pid}/status") as status:
        line = next(line for line in status if line.startswith("Cpus_allowed_list:"))
    cpus = set()
    for part in line.partition(":")[2].strip().split(","):
        lo, _, hi = part.partition("-")
        cpus.update(range(int(lo), int(hi or lo) + 1))
    return cpus


def test_the_helper_runs_off_the_walks_cpu(helpers, monkeypatch):
    # The real mask this time, which the helper narrows and the walk keeps.
    monkeypatch.setattr(os, "sched_getaffinity", _SCHED_GETAFFINITY, raising=False)
    cpus = os.sched_getaffinity(0) if _SCHED_GETAFFINITY else set()
    if len(cpus) < 2:
        pytest.skip("fewer than 2 CPUs: the helper has nowhere else to run")
    read, allowed = [], []

    def recording_walk_cpu(_read=logfeed._walk_cpu):
        read.append(_read())
        return read[-1]

    def look(k):
        if k == 40:  # past the helper's first chunk, so past its pin
            allowed.append(_cpus_allowed(helpers.pids[0]))

    monkeypatch.setattr(logfeed, "_walk_cpu", recording_walk_cpu)
    # Long enough that the helper is still writing when the walk looks.
    spec, k_max = SEQUENCES["arithmetic(2,1)"], 20_000
    fed = walk(spec, k_max, stop=look)
    assert os.sched_getaffinity(0) == cpus
    assert len(read) == 1 and read[0] in cpus
    assert allowed == [cpus - {read[0]}]
    assert helpers.fed == k_max - logfeed.CHUNK
    monkeypatch.setattr(logfeed, "HELPER_MIN_RANKS", k_max + 1)
    assert fed == walk(spec, k_max)


def test_a_helper_that_cannot_be_pinned_runs_unpinned(helpers, serial, monkeypatch):
    def no_pin(pid, cpus):
        raise OSError("no pin")

    monkeypatch.setattr(os, "sched_setaffinity", no_pin, raising=False)
    assert walk(SEQUENCES["arithmetic(2,1)"]) == serial["arithmetic(2,1)"]
    assert len(helpers.pids) == 1 and helpers.fed == K - logfeed.CHUNK


@pytest.mark.parametrize("stat", [
    None,  # cannot be opened
    b"4242 (python3) R 1",  # cut short
    b"4242 (a) b) " + b"? " * 40,  # not a number
])
def test_no_pin_without_the_walks_cpu(helpers, serial, monkeypatch, stat):
    def stat_open(file, *args, _open=open, **kwargs):
        if file != "/proc/self/stat":
            return _open(file, *args, **kwargs)
        if stat is None:
            raise PermissionError(file)
        return io.BytesIO(stat)

    def no_pin(pid, cpus):
        # Raised in the helper, this ends it before its first log.
        raise AssertionError("pin attempted")

    monkeypatch.setattr(logfeed, "open", stat_open, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", no_pin, raising=False)
    assert logfeed._walk_cpu() is None
    assert walk(SEQUENCES["arithmetic(2,1)"]) == serial["arithmetic(2,1)"]
    assert len(helpers.pids) == 1 and helpers.fed == K - logfeed.CHUNK


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_helper_that_cannot_start_leaves_the_walk_unchanged(helpers, serial, monkeypatch, call):
    def refused():
        raise OSError(f"no {call}")

    monkeypatch.setattr(os, call, refused)
    assert walk(SEQUENCES["arithmetic(2,1)"]) == serial["arithmetic(2,1)"]
    assert helpers.fed == 0


MIN = logfeed.HELPER_MIN_RANKS


@pytest.mark.parametrize("spec, k_max, cpus, first", [
    (SEQUENCES["arithmetic(2,1)"], MIN, {0, 1}, 1),
    (SEQUENCES["arithmetic(2,1)"], MIN - 1, {0, 1}, None),
    (SEQUENCES["arithmetic(2,1)"], MIN, {0}, None),
    (SEQUENCES["table+arithmetic"], 6 + MIN, {0, 1}, 7),
    (SEQUENCES["table+arithmetic"], 6 + MIN - 1, {0, 1}, None),  # MIN - 1 ranks of tail
    ({"kind": "custom", "table": [2] * 20_000}, 20_000, {0, 1}, None),  # repeated entries, cached
    ({"kind": "custom", "table": [2] * 20_000, "tail": SEQUENCES["arithmetic(2,1)"]}, 40_000, {0, 1}, 20_001),
    ({"kind": "custom", "table": [2, 3], "tail": {"kind": "custom", "table": [2] * 9, "tail": SEQUENCES["arithmetic(2,1)"]}},
     20_009, {0, 1}, 10),
    ({"kind": "custom", "table": [2], "tail": {"kind": "geometric", "b1": 2, "q": 2}}, 20_000, {0, 1}, None),
    ({"kind": "counterexample"}, 10**5, {0, 1}, None),  # closed-form logs
    ({"kind": "constant", "s": 3}, 10**5, {0, 1}, None),  # one log, cached
])
def test_which_walks_get_a_helper(monkeypatch, spec, k_max, cpus, first):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert sequences._helper_start(make_sequence(spec), k_max) == first


def test_a_table_stays_in_the_walk(helpers, monkeypatch):
    # The helper computes from the tail's first rank, which lies past the
    # CHUNK ranks the walk always computes itself.
    table = [2, 3] * 20
    spec = {"kind": "custom", "table": table, "tail": SEQUENCES["arithmetic(3,2)"]}
    fed = walk(spec)
    assert helpers.fed == K - len(table)
    monkeypatch.setattr(logfeed, "HELPER_MIN_RANKS", K + 1)
    assert fed == walk(spec)


def test_the_helper_ignores_modules_in_the_working_directory(helpers, serial, tmp_path, monkeypatch):
    # Each decoy would kill a helper that imported afresh, and the walk
    # would then compute every log itself.
    (tmp_path / "cantordim").mkdir()
    (tmp_path / "cantordim" / "__init__.py").write_text("raise SystemExit(3)\n")
    (tmp_path / "pickle.py").write_text("raise SystemExit(4)\n")
    monkeypatch.chdir(tmp_path)
    assert walk(SEQUENCES["arithmetic(2,1)"]) == serial["arithmetic(2,1)"]
    assert len(helpers.pids) == 1 and helpers.fed == K - logfeed.CHUNK


def test_which_walks_get_a_helper_beside_a_second_thread(monkeypatch):
    # A fork copies a lock that another thread holds, and the child may then
    # wait on it for ever.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seq = make_sequence(SEQUENCES["arithmetic(2,1)"])
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        assert sequences._helper_start(seq, 20_000) is None
    finally:
        parked.set()
        thread.join()
    # join() returns once the thread's Python state is gone; its OS thread
    # may linger a moment longer.
    deadline = time.monotonic() + 10
    while sequences._helper_start(seq, 20_000) is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sequences._helper_start(seq, 20_000) == 1


# Block-buffered stdout holds a line when the walk forks its helper; the
# walk waits (without reaping it) until the helper has ended by itself.
_EXIT_SCRIPT = """
import atexit, json, os, sys
from cantordim import logfeed, make_sequence
from cantordim.precision import working_dps
from cantordim.sequences import SequenceError, rank_logs

logfeed.HELPER_MIN_RANKS, logfeed.CHUNK = 1, 7
os.sched_getaffinity = lambda pid: {0, 1}
pids = []
_fork = os.fork
def fork():
    pids.append(_fork())
    return pids[-1]
os.fork = fork
atexit.register(print, "atexit")
print("unflushed")
out = []
try:
    with working_dps(30):
        for item in rank_logs(make_sequence(json.loads(sys.argv[1])), int(sys.argv[2])):
            if item[0] == 1:
                ended = os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
            out.append(item)
except SequenceError as exc:
    out.append(str(exc))
try:
    os.waitpid(pids[0], os.WNOHANG)
except ChildProcessError:
    print("reaped")
print(len(pids), ended.si_code == os.CLD_EXITED, ended.si_status)
print(repr(out))
"""


@pytest.mark.parametrize("name", ["arithmetic(2,1)", "rational-d"])  # rational-d: the helper's terms raise
def test_the_helper_exits_without_touching_the_callers_state(serial, name):
    path = os.path.dirname(os.path.dirname(os.path.abspath(cantordim.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (path, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run(
        [sys.executable, "-c", _EXIT_SCRIPT, json.dumps(SEQUENCES[name]), str(K)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stderr == ""
    assert done.stdout == f"unflushed\nreaped\n1 True 0\n{serial[name]!r}\natexit\n"

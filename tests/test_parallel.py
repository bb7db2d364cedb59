import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import trustrec
from trustrec import evaluation, parallel
from trustrec.cli import ConfigError, NumericError, main
from trustrec.data import DataFormatError
from trustrec.synth import toy_bundle, write_bundle

CONFIG = """\
paths.ratings = {ratings}
paths.trust = {trust}
paths.work = {work}
autoencoder.hidden_sizes = 6,4,6
autoencoder.batch_size = 4
autoencoder.epochs = 3
walks.dimensions = 4
walks.num_walks = 2
walks.walk_length = 10
walks.window = 2
walks.epochs = 1
model.k = 4
model.learning_rate = 0.02
model.epochs = 3
"""


def children(pid):
    """Child processes of ``pid``, running or not yet reaped, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state_and_ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except OSError:  # the process ended while we looked
            continue
        if int(state_and_ppid[1]) == pid:
            found.append(int(entry))
    return found


def running(pid):
    """Whether ``pid`` still runs: not ended, and not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


TEST_PROCESS = os.getpid()


def die_in_worker(*args):
    """End a forked worker at once, sending no result; in this process, raise instead."""
    if os.getpid() == TEST_PROCESS:
        raise AssertionError("the worker ran in the test process")
    os._exit(1)


@contextlib.contextmanager
def second_thread():
    """A live second thread for the duration, which keeps ``parallel.both`` in one process."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def two_cpus(monkeypatch):
    """The fork path, whatever CPUs this machine gives the tests."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def pipeline(tmp_path):
    ratings, trust = tmp_path / "ratings.txt", tmp_path / "trust.txt"
    write_bundle(toy_bundle(0), ratings, trust)

    def config_path(**overrides):
        path = tmp_path / "config.txt"
        text = CONFIG.format(ratings=ratings, trust=trust, work=tmp_path / "work")
        path.write_text(text + "".join(f"{key} = {value}\n" for key, value in overrides.items()))
        return str(path)

    return config_path


class TestBoth:
    def test_worker_runs_in_a_forked_child(self, two_cpus):
        assert threading.active_count() == 1
        theirs, mine = parallel.both(os.getpid, os.getpid)
        assert mine == os.getpid()
        assert theirs != os.getpid()
        assert children(os.getpid()) == []

    def test_worker_inherits_no_descriptor(self, two_cpus, tmp_path):
        def is_open(fd):
            try:
                os.fstat(fd)
            except OSError:
                return False
            return True

        with open(tmp_path / "held.txt", "w") as held:
            assert parallel.both(lambda: is_open(held.fileno()), lambda: is_open(held.fileno())) == (False, True)

    def test_second_thread_keeps_both_calls_here(self, two_cpus):
        with second_thread():
            assert parallel.both(os.getpid, os.getpid) == (os.getpid(), os.getpid())

    def test_one_cpu_keeps_both_calls_here(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert parallel.both(os.getpid, os.getpid) == (os.getpid(), os.getpid())

    def test_worker_exception_is_raised_after_here_returns(self, two_cpus):
        done = []

        def fail():
            raise DataFormatError("ratings.txt", 7, f"raised in process {os.getpid()}")

        with pytest.raises(DataFormatError) as caught:
            parallel.both(fail, lambda: done.append(1))
        assert done == [1]
        assert caught.value.path == "ratings.txt" and caught.value.line_no == 7
        assert f"process {os.getpid()}" not in str(caught.value)
        assert children(os.getpid()) == []

    def test_unpicklable_exception_arrives_as_runtime_error(self, two_cpus):
        class Local(Exception):
            pass

        def fail():
            raise Local("not importable by name")

        with pytest.raises(RuntimeError, match="Local: not importable by name"):
            parallel.both(fail, lambda: None)

    def test_worker_ending_without_a_result_raises_child_process_error(self, two_cpus):
        with pytest.raises(ChildProcessError, match="ended without a result"):
            parallel.both(die_in_worker, lambda: None)
        assert children(os.getpid()) == []

    def test_failing_here_kills_and_reaps_the_worker(self, two_cpus):
        def fail():
            raise ValueError("here failed")

        started = time.monotonic()
        with pytest.raises(ValueError, match="here failed"):
            parallel.both(lambda: time.sleep(60), fail)
        assert time.monotonic() - started < 30
        assert children(os.getpid()) == []


class TestCommandLine:
    def test_no_child_outlives_a_command(self, pipeline, two_cpus, capsys):
        config = pipeline()
        for command in (("prepare",), ("train",), ("evaluate", "--ablate")):
            assert main(["--config", config, *command]) == 0
            assert children(os.getpid()) == []

    @pytest.mark.parametrize(
        "error, code",
        [
            (ConfigError("unusable codes"), 2),
            (NumericError("non-finite codes"), 3),
            (DataFormatError("codes.txt", 4, "bad record"), 2),
        ],
        ids=["config", "numeric", "data-format"],
    )
    def test_worker_errors_exit_as_in_one_process(self, pipeline, two_cpus, monkeypatch, capsys, tmp_path, error, code):
        config = pipeline()
        assert main(["--config", config, "prepare"]) == 0
        capsys.readouterr()
        pids = tmp_path / "pids.txt"

        def fail(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise error

        monkeypatch.setattr(evaluation, "autoencoder_inits", fail)
        assert main(["--config", config, "train"]) == code
        forked = capsys.readouterr().err
        assert children(os.getpid()) == []
        with second_thread():
            assert main(["--config", config, "train"]) == code
        assert capsys.readouterr().err == forked
        assert str(error) in forked
        worker_pid, here_pid = map(int, pids.read_text().split())
        assert worker_pid != os.getpid() and here_pid == os.getpid()

    def test_dead_worker_exits_2(self, pipeline, two_cpus, monkeypatch, capsys):
        config = pipeline()
        assert main(["--config", config, "prepare"]) == 0
        monkeypatch.setattr(evaluation, "autoencoder_inits", die_in_worker)
        assert main(["--config", config, "train"]) == 2
        assert "worker process ended without a result" in capsys.readouterr().err
        assert children(os.getpid()) == []
        assert main(["--config", config, "prepare"]) == 0  # exit 2 if the lock were held

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the CLI forks only with two CPUs")
    def test_killed_train_leaves_the_lock_free(self, pipeline):
        # enough autoencoder epochs that the worker is still busy when its parent dies
        config = pipeline(**{"autoencoder.epochs": "100000"})
        assert main(["--config", config, "prepare"]) == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trustrec.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "trustrec.cli", "--config", config, "train"],
            env=env, stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while not workers and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = children(proc.pid)
            assert workers, "train started no worker"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5
            while running(workers[0]) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not running(workers[0]), "the worker outlived its killed parent by 5 s"
            assert main(["--config", config, "prepare"]) == 0  # exit 2 if the lock were held
        finally:
            proc.kill()
            proc.wait()
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

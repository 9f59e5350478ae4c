"""Tests for the forked split of a batch into the caller's half and a child's half."""

import os
import signal

import pytest

from fringelab._split import fork_join

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")


@pytest.fixture
def forked(monkeypatch):
    """The pids fork_join forks, in order."""
    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    return pids


def reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@needs_fork
def test_each_half_runs_in_its_own_process(forked):
    assert fork_join(os.getpid, os.getpid) == (os.getpid(), forked[0])
    assert reaped(forked[0])


@needs_fork
def test_a_large_reply_crosses_the_pipe(forked):
    # far more than a pipe holds: the child blocks on its write until the caller reads
    assert fork_join(lambda: 1, lambda: bytes(range(256)) * 4096) == (1, bytes(range(256)) * 4096)
    assert reaped(forked[0])


@needs_fork
def test_a_worker_exception_is_raised_with_its_type_and_traceback(forked):
    def worker():
        raise ZeroDivisionError("in the upper half")

    with pytest.raises(ZeroDivisionError, match="in the upper half") as info:
        fork_join(lambda: None, worker)
    assert isinstance(info.value.__cause__, ChildProcessError)
    assert "in worker" in str(info.value.__cause__)  # the child's frame
    assert reaped(forked[0])


def raise_a_local_exception():
    class Local(Exception):
        pass

    raise Local("cannot be pickled")


@needs_fork
@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(5), 5),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    (raise_a_local_exception, 1),
], ids=["exit", "killed", "unpicklable-exception"])
def test_a_child_that_ends_without_a_reply_is_a_clear_error(forked, end, status):
    with pytest.raises(ChildProcessError, match=rf"exited with status {status} before its reply"):
        fork_join(lambda: None, end)
    assert reaped(forked[0])


@needs_fork
def test_the_caller_reaps_the_child_when_its_own_half_raises(forked, tmp_path):
    def worker():
        (tmp_path / "done").write_text("upper")
        return 2

    def caller():
        raise ValueError("in the lower half")

    with pytest.raises(ValueError, match="in the lower half"):
        fork_join(caller, worker)
    assert reaped(forked[0])
    assert (tmp_path / "done").read_text() == "upper"  # the child ran to its end


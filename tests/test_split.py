"""Tests for the forked split of a batch into the caller's half and a child's half."""

import contextlib
import os
import re
import signal
import sys
import warnings
from pathlib import Path

import pytest

import fringelab
from fringelab._split import SERIAL_ITEMS, fork_join, split

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
needs_split = pytest.mark.skipif(len(split(list, SERIAL_ITEMS + 1)) != 2,
                                 reason="split forks only with os.fork and 2 CPUs")


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



@needs_split
def test_a_batch_past_the_threshold_is_split_at_its_half(forked):
    assert split(list, SERIAL_ITEMS + 1) == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]
    assert len(forked) == 1 and reaped(forked[0])
    assert split(list, SERIAL_ITEMS) == [list(range(SERIAL_ITEMS))]
    assert len(forked) == 1


def one_line_warning(text):
    warnings.warn(text, RuntimeWarning)  # every call warns from this line


@contextlib.contextmanager
def filtered(monkeypatch, action):
    """Warnings under action with every registry cleared, each shown as one stderr line."""
    with warnings.catch_warnings():
        warnings.simplefilter(action)  # a new filter version clears every registry
        monkeypatch.setattr(warnings, "showwarning", lambda message, category, *where: print(
            f"{category.__name__}: {message}", file=sys.stderr))
        yield


@needs_split
def test_the_childs_stderr_and_warnings_come_back_in_order(forked, monkeypatch, capsys):
    def work(part):
        for i in part:
            print(f"item {i}", file=sys.stderr)
            one_line_warning(f"warning {i}")
        return list(part)

    with filtered(monkeypatch, "default"):
        assert split(work, 10) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert len(forked) == 1
    assert capsys.readouterr().err.splitlines() == [
        line for i in range(10) for line in (f"item {i}", f"RuntimeWarning: warning {i}")]


@needs_split
def test_a_warning_the_caller_showed_at_its_line_is_not_shown_again(forked, monkeypatch,
                                                                     capsys):
    def work(part):
        for i in part:
            one_line_warning("overflow" if i in (0, 6, 9) else f"item {i}")

    printed = []
    for path in ("forked", "serial"):
        if path == "serial":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with filtered(monkeypatch, "default"):
            split(work, 10)
        printed.append(capsys.readouterr().err.splitlines())
    assert len(forked) == 1
    # the child shows "overflow" at items 6 and 9; the caller showed it at item 0
    texts = ["overflow", *(f"item {i}" for i in (1, 2, 3, 4, 5, 7, 8))]
    assert printed[0] == printed[1] == [f"RuntimeWarning: {text}" for text in texts]


@needs_split
def test_a_childs_warning_under_an_error_filter_is_raised_in_the_caller(forked, monkeypatch,
                                                                        capsys):
    def work(part):
        for i in part:
            print(f"item {i}", file=sys.stderr)
            if i == 7:
                one_line_warning("in the upper half")

    with filtered(monkeypatch, "error"), pytest.raises(RuntimeWarning, match="upper half"):
        split(work, 10)
    assert len(forked) == 1 and reaped(forked[0])
    # as the serial loop, which stops at item 7
    assert capsys.readouterr().err.splitlines() == [f"item {i}" for i in range(8)]


def test_only_the_split_module_forks_or_swaps_stderr():
    # the policy of splitting a batch, and what a child does with its output, lives in _split
    policy = re.compile(r"os\.fork|fork_join|sched_getaffinity|sys\.stderr\s*=(?!=)")
    source = Path(fringelab.__file__).parent
    found = {path.name: policy.findall(path.read_text(encoding="utf-8"))
             for path in sorted(source.glob("*.py")) if path.name != "_split.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}

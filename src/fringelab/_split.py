"""A batch split in two: the caller runs one half while one forked child runs the other.

fork_join(caller, worker) returns (caller(), worker()), with worker() run in a child forked from
this process. The child pickles (True, its result) or (False, the exception it raised) to a pipe
and leaves with os._exit, so it runs no exit handler and flushes no inherited buffer. The caller
reads the pipe to EOF and reaps the child even when its own half raises. A worker exception is
raised again in the caller with its own type, from the child's traceback as text; a child that
ends without a complete reply raises ChildProcessError. forks(n_items, threshold) is the rule
for forking at all: more than threshold items, os.fork, and at least 2 usable CPUs.
"""

from __future__ import annotations

import os
import pickle


def forks(n_items: int, threshold: int) -> bool:
    """Whether n_items are worth a forked child for half of them."""
    return (n_items > threshold and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def fork_join(caller, worker) -> tuple:
    """(caller(), worker()), worker() running in a forked child while the caller runs caller()."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1  # a reply that cannot be pickled or written is the caller's clear error
        try:
            os.close(read_end)
            try:
                reply = pickle.dumps((True, worker()))
            except BaseException as exc:
                import traceback  # only a child whose worker raised pays for it

                reply = pickle.dumps((False, (exc, "".join(traceback.format_exception(exc)))))
            with open(write_end, "wb") as pipe:
                pipe.write(reply)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        mine = caller()
    finally:
        try:
            with open(read_end, "rb") as pipe:
                reply = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildProcessError(f"the forked worker (pid {pid}) exited with status {code} "
                                "before its reply was complete")
    ok, theirs = pickle.loads(reply)
    if not ok:
        exc, text = theirs
        raise exc from ChildProcessError(f"in the forked worker:\n{text}")
    return mine, theirs

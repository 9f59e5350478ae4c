"""A batch split in two: the caller runs one half while one forked child runs the other.

split(work, n_items) returns [work(range(n_items))], or, past SERIAL_ITEMS items with os.fork
and at least 2 usable CPUs, [work(lower half), work(upper half)] with the upper half run in a
forked child; joined in order, the parts are the serial loop's results. The child shows every
warning (the "always" filter) and records it with what it writes to sys.stderr, in order.
After its own half the caller writes that text and raises those warnings again with
warnings.warn_explicit, through its own filters and the __warningregistry__ of the module that
raised them. So the caller's filters alone decide, and a forked batch prints, records,
deduplicates and turns into errors the warnings the serial loop does.

fork_join(caller, worker) returns (caller(), worker()), with worker() run in a child forked from
this process. The child pickles (True, its result) or (False, the exception it raised) to a pipe
and leaves with os._exit, so it runs no exit handler and flushes no inherited buffer. The caller
reads the pipe to EOF and reaps the child even when its own half raises. A worker exception is
raised again in the caller with its own type, from the child's traceback as text; a child that
ends without a complete reply raises ChildProcessError.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings

SERIAL_ITEMS = 8  # a batch of at most this many items is not worth a child


def split(work, n_items: int) -> list:
    """work over range(n_items) in one part, or in two with the upper half forked."""
    if not (n_items > SERIAL_ITEMS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return [work(range(n_items))]
    half = n_items // 2
    lower, (upper, shown) = fork_join(lambda: work(range(half)),
                                      lambda: _forked(work, range(half, n_items)))
    for event in shown:
        if isinstance(event, str):
            sys.stderr.write(event)
            continue
        message, filename, lineno, module = event
        scope = vars(sys.modules[module]) if module in sys.modules else {}
        registry = scope.setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, type(message), filename, lineno, module, registry, scope)
    return [lower, upper]


class _Shown(list):
    """What a forked half writes to sys.stderr, as text, and each warning it shows, as
    (warning, filename, lineno, module name), in order."""

    def write(self, text: str) -> int:
        self.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def showwarning(self, message, category, filename, lineno, file=None, line=None) -> None:
        frame = sys._getframe(1)  # up to the frame that raised it, whose module warn would name
        while frame and (frame.f_code.co_filename, frame.f_lineno) != (filename, lineno):
            frame = frame.f_back
        module = frame.f_globals.get("__name__", "<string>") if frame else None
        self.append((message, filename, lineno, module))


def _forked(work, part) -> tuple:
    """(work(part), what it wrote to stderr and every warning it raised), in the child."""
    shown = sys.stderr = _Shown()
    warnings.showwarning = shown.showwarning
    warnings.simplefilter("always")  # the caller filters them on replay
    return work(part), list(shown)


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

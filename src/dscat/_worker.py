"""One function called on two shares at once, one in a persistent worker
process and one in the caller.

pair("package.module.function", there, here) returns (function(*there),
function(*here)), exactly as the two calls made one after the other, there
first, would.  The worker, forked on
first use and kept for later calls, makes the call on there while the caller
makes the call on here.  Each side looks the function up by name in its own
copy of the package, so a wrapper installed in its place (by a tracer, say)
is used on both sides, even one that cannot be pickled.  The messages on the
pipes are plain pickles, which keep every bit of a float, a complex or a
numpy array, so the results are those of a serial run; a message cut short
by a dying process reads as the end of the pipe.

Give the worker the shorter share.  The caller then never waits for the
worker unless it is slowed by more than the ratio of the two calls' lengths,
and it does not sleep between sending a request and reading the reply, which
would add two process wake-ups to every pair.

The two calls run serially in the caller, there first, unless the process
sees a second CPU and can fork.  They also run serially inside the worker, in
any child forked from the process that imported this module, while the
worker is in use (by another thread, or by the pair whose call on here made
this one), and for good once the worker has died or was discarded.

Errors follow the serial order: when both calls fail, the worker's error
wins.  It is raised in the caller with its own type and message; one that
does not survive pickling is raised by making the call on there again in the
caller.  The caller collects the reply before it returns or raises, so no
later call can read a stale one.  An interrupt (a BaseException that is not an
Exception, such as KeyboardInterrupt) between sending the request and reading
the reply kills the worker.  The worker ignores SIGINT, and it exits when the
caller's end of its pipe closes: on shutdown(), at interpreter exit, or when
the owner dies.
"""

from __future__ import annotations

import atexit
import importlib
import os
import pickle
import threading

# signal is imported where it is used, in the worker and to kill it: at
# import it would add about a millisecond to every start of the CLI.

# The process that imported this module; only it may use a worker.
_HOME = os.getpid()
_lock = threading.Lock()
# The live worker; None before first use and after shutdown(), False once a
# worker died or was discarded.
_current = None


def pair(name: str, there: tuple, here: tuple) -> tuple:
    """(f(*there), f(*here)) for the function f named by name, as the two
    calls made one after the other, there first, return them; the call on
    there runs in the worker process where there is one, while the caller
    makes the call on here."""
    f = _resolve(name)
    if not _lock.acquire(blocking=False):
        return f(*there), f(*here)
    try:
        worker = _usable_worker()
        if worker is None or _exchange(worker.send, (name, there)) is None:
            return f(*there), f(*here)
        error = None
        try:
            second = f(*here)
        except Exception as exc:
            error = exc
        except BaseException:
            _discard()
            raise
        reply = _exchange(worker.receive)
    finally:
        _lock.release()
    if reply is None:
        # the worker died, or the error it raised cannot be pickled
        result = f(*there)
    else:
        ok, result = reply
        if not ok:
            raise result
    if error is not None:
        raise error
    return result, second


def shutdown() -> None:
    """Close the worker's pipe and wait for it to exit.  The next pair() call
    forks a new worker where one is allowed.  Does nothing in a forked child,
    which neither owns the worker nor may wait for a lock held at the fork."""
    global _current
    if os.getpid() != _HOME:
        return
    with _lock:
        if _current:
            _current.close()
        _current = None


atexit.register(shutdown)


def _resolve(name: str):
    module, _, function = name.rpartition(".")
    return getattr(importlib.import_module(module), function)


def _usable_worker():
    """The worker, forked on first use, or None where the calls run serially.
    Called with _lock held."""
    global _current
    if _current is False or os.getpid() != _HOME:
        return None
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    if len(os.sched_getaffinity(0)) < 2:
        return None
    if _current is None:
        try:
            _current = _Worker()
        except OSError:
            _current = False
            return None
    return _current


def _exchange(step, *args):
    """step(*args), one half of a request; the worker is discarded where it
    has died, and then None is returned, or where an interrupt lands."""
    try:
        return step(*args)
    except (EOFError, pickle.UnpicklingError, OSError):
        _discard()
        return None
    except BaseException:
        _discard()
        raise


def _discard() -> None:
    """Kill the worker and reap it; later calls run serially."""
    global _current
    _current.close(kill=True)
    _current = False


class _Worker:
    """A forked child that answers (name, args) requests over two pipes."""

    def __init__(self) -> None:
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(down_w)
                os.close(up_r)
                with os.fdopen(down_r, "rb") as requests, os.fdopen(up_w, "wb") as replies:
                    _serve(requests, replies)
            finally:
                os._exit(0)
        os.close(down_r)
        os.close(up_w)
        self._requests = os.fdopen(down_w, "wb")
        self._replies = os.fdopen(up_r, "rb")

    def send(self, request: tuple) -> bool:
        """Send a request; True, which _exchange tells from a dead worker."""
        pickle.dump(request, self._requests, pickle.HIGHEST_PROTOCOL)
        self._requests.flush()
        return True

    def receive(self):
        """(True, value), (False, error), or None where the error cannot be
        pickled."""
        return pickle.load(self._replies)

    def close(self, kill: bool = False) -> None:
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        for stream in (self._requests, self._replies):
            try:
                stream.close()
            except OSError:
                pass
        os.waitpid(self.pid, 0)


def _serve(requests, replies) -> None:
    """The worker's loop: answer requests until the caller's end closes."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # let go of the owner's stdin and stdout, so that a reader of its stdout
    # sees the end as soon as the owner exits
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.close(null)
    while True:
        try:
            name, args = pickle.load(requests)
        except (EOFError, pickle.UnpicklingError):
            return
        # the reply is pickled whole before any of it is written, so a value
        # that cannot be pickled leaves no part of a message on the pipe
        try:
            value = _resolve(name)(*args)
            reply = pickle.dumps((True, value), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            reply = pickle.dumps((False, exc) if _survives_pickling(exc) else None)
        try:
            replies.write(reply)
            replies.flush()
        except OSError:
            return


def _survives_pickling(exc: Exception) -> bool:
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return False
    return True

"""Forked helper processes: how many may compute at once (``process_slots``,
which the sweep's pool and the engine's lanes read), the CPUs apart from
the one this process runs on (``other_cpus``, for a child that should not
share it) and one child forked with a pipe pair to its parent (``fork``),
which carries one-byte step signals and a failed child's exception."""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys

STEP, FAILED = b"s", b"e"

_granted: int | None = None  # set only in a sweep's pool worker, by its initializer


def grant(slots: int) -> None:
    """Make ``process_slots`` return ``slots`` here: a sweep's pool worker's share."""
    global _granted
    _granted = slots


def process_slots() -> int:
    """How many processes may compute at once: the ``grant`` of this process,
    else CPUs // BLAS threads, so processes x BLAS threads never exceed the
    CPUs, or 1 off Linux, where fork is unavailable or unsafe, and in a
    daemonic process (a multiprocessing.Pool worker, say), which may not
    start children.  BLAS threads: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS."""
    if _granted is not None:
        return _granted
    if sys.platform != "linux":
        return 1
    mp = sys.modules.get("multiprocessing")  # loaded in any such daemon
    if mp is not None and mp.current_process().daemon:
        return 1
    cpus = len(os.sched_getaffinity(0))
    setting = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS", "")
    # unset or invalid: OpenBLAS starts one thread per CPU
    threads = int(setting) if setting.isdigit() and int(setting) > 0 else cpus
    return cpus // threads


def other_cpus() -> set[int]:
    """The CPUs this process may run on, less the one it ran on last; empty
    if /proc does not say which that is."""
    try:  # field 39 of the stat line, the 37th after the name's ")"
        with open("/proc/self/stat", "rb") as stat:
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])
    except OSError:
        return set()
    return os.sched_getaffinity(0) - {here}


class Link:
    """One process's ends of the pipe pair between a parent and its child ``name``."""

    def __init__(self, read_fd: int, write_fd: int, name: str):
        self.read_fd, self.write_fd, self.name = read_fd, write_fd, name

    def signal(self):
        """Send a step byte; if the other end has exited, raise as ``wait``
        does, from the first failure it sent or else its exit."""
        try:
            os.write(self.write_fd, STEP)
        except BrokenPipeError:  # the bytes it sent before are step bytes
            while (got := os.read(self.read_fd, 1)) not in (FAILED, b""):
                pass
            self._raise(got)

    def wait(self):
        """Block until the other end sends a step byte; raise the exception
        the child failed with, or RuntimeError if it exited."""
        got = os.read(self.read_fd, 1)
        if got != STEP:
            self._raise(got)

    def _raise(self, got: bytes):
        """Raise the failure that starts with ``got``, or RuntimeError."""
        if got != FAILED:
            raise RuntimeError(f"{self.name} exited")
        payload = b""  # the failed child writes it, then exits
        while chunk := os.read(self.read_fd, 1 << 16):
            payload += chunk
        try:  # bytes written by this program's own fork
            exc = pickle.loads(payload)
        except Exception:  # cut short, or of a class that does not unpickle
            exc = RuntimeError(f"{self.name} failed")
        raise exc

    def fail(self, exc: BaseException):
        """Send ``exc`` to the parent, with where it was raised."""
        import traceback  # only a failing child needs it

        where = "".join(traceback.format_tb(exc.__traceback__))
        exc.add_note(f"raised in {self.name}:\n{where}")
        try:
            payload = pickle.dumps(exc)
        except Exception:  # an exception that does not pickle goes as its text
            payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}\n{where}"))
        view = memoryview(FAILED + payload)
        while view:
            view = view[os.write(self.write_fd, view):]


@contextlib.contextmanager
def fork(child, name: str):
    """Run ``child(link)`` on a process forked here, and the with-block with
    this process's Link to it.  The child's exception is raised by the
    parent's next ``wait``, and a child that exits early makes ``wait``
    raise RuntimeError.  Leaving the block kills the child if the block
    raised, then reaps it and closes its pipe ends."""
    (from_child, to_parent), (from_parent, to_child) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except BaseException:  # no child: the pipes are closed here
        for fd in (from_child, to_parent, from_parent, to_child):
            os.close(fd)
        raise
    if pid == 0:  # the child: reports to the parent and never returns
        status, link = 1, Link(from_parent, to_parent, name)
        try:
            os.close(from_child)
            os.close(to_child)
            child(link)
            status = 0
        except BaseException as exc:  # sent to the parent; the finally ends this process
            with contextlib.suppress(OSError):
                link.fail(exc)
        finally:
            os._exit(status)
    os.close(to_parent)
    os.close(from_parent)
    try:
        yield Link(from_child, to_child, name)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(from_child)
        os.close(to_child)
        os.waitpid(pid, 0)

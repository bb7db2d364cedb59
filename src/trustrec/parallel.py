"""Two independent calls at once: one in a forked worker, one in this process."""

import os
import pickle
import signal
import sys
import threading


def both(in_worker, here):
    """``(in_worker(), here())``, with ``in_worker`` run in a forked child meanwhile.

    The child shares the caller's memory as it was at the fork, sends back
    its pickled result or exception through a pipe, and ends with
    ``os._exit``.  Its exception is raised here, with its type and message,
    once ``here`` has returned; if ``here`` raises, the child is killed, and
    if this process dies, so does the child (by SIGKILL, on Linux).  A child
    that ends without a result raises ``ChildProcessError``, an ``OSError``.
    The child is reaped on every path.  It keeps only its pipe and the
    standard streams, so it holds no file or file lock of the caller's.
    With a second thread alive (``fork`` would copy the locks it holds) or
    fewer than two CPUs, both calls run here, ``here`` first as on the
    forked path, so the same error wins.
    """
    if threading.active_count() > 1 or len(os.sched_getaffinity(0)) < 2:
        mine = here()
        return in_worker(), mine
    parent = os.getpid()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            if sys.platform.startswith("linux"):
                import ctypes
                ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
            if os.getppid() != parent:  # the parent died before that was set
                os._exit(1)
            os.close(read_end)
            os.closerange(3, write_end)
            os.closerange(write_end + 1, os.sysconf("SC_OPEN_MAX"))
            try:
                outcome = (True, in_worker())
            except BaseException as exc:
                outcome = (False, exc)
            try:
                payload = pickle.dumps(outcome)
                pickle.loads(payload)
            except Exception:  # an outcome that pickle cannot carry
                payload = pickle.dumps((False, RuntimeError(f"{type(outcome[1]).__name__}: {outcome[1]}")))
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            mine = here()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload:
        raise ChildProcessError(f"worker process ended without a result (wait status {status})")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value, mine

"""Two independent computations on two cores, with a serial run's results
and failures.

A task whose work splits into two independent parts runs the first in a
forked child while the calling process runs the second.  Both run the same
arithmetic in copies of one process image, so every number is the serial
run's.  Only the tasks that fork import this module.
"""

import os
import pickle


def beside(first, second):
    """(first(), second()), with first() run in a forked child while this
    process runs second().

    Failures raise here as in the serial run `first(); second()`: if first()
    failed in the child, it is rerun in this process, so that its exception
    has real frames and is raised before second()'s, if any.  When the fork
    itself fails (EAGAIN, ENOMEM), both run here, first() first.  The child
    is reaped before this returns or raises."""
    cpu = _cpu()
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return first(), second()
    if pid == 0:
        # the child writes nothing but its pickle and leaves through
        # os._exit, which runs no atexit handler and flushes none of the
        # parent's stdio buffers; exit status 0 means the pickle is whole
        code = 1
        try:
            os.close(rfd)
            _move_off(cpu)
            result = first()
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        here, failure = second(), None
    except Exception as exc:
        here, failure = None, exc
    finally:
        try:
            with os.fdopen(rfd, "rb") as fh:
                data = fh.read()
        finally:
            _, status = os.waitpid(pid, 0)
    there = pickle.loads(data) if status == 0 else first()
    if failure is not None:
        raise failure
    return there, here


def _cpu():
    """The CPU this process runs on, or None where /proc does not say."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _move_off(cpu):
    """Migrate this process off `cpu` when another CPU is allowed, then allow
    every CPU again.  A forked child starts on its parent's CPU, and on a
    2-vCPU Linux VM the scheduler left the two sharing it in 14 of 40 warm
    sos-verify calls over five processes (all 8 calls of one), each part
    then taking about twice its time; after this move, in 0 of 48."""
    if cpu is None:
        return
    allowed = os.sched_getaffinity(0)
    if len(allowed) > 1 and cpu in allowed:
        try:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass

"""The CPUs this process may run on, and ``Crew``, the one way pairsim
runs work on more than one thread.

Every job pairsim spreads over CPUs (a lexicon's digests and cache
checks, a checkpoint's section checks, the AdaDelta sweep, the LSTM's
large products) runs its caller beside the helpers of a ``Crew``: a job
on N CPUs starts at most N - 1 threads, and on one CPU none.  Each
train step, each ``predict`` call and each whole-model gradient check
runs inside ``one_blas_thread``, so the BLAS behind numpy runs one
thread of its own there.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
from contextlib import contextmanager


def cpus() -> list:
    """The CPUs this process may run on; None for each where no call says which."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:          # no affinity calls outside Linux
        return [None] * (os.cpu_count() or 1)


def current_cpu():
    """The CPU the calling thread runs on now (field 39 of its
    ``/proc`` stat line); None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _pin(cpu):
    """Keep the calling thread to ``cpu`` (None: leave it as it is).
    Unpinned, a new thread may share its parent's CPU for up to a second
    before the scheduler moves it, and then the two run by turns."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass


# The thread-count getters OpenBLAS builds export, numpy's first: its
# wheels build OpenBLAS with 64-bit integers, and a scipy wheel may map
# another OpenBLAS beside it.  Each has a setter, "set" for "get".
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


@functools.cache
def _openblas():
    """The thread-count getter and setter of the OpenBLAS mapped into
    this process (numpy's, once numpy has loaded: a mapped file with
    "openblas" in its path), looked up on the first call; where there is
    none (a numpy on MKL or Accelerate, or no ``/proc``), a getter of 1
    and a setter that does nothing."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({path for path in (line[line.find("/"):].rstrip() for line in fh)
                            if "openblas" in path})
    except OSError:
        paths = []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:             # not a library it can open
            pass
    found = [(getattr(lib, get), getattr(lib, get.replace("_get_", "_set_")))
             for get in _BLAS_GETTERS for lib in libs if hasattr(lib, get)]
    return found[0] if found else ((lambda: 1), (lambda n: None))


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS at one thread, and give the caller its
    own count back on exit, whatever happened.  So BLAS never contends
    with a ``Crew``, and a product's bits do not follow the BLAS thread
    setting.  Without OpenBLAS it does nothing."""
    get, put = _openblas()
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


class Crew:
    """The caller and up to ``n`` helper threads named ``name``, one on
    each CPU of ``cpus`` (None: ``cpus()``) but the caller's current one
    (on that CPU the two would run by turns; the last one where it
    cannot be told).  A context manager: the helpers start on entry and
    are joined on exit, whatever happened.  On one CPU, or where a
    thread cannot start (RuntimeError, as where the process may start
    no more), the crew has fewer helpers, and the caller runs their
    share through the same calls.  The caller's own affinity is never
    changed.

    ``run(jobs)`` calls every job, a function of no arguments, and
    returns what each returned, in job order.  The caller and the
    helpers, at most one per job beyond the first, each take the first
    job left from one queue, so the largest should come first.  Threads
    only pay when each job spends most of its time in calls that release
    the interpreter lock (zlib, hashlib, numpy).  Once a job raises
    (anything, an Exception or not), no job starts; ``run`` raises that
    first failure once every job that started has ended.  No job
    outlives ``run``."""

    def __init__(self, n: int, name: str, cpus: list | None = None):
        self.n, self.name, self.cpus = n, name, cpus
        self.helpers, self.work = [], None

    def __enter__(self):
        if self.n > 0:
            others = list(cpus() if self.cpus is None else self.cpus)
            if others:
                here = current_cpu()
                others.remove(here if here in others else others[-1])
            try:
                for cpu in others[:self.n]:
                    # two locks used as binary semaphores, the cheapest hand-off there is
                    go, done = threading.Lock(), threading.Lock()
                    go.acquire()
                    done.acquire()
                    thread = threading.Thread(target=self._serve, args=(cpu, go, done),
                                              name=self.name)
                    try:
                        thread.start()
                    except RuntimeError:
                        continue
                    self.helpers.append((thread, go, done))
            except BaseException:
                self.__exit__()
                raise
        return self

    def _serve(self, cpu, go, done):
        _pin(cpu)
        while go.acquire() and self.work is not None:
            try:
                self.work()
            finally:
                done.release()

    def run(self, jobs) -> list:
        results = [None] * len(jobs)
        pending = deque(enumerate(jobs))
        failures = []

        def drain():
            while True:
                try:
                    i, job = pending.popleft()
                except IndexError:
                    return
                try:
                    results[i] = job()
                except BaseException as exc:
                    failures.append(exc)
                    pending.clear()         # each other thread ends after its job
                    return

        busy = self.helpers[:max(len(jobs) - 1, 0)]
        self.work = drain
        try:
            for _, go, _ in busy:
                go.release()
            drain()
        finally:
            for _, _, done in busy:
                done.acquire()
            self.work = None
        if failures:
            raise failures[0]
        return results

    def __exit__(self, *exc_info):
        for _, go, _ in self.helpers:
            go.release()
        for thread, _, _ in self.helpers:
            thread.join()
        self.helpers = []

"""The CPUs this process may run on, and ``Crew``, the one way pairsim
runs work on more than one thread.

Every job pairsim spreads over CPUs (a lexicon's digests and cache
checks, a checkpoint's section checks, the AdaDelta sweep, the LSTM's
large products) runs its caller beside the helpers of a ``Crew``: a job
on N CPUs starts at most N - 1 threads, and on one CPU none.
"""

from __future__ import annotations

import os
import threading
from collections import deque


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


def blas_single_threaded() -> bool:
    """Whether BLAS runs one thread, as OpenBLAS reads the environment:
    the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS that is set must be 1.  With none set OpenBLAS runs
    one thread per core; a value that is not a number counts as not 1."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var)
        if value is not None:
            try:
                return int(value) == 1
            except ValueError:
                return False
    return False


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
    returns what each returned, in job order, or the exception it raised
    instead.  The caller and the helpers, at most one per job beyond the
    first, each take the first job left from one queue, so the largest
    should come first.  Threads only pay when each job spends most of
    its time in calls that release the interpreter lock (zlib, hashlib,
    numpy).  Every helper has ended its jobs before ``run`` returns or
    raises, so no job outlives it."""

    def __init__(self, n: int, name: str, cpus: list | None = None):
        self.n, self.name, self.cpus = n, name, cpus
        self.helpers, self.work, self.failure = [], None, None

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
            except BaseException as exc:    # not an Exception: raised again by run
                self.failure = exc
            done.release()

    def run(self, jobs) -> list:
        results = [None] * len(jobs)
        pending = deque(enumerate(jobs))

        def drain():
            while True:
                try:
                    i, job = pending.popleft()
                except IndexError:
                    return
                try:
                    results[i] = job()
                except Exception as exc:    # handed to the caller
                    results[i] = exc

        busy = self.helpers[:max(len(jobs) - 1, 0)]
        self.work = drain
        try:
            for _, go, _ in busy:
                go.release()
            drain()
        finally:
            pending.clear()                 # after a failure each helper ends after its job
            for _, _, done in busy:
                done.acquire()
            self.work = None
        if self.failure is not None:
            failure, self.failure = self.failure, None
            raise failure
        return results

    def __exit__(self, *exc_info):
        for _, go, _ in self.helpers:
            go.release()
        for thread, _, _ in self.helpers:
            thread.join()
        self.helpers = []

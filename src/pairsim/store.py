"""One checked file container, for checkpoints and lexicon caches.

Layout: a 4-byte magic, a uint32 version, a uint64 header length, a
canonical JSON header padded with spaces so that the sections start at
a multiple of ``ALIGN`` bytes, then the sections, back to back.  The
header's ``sections`` lists each section's name, byte length and CRC-32
(``zlib.crc32``), in file order.  CRC-32 detects accidental damage, not
forgery: a caller that needs a file's identity keeps a digest in its
header.  A section is checked the first time the caller asks for it, so
a caller pays only for the sections it reads.  Checks read the mapping
in windows of ``WINDOW`` bytes and drop each window's pages once read
(the page cache keeps them), so they raise the resident set by one
window per thread, not by the size of the file.  Each window is a job
for ``batch``, which spreads jobs over the CPUs, and a section's window
CRC-32s are combined, so one large section uses every CPU.

Every job pairsim spreads over CPUs (these checks, a lexicon's digests,
the AdaDelta sweep, the LSTM's large products) runs its caller beside
``helpers``: a job on N CPUs starts N - 1 threads.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from contextlib import ExitStack, contextmanager
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

ALIGN = 64
WINDOW = 1 << 22    # a multiple of the page size
_PREFIX = struct.Struct("<4sIQ")


class FormatError(ValueError):
    """A file that is not a whole, intact container of the kind asked for."""


def _json_default(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer, np.floating)):
        return x.item()
    raise TypeError(f"not serializable: {type(x)}")


def write(path, magic: bytes, version: int, header: dict, sections, mode=None):
    """Write ``header`` (which must not use the key ``sections``) and
    ``sections``, a list of (name, C-contiguous buffer), one write for the
    head and one per section, to a temporary file beside ``path`` created
    with ``mode`` (None: 0o666 less the umask), which then replaces
    ``path``.  A failed write raises OSError and leaves ``path`` as it was
    and no temporary file."""
    views = [(name, memoryview(buf).cast("B")) for name, buf in sections]
    header = dict(header, sections=[{"name": name, "bytes": view.nbytes,
                                     "crc32": zlib.crc32(view)} for name, view in views])
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"),
                      default=_json_default).encode("utf-8")
    blob += b" " * (-(_PREFIX.size + len(blob)) % ALIGN)     # JSON ignores trailing spaces
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            fh.write(_PREFIX.pack(magic, version, len(blob)) + blob)
            for _, view in views:
                fh.write(view)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Container:
    """A mapped container: ``version``, ``header`` (without the section
    table), and ``sections``, name -> (offset, byte length, CRC-32), or
    None for a file written without a section table."""

    def __init__(self, buf: mmap.mmap, version: int, header: dict, start: int, table):
        self.buf, self.version, self.header, self.start = buf, version, header, start
        self.sections, self.checked = None, set()
        if table is not None:
            self._place(table)

    def _place(self, table):
        offsets = accumulate((nbytes for _, nbytes, _ in table), initial=self.start)
        self.sections = {name: (offset, nbytes, crc)
                         for (name, nbytes, crc), offset in zip(table, offsets)}

    def assume(self, layout):
        """Give a file without a section table the sections of ``layout``,
        (name, byte length) pairs, which are then never checked."""
        self._place([(name, nbytes, None) for name, nbytes in layout])

    def expect(self, layout):
        """Check that the sections are those of ``layout``, (name, byte
        length or None for any) pairs in file order, and end the file."""
        if self.sections is None:
            raise FormatError("no section table")
        have = [(name, nbytes) for name, (_, nbytes, _) in self.sections.items()]
        if len(have) != len(layout) or any(
                a != b or m not in (None, n) for (a, n), (b, m) in zip(have, layout)):
            raise FormatError(f"section table {have}, expected {layout}")
        end = self.start + sum(nbytes for _, nbytes in have)
        if end != len(self.buf):
            raise FormatError(f"the sections end at byte {end}, the file at {len(self.buf)}")

    def _parts(self, names) -> list:
        """(name, start, end) of each part of each section of ``names`` not
        yet checked that has a CRC-32: the section cut where a window ends."""
        parts = []
        for name in names:
            offset, nbytes, crc = self.sections[name]
            if name not in self.checked and crc is not None:
                end = offset + nbytes
                cuts = [offset, *range(offset - offset % WINDOW + WINDOW, end, WINDOW), end]
                parts += [(name, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        return parts

    def checks(self, names) -> list:
        """For ``batch``: (byte length, job) of each part of the sections of
        ``names`` not yet checked; hand what they return to ``verify``."""
        return [(hi - lo, partial(crc32, self.buf, lo, hi)) for _, lo, hi in self._parts(names)]

    def verify(self, names, results):
        """Combine the CRC-32s of the parts that ``checks(names)`` returned
        (or raise the exception a job raised), and compare each section's
        with the table; FormatError names a damaged section."""
        crcs = {}
        for (name, lo, hi), crc in zip(self._parts(names), results, strict=True):
            if isinstance(crc, BaseException):
                raise crc
            crcs[name] = crc32_combine(crcs[name], crc, hi - lo) if name in crcs else crc
        for name, crc in crcs.items():
            if crc != self.sections[name][2]:
                raise FormatError(f"section {name!r} fails its CRC-32 check (the file is damaged)")
        self.checked.update(names)

    def check(self, names):
        """Check the sections of ``names`` not yet checked, in one batch."""
        self.verify(names, batch(self.checks(names), "pairsim-check"))

    def section(self, name: str) -> memoryview:
        """Section ``name``, a view of the mapping, checked if it has not been."""
        self.check([name])
        offset, nbytes, _ = self.sections[name]
        return memoryview(self.buf)[offset:offset + nbytes]


def load(path, magic: bytes, versions, copy: bool = False) -> Container:
    """Read the head of the container at ``path`` and map the file,
    read-only, or copy-on-write with ``copy``.  FormatError names what is
    wrong with a head that is not ``magic``, a version of ``versions``, a
    JSON object and, if there is one, a well-formed section table."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size or prefix[:4] != magic:
            raise FormatError(f"not a {magic.decode()} file (bad magic)")
        _, version, length = _PREFIX.unpack(prefix)
        if version not in versions:
            raise FormatError(f"format version {version}, this build reads "
                              f"{' or '.join(map(str, versions))}")
        if size < _PREFIX.size + length:
            raise FormatError("truncated metadata block")
        try:
            header = json.loads(fh.read(length).decode("utf-8"))
            table = header.pop("sections", None)
            if table is not None:
                table = [(s["name"], s["bytes"], s["crc32"]) for s in table]
        except ValueError as exc:
            raise FormatError(f"corrupt metadata ({exc})") from None
        except (AttributeError, KeyError, TypeError) as exc:
            raise FormatError(f"malformed metadata ({exc!r})") from None
        if table is not None and (len({name for name, _, _ in table}) != len(table) or not all(
                type(name) is str and type(n) is type(crc) is int and n >= 0
                and 0 <= crc < 1 << 32 for name, n, crc in table)):
            raise FormatError("malformed section table")
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY if copy else mmap.ACCESS_READ)
    return Container(buf, version, header, _PREFIX.size + length, table)


def _fold(buf: mmap.mmap, lo: int, hi: int, step, acc):
    """``acc = step(window, acc)`` over buf[lo:hi] in windows that end at
    multiples of WINDOW, without a copy.  Each window's pages are dropped
    once read, except a first or last page shared with bytes outside
    [lo, hi): in a copy-on-write mapping that would discard what was
    written to it, maybe to another section already in use."""
    page = mmap.PAGESIZE
    with memoryview(buf) as view:
        for a in range(lo - lo % WINDOW, hi, WINDOW):
            a, b = max(a, lo), min(a + WINDOW, hi)
            acc = step(view[a:b], acc)
            first, last = -(-a // page) * page, b if b == len(buf) else b - b % page
            if first < last:
                buf.madvise(mmap.MADV_DONTNEED, first, last - first)
    return acc


def crc32(buf: mmap.mmap, lo: int, hi: int) -> int:
    return _fold(buf, lo, hi, zlib.crc32, 0)


_POLY = 0xEDB88320      # the CRC-32 polynomial, bit-reflected as zlib holds it


def _mulmod(a: int, b: int) -> int:
    """a times b modulo the polynomial (zlib's multmodp)."""
    p = 0
    for bit in range(31, -1, -1):
        if a >> bit & 1:
            p ^= b
        b = b >> 1 ^ _POLY if b & 1 else b >> 1
    return p


@lru_cache(maxsize=64)
def _shift(nbytes: int) -> int:
    """x^(8 nbytes) modulo the polynomial: appending nbytes bytes
    multiplies a CRC by it."""
    p, x, n = 1 << 31, 1 << 30, 8 * nbytes     # 1 and x
    while n:
        if n & 1:
            p = _mulmod(x, p)
        x, n = _mulmod(x, x), n >> 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """The CRC-32 of a + b from crc1, that of a, crc2, that of b, and
    len2 = len(b) (zlib's crc32_combine)."""
    return _mulmod(_shift(len2), crc1) ^ crc2


def sha256(path):
    """The SHA-256 (a hashlib object) of the file at ``path``, read in
    windows through a mapping; ValueError if the file is empty."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as buf:
        _fold(buf, 0, len(buf), lambda window, _: digest.update(window), None)
    return digest


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


def run_pinned(jobs, cpus: list, name: str) -> list:
    """Call every job, a function of no arguments; return what each
    returned, in job order, or the exception it raised instead.

    The caller and ``helpers`` named ``name`` for the other CPUs of
    ``cpus``, at most one per job beyond the first, each take the first
    job left, so the largest should come first.  Threads only pay when
    each job spends most of its time in calls that release the
    interpreter lock (zlib, hashlib, numpy ufuncs).  Every helper is
    joined before this returns, whatever happened, so no job outlives
    it."""
    from collections import deque
    results = [None] * len(jobs)
    pending = deque(range(len(jobs)))

    def drain():
        while True:
            try:
                i = pending.popleft()
            except IndexError:
                return
            try:
                results[i] = jobs[i]()
            except Exception as exc:    # raised again by the caller
                results[i] = exc

    with helpers(min(len(jobs), len(cpus)) - 1, cpus, name) as found:
        try:
            for helper in found:
                helper.start(drain)
            drain()
            for helper in found:
                helper.wait()
        finally:
            pending.clear()             # after a failure each helper ends after its job
    return results


class PinnedThread:
    """One helper thread, pinned to ``cpu`` (None: unpinned) and named
    ``name``, that runs one job at a time for the thread that owns it:
    ``start(job)`` hands it a function of no arguments, and ``wait()``
    blocks until that job ends and returns what it returned, or raises
    what it raised.  A context manager: the thread starts on entry, and
    on exit it finishes a job still running and is joined, whatever
    happened.  The owner's own affinity is never changed."""

    def __init__(self, cpu, name: str):
        import threading
        self.cpu, self.job, self.result, self.busy = cpu, None, None, False
        # two locks used as binary semaphores, the cheapest hand-off there is
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.thread = threading.Thread(target=self._serve, name=name)

    def _serve(self):
        _pin(self.cpu)
        while True:
            self.go.acquire()
            if self.job is None:
                return
            try:
                self.result = (True, self.job())
            except BaseException as exc:    # raised again by wait()
                self.result = (False, exc)
            self.done.release()

    def __enter__(self):
        self.thread.start()
        return self

    def start(self, job):
        self.job, self.busy = job, True
        self.go.release()

    def wait(self):
        self.done.acquire()
        (ok, value), self.result, self.busy = self.result, None, False
        if not ok:
            raise value
        return value

    def __exit__(self, *exc_info):
        if self.busy:               # the owner failed between start and wait
            self.done.acquire()
            self.result = None
        self.job = None
        self.go.release()
        self.thread.join()


class Inline:
    """The stand-in for a ``PinnedThread`` where none runs: ``start(job)``
    keeps the job and ``wait()`` runs it on the caller's thread, so the
    caller makes the same calls, in the same pieces, as with a thread."""

    def start(self, job):
        self.job = job

    def wait(self):
        job, self.job = self.job, None
        return job()


@contextmanager
def helpers(n: int, cpus: list, name: str):
    """Yield ``n`` helpers for the calling thread: a ``PinnedThread``
    named ``name`` on each CPU of ``cpus`` but the caller's (on that CPU
    the two would run by turns; the last one where it cannot be told),
    or an ``Inline`` stand-in where no CPU is left or the thread cannot
    start (RuntimeError, as where the process may start no more
    threads).  On exit every thread finishes its job and is joined."""
    others = list(cpus)
    if others:
        here = current_cpu()
        others.remove(here if here in others else others[-1])
    with ExitStack() as threads:
        found = []
        for cpu in others[:max(n, 0)]:
            try:
                found.append(threads.enter_context(PinnedThread(cpu, name)))
            except RuntimeError:
                found.append(Inline())
        yield found + [Inline() for _ in range(n - len(found))]


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


def batch(jobs, name: str) -> list:
    """Run (byte length, job) pairs largest first with ``run_pinned``, and
    return each job's result or exception in the order given; jobs of at
    most one window in all run inline, where threads cost more than they
    save."""
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][0], reverse=True)
    done = run_pinned([jobs[i][1] for i in order],
                      cpus() if sum(n for n, _ in jobs) > WINDOW else [], name)
    results = [None] * len(jobs)
    for i, result in zip(order, done):
        results[i] = result
    return results

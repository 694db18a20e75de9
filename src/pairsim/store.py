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
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .threads import Crew

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
        """Combine the CRC-32s that the jobs of ``checks(names)`` returned
        (a job that raised has raised in ``batch``, by ``Crew``'s rule),
        and compare each section's with the table; FormatError names a
        damaged section."""
        crcs = {}
        for (name, lo, hi), crc in zip(self._parts(names), results, strict=True):
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


def batch(jobs, name: str) -> list:
    """Run (byte length, job) pairs largest first on a ``Crew`` named
    ``name``, and return each job's result in the order given, or raise
    the first failure; jobs of at most one window in all run on the
    caller alone, where threads cost more than they save."""
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][0], reverse=True)
    with Crew(len(jobs) - 1 if sum(n for n, _ in jobs) > WINDOW else 0, name) as crew:
        done = crew.run([jobs[i][1] for i in order])
    results = [None] * len(jobs)
    for i, result in zip(order, done):
        results[i] = result
    return results

"""Pre-trained word-vector tables, fusion, and coverage statistics.

A table is one read-only (rows, dim) float64 matrix and a word -> row
index.  A lexicon holds K tables of possibly different dimensions and
returns, for any word, the concatenation of that word's row from each
table in table order.  Words are normalized by lowercasing before lookup.
A word missing from a table gets a per-(word, table) random slice drawn
uniformly from [-oov_scale, oov_scale] on a dedicated counter-based
stream, so the same master seed reproduces the same out-of-vocabulary
vectors in any lookup order, in any process.  Each distinct word is
fused once, into one row of a block that doubles when full, so a
lexicon's memory is bounded by the words it has seen, not by the
number of sentences looked up.

Embedding vectors are data, not parameters: nothing in the package ever
writes to them after load.

File format: optional first header line of two integers "count dim"
(a header only when the next non-blank line has dim + 1 fields),
then one word per line: ``word v1 v2 ... v_dim`` with ASCII decimal
floats (finite: nan and inf are rejected), whitespace separated, UTF-8 words.

Parsing a large table in Python takes seconds, so ``load_table`` keeps
the parsed form beside the text file (``<file>.pairsim-cache``, about
8 bytes per value) and memory-maps it on later loads.  The cache is
keyed by the SHA-256 of the text and carries a SHA-256 of its own
bytes; both are checked on every load, and any cache that fails a check
is ignored and rewritten from a full parse.  Deleting it is always safe.
A lexicon's load computes the digests of all its texts and caches at
once, on up to one thread per CPU; a lexicon of at most one hash window
(4 MiB of text and cache) is hashed inline, on the caller's thread.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import mmap
import os
import struct
import tempfile
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .rng import stream

log = logging.getLogger(__name__)


def normalize_word(word: str) -> str:
    return word.lower()


@dataclass
class EmbeddingTable:
    """One pre-trained lookup: a word's vector is row ``index[word]`` of the
    read-only (rows, dim) float64 ``matrix``, after a cached load a view
    of the memory-mapped cache file."""

    name: str
    matrix: np.ndarray
    index: dict[str, int]
    source_path: str = ""

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.index)


def _header_dim(lines: list[str]) -> int | None:
    """The dim a first line "count dim" declares, or None if it is data.

    Two integers are a header only when the next non-blank line has
    dim + 1 fields, so a one-line file, or a 1-d table whose first word
    is a number ("1 2"), is data.
    """
    fields = lines[0].split() if lines else []
    if len(fields) != 2:
        return None
    try:
        int(fields[0])
        dim = int(fields[1])
    except ValueError:
        return None
    following = next((line for line in islice(lines, 1, None) if line.strip()), None)
    if following is None or len(following.split()) != dim + 1:
        return None
    return dim


def _warn_duplicate(path, lineno: int, word: str):
    log.warning("%s line %d: duplicate word %r keeps first occurrence",
                path, lineno, word)


def _parse(path: Path, text: str, expected_dim: int | None):
    """(matrix, index, duplicates) of a table's text, checking every line;
    duplicates lists the (line number, word) of each repeated word."""
    flat = array("d")
    index: dict[str, int] = {}
    duplicates: list[tuple[int, str]] = []
    dim = expected_dim
    start = 1
    lines = text.splitlines()
    header_dim = _header_dim(lines)
    if header_dim is not None:
        start = 2
        if expected_dim is not None and header_dim != expected_dim:
            raise DataError(
                f"{path}: header declares dim {header_dim}, expected {expected_dim}")
        dim = header_dim
        lines = lines[1:]
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        fields = line.split()
        word = normalize_word(fields[0])
        try:
            values = list(map(float, fields[1:]))
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: non-numeric field ({exc})") from exc
        # one sum screens the line: it is finite only if every value is,
        # and an infinite sum of finite values is an overflow
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise DataError(f"{path} line {lineno}: non-finite value (nan or inf)")
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise DataError(
                f"{path} line {lineno}: expected {dim} values, found {len(values)}")
        if word in index:
            _warn_duplicate(path, lineno, word)
            duplicates.append((lineno, word))
            continue
        index[word] = len(index)
        flat.extend(values)
    if dim is None:
        raise DataError(f"{path}: no word vectors found")
    return np.frombuffer(flat, dtype=np.float64).reshape(len(index), dim), index, duplicates


# ---------------------------------------------------------------------------
# the parsed-table cache
#
# Layout: _CACHE_MAGIC, the 32-byte SHA-256 of every byte after it, a
# uint64 length, a canonical JSON block (the source file's SHA-256, dim,
# rows, the byte length of the word list, the duplicate lines), the
# words joined by "\n" in UTF-8 (a word never holds whitespace), zero
# padding to a multiple of 8 bytes, then the (rows, dim) matrix as
# little-endian float64.

_CACHE_MAGIC = b"PSIMLEX1"
_DIGEST_END = len(_CACHE_MAGIC) + 32
_HASH_WINDOW = 1 << 22          # a multiple of the page size


def cache_path(path) -> Path:
    """Where the parsed form of the table at ``path`` is kept."""
    path = Path(path)
    return path.with_name(path.name + ".pairsim-cache")


def _map(path) -> mmap.mmap:
    """A read-only mapping of a whole file; ValueError if it is empty."""
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def _sha256(buf: mmap.mmap, start: int = 0):
    """SHA-256 of buf[start:], hashed in place, without a copy.

    Each window's pages are dropped from this process once hashed (the
    file's page cache keeps them), so each hashing thread raises its
    resident set by one window, not by the size of the file."""
    digest = hashlib.sha256()
    with memoryview(buf) as view:
        for lo in range(0, len(buf), _HASH_WINDOW):
            digest.update(view[max(lo, start):lo + _HASH_WINDOW])
            buf.madvise(mmap.MADV_DONTNEED, lo, min(_HASH_WINDOW, len(buf) - lo))
    return digest


def cpus() -> list:
    """The CPUs this process may run on; None for each where no call says which."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:          # no affinity calls outside Linux
        return [None] * (os.cpu_count() or 1)


def run_pinned(jobs, cpus: list, name: str) -> list:
    """Call every job, a function of no arguments; return what each
    returned, in job order, or the exception it raised instead.

    The jobs run on one thread per CPU of ``cpus``, up to one thread per
    job, each thread taking the first job left, so the largest should
    come first.  With fewer than two threads to start they run inline,
    on the caller's thread, in order.  Threads only pay when each job
    spends most of its time in calls that release the interpreter lock
    (hashlib, numpy ufuncs).  Every thread is joined before this
    returns, whatever happened, so no job outlives it.  The threads are
    named ``name``."""
    results = [None] * len(jobs)

    def run(i):
        try:
            results[i] = jobs[i]()
        except Exception as exc:    # raised again by the caller
            results[i] = exc

    cpus = cpus[:len(jobs)]
    if len(cpus) < 2:
        for i in range(len(jobs)):
            run(i)
        return results
    import threading
    from collections import deque
    pending = deque(range(len(jobs)))

    def drain(cpu):
        # Each thread keeps to a CPU of its own.  Unpinned, a new thread
        # may share its parent's CPU for up to a second before the
        # scheduler moves it, and then the jobs run one after another.
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
        while True:
            try:
                i = pending.popleft()
            except IndexError:
                return
            run(i)

    threads = []
    try:
        for cpu in cpus:
            thread = threading.Thread(target=drain, args=(cpu,), name=name)
            thread.start()
            threads.append(thread)
    except BaseException:
        pending.clear()             # the caller fails: each thread ends after its job
        raise
    finally:
        for thread in threads:
            thread.join()
    return results


def _sha256_all(jobs):
    """``_sha256(buf, start)`` of every (buf, start) job, in job order; a
    job that raised holds its exception instead.

    hashlib releases the interpreter lock while it hashes a window, so
    the jobs run in parallel (``run_pinned``), largest first.  A lexicon
    of at most one window is hashed inline: threads would cost more than
    they save."""
    sizes = [len(buf) - start for buf, start in jobs]
    order = sorted(range(len(jobs)), key=sizes.__getitem__, reverse=True)
    done = run_pinned([lambda job=jobs[i]: _sha256(*job) for i in order],
                      cpus() if sum(sizes) > _HASH_WINDOW else [], "pairsim-sha256")
    results = [None] * len(jobs)
    for i, digest in zip(order, done):
        results[i] = digest
    return results


def _checked(digest):
    """A digest from _sha256_all, or the exception its job raised."""
    if isinstance(digest, BaseException):
        raise digest
    return digest


_CACHE_ERRORS = (OSError, ValueError, LookupError, TypeError, struct.error)


@dataclass
class _OpenCache:
    """A cache whose head has been read, and the text it claims to parse."""

    buf: mmap.mmap
    meta: dict
    words_at: int
    text: mmap.mmap


def _open_cache(path: Path, expected_dim: int | None) -> _OpenCache | None:
    """Map the cache beside ``path`` and the text at ``path`` read-only, if
    the cache starts with its magic and a readable header of the expected
    dim; else None, with nothing left open."""
    try:
        buf = _map(cache_path(path))
    except _CACHE_ERRORS:
        return None
    try:
        if len(buf) >= _DIGEST_END + 8 and buf[:len(_CACHE_MAGIC)] == _CACHE_MAGIC:
            (meta_len,) = struct.unpack_from("<Q", buf, _DIGEST_END)
            pos = _DIGEST_END + 8
            meta = json.loads(buf[pos:pos + meta_len])
            if expected_dim in (None, meta["dim"]):
                # an emptied text cannot be mapped: it is parsed
                return _OpenCache(buf, meta, pos + meta_len, _map(path))
    except _CACHE_ERRORS:
        pass
    buf.close()
    return None


def _cached_table(path: Path, cache: _OpenCache, text_sha, cache_sha) -> EmbeddingTable | None:
    """The table in an opened cache, if that cache carries the SHA-256 of
    the text (``text_sha``), holds exactly one distinct word per row and
    one matrix of the recorded size, and its own digest (``cache_sha``)
    checks out; else None.  The matrix is a view of the cache's mapping."""
    buf, meta, pos = cache.buf, cache.meta, cache.words_at
    try:
        dim, rows = meta["dim"], meta["rows"]
        if _checked(text_sha).hexdigest() != meta["source_sha256"]:
            return None
        words = buf[pos:pos + meta["words_bytes"]].decode("utf-8").split()
        index = dict(zip(words, range(len(words))))
        offset = -(-(pos + meta["words_bytes"]) // 8) * 8
        if (len(words) != rows or len(index) != rows
                or offset + 8 * rows * dim != len(buf)):
            return None
        duplicates = [(int(lineno), str(word)) for lineno, word in meta["duplicates"]]
        if _checked(cache_sha).digest() != buf[len(_CACHE_MAGIC):_DIGEST_END]:
            return None
        matrix = np.frombuffer(buf, dtype="<f8", count=rows * dim,
                               offset=offset).reshape(rows, dim)
    except _CACHE_ERRORS:
        return None
    for lineno, word in duplicates:
        _warn_duplicate(path, lineno, word)
    return EmbeddingTable(name=path.stem, matrix=matrix, index=index, source_path=str(path))


def _write_cache(cache: Path, source_sha256: str, table: EmbeddingTable, duplicates, mode):
    """Write the cache atomically; a failed write leaves no file behind."""
    words = "\n".join(table.index).encode("utf-8")
    meta = json.dumps({"source_sha256": source_sha256, "dim": table.dim, "rows": len(table),
                       "words_bytes": len(words), "duplicates": duplicates},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = struct.pack("<Q", len(meta)) + meta + words
    head += bytes(-(_DIGEST_END + len(head)) % 8)
    matrix = table.matrix.astype("<f8", copy=False)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=cache.parent, prefix=cache.name + ".")
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode)
            digest = hashlib.sha256(head)
            digest.update(matrix)
            fh.write(_CACHE_MAGIC + digest.digest() + head)
            fh.write(matrix)
        os.replace(tmp, cache)
    except OSError as exc:
        log.warning("cannot write embedding cache %s (%s); the table will be parsed "
                    "again on every load", cache, exc)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _parse_table(path: Path, expected_dim: int | None) -> EmbeddingTable:
    """Parse the text at ``path``, checking every line, and write its cache."""
    try:
        raw = path.read_bytes()
        mode = os.stat(path).st_mode & 0o666
    except OSError as exc:
        raise DataError(f"cannot read embedding file {path}: {exc}") from exc
    source_sha256 = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"embedding file {path} is not UTF-8: {exc}") from exc
    del raw
    matrix, index, duplicates = _parse(path, text, expected_dim)
    del text
    table = EmbeddingTable(name=path.stem, matrix=matrix, index=index, source_path=str(path))
    _write_cache(cache_path(path), source_sha256, table, duplicates, mode)
    return table


def _load_tables(paths, expected_dim: int | None = None) -> list[EmbeddingTable]:
    """Load tables in order, each from its cache if every check passes, else
    by a parse.  All caches and texts are opened first and their digests
    computed together (``_sha256_all``); then each table is checked, and
    warns or is parsed, in table order.  Every text mapping, and every
    cache mapping no table views, is closed before this returns."""
    paths = [Path(p) for p in paths]
    caches, viewed = [], set()
    try:
        caches.extend(_open_cache(p, expected_dim) for p in paths)
        digests = iter(_sha256_all([job for c in caches if c is not None
                                    for job in ((c.text, 0), (c.buf, _DIGEST_END))]))
        tables = []
        for i, (path, cache) in enumerate(zip(paths, caches)):
            table = None
            if cache is not None:
                table = _cached_table(path, cache, next(digests), next(digests))
            if table is None:
                table = _parse_table(path, expected_dim)
            else:
                viewed.add(i)
            tables.append(table)
        return tables
    finally:
        for i, cache in enumerate(caches):
            if cache is not None:
                cache.text.close()
                if i not in viewed:
                    cache.buf.close()


def load_table(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Load a word-vector text file into an immutable table.

    The first load parses the text, checking every line, and writes the
    parsed form beside the file (``cache_path``).  A later load whose
    text has the same SHA-256 memory-maps that cache instead of parsing;
    the cache is used only if its own digest checks out as well.
    """
    return _load_tables([path], expected_dim)[0]


@dataclass
class CoverageReport:
    """Vocabulary coverage of each table and of their union."""

    per_table: list[tuple[str, float]]
    union: float
    vocab_size: int


@dataclass
class FusedLexicon:
    """K tables viewed as one lookup returning concatenated vectors.

    Each distinct word looked up is fused once into a row of ``_block``,
    which doubles when full; ``_rows`` maps each spelling seen, and its
    normalized form, to that row.  Memory is bounded by the words seen.
    """

    tables: list[EmbeddingTable]
    oov_scale: float = 0.1
    seed: int = 0
    _rows: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _block: np.ndarray = field(init=False, repr=False)
    _used: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if not self.tables:
            raise DataError("a fused lexicon needs at least one table")
        paths = {}
        for t in self.tables:
            path = t.source_path or t.name
            if t.name in paths:
                raise ConfigError(
                    f"embedding tables {paths[t.name]} and {path} share the name {t.name!r}, "
                    f"which keys their out-of-vocabulary vectors; rename one of the files")
            paths[t.name] = path
        self._block = np.empty((64, self.total_dim))

    @property
    def total_dim(self) -> int:
        return sum(t.dim for t in self.tables)

    def _add(self, spelling: str):
        """Give a spelling a row, fusing its normalized word on first sight."""
        word = normalize_word(spelling)
        if word not in self._rows:
            if self._used == len(self._block):
                self._block = np.concatenate([self._block, np.empty_like(self._block)])
            np.concatenate([t.matrix[t.index[word]] if word in t.index
                            else stream(self.seed, "oov", t.name, word).uniform(
                                -self.oov_scale, self.oov_scale, size=t.dim)
                            for t in self.tables], out=self._block[self._used])
            self._rows[word] = self._used
            self._used += 1
        self._rows[spelling] = self._rows[word]

    def lookup_all(self, words) -> np.ndarray:
        """(len(words), total_dim) array whose row t is the fused vector of
        words[t], stable within and across runs; a new array on each call."""
        if not words:
            raise DataError("cannot embed an empty token sequence")
        for w in words:
            if w not in self._rows:
                self._add(w)
        ids = np.fromiter(map(self._rows.__getitem__, words), np.intp, len(words))
        return self._block.take(ids, axis=0)

    def coverage(self, vocab) -> CoverageReport:
        """Fraction of the vocabulary present per table and in their union."""
        words = {normalize_word(w) for w in vocab}
        if not words:
            raise DataError("coverage needs a nonempty vocabulary")
        per_table = [(t.name, sum(w in t.index for w in words) / len(words))
                     for t in self.tables]
        union = sum(any(w in t.index for t in self.tables) for w in words) / len(words)
        return CoverageReport(per_table=per_table, union=union, vocab_size=len(words))

    def content_hash(self) -> str:
        """SHA-256 over every table's words and vector bytes, order-canonical."""
        digest = hashlib.sha256()
        for t in self.tables:
            digest.update(f"{t.name}:{t.dim}".encode())
            for w in sorted(t.index):
                digest.update(w.encode())
                digest.update(t.matrix[t.index[w]])
        return digest.hexdigest()


def load_lexicon(paths, oov_scale: float = 0.1, seed: int = 0) -> FusedLexicon:
    """Load tables from a sequence of paths into one fused lexicon."""
    return FusedLexicon(tables=_load_tables(paths), oov_scale=oov_scale, seed=seed)

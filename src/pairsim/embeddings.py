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
floats (finite: nan and inf are rejected).  The text is read as every
text input is (``evaldata.text_lines``: UTF-8, a leading byte-order
mark dropped, only a line feed ending a line), and only ASCII spaces
and tabs separate fields, so a word may hold any other character,
U+2028 or U+00A0 among them.

Parsing a large table in Python takes seconds, so ``load_table`` keeps
the parsed form beside the text file (``<file>.pairsim-cache``, about
8 bytes per value) and memory-maps it on later loads.  The cache is a
``store`` container, as checkpoints are.  The SHA-256 of the text is
its identity, and each section's CRC-32 detects damage to it; both are
checked on every load, and a cache that fails a check is ignored and
rewritten from a full parse.  Deleting it is always safe.  A lexicon's
load checks all its texts and caches in one ``store.batch``, on one
``threads.Crew``.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import store
from .errors import ConfigError, DataError
from .evaldata import text_lines
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


def _fields(line: str) -> list[str]:
    """The fields of a table line: its runs of characters other than an
    ASCII space or tab.  (``str.split()`` would also split a word at
    U+00A0, U+0085, U+2028 or U+001C-U+001F.)"""
    fields = line.replace("\t", " ").split(" ")
    return [f for f in fields if f] if "" in fields else fields


def _header_dim(lines: list[str]) -> int | None:
    """The dim a first line "count dim" declares, or None if it is data.

    Two integers are a header only when the next non-blank line has
    dim + 1 fields, so a one-line file, or a 1-d table whose first word
    is a number ("1 2"), is data.
    """
    fields = _fields(lines[0]) if lines else []
    if len(fields) != 2:
        return None
    try:
        int(fields[0])
        dim = int(fields[1])
    except ValueError:
        return None
    following = next(filter(None, map(_fields, islice(lines, 1, None))), None)
    if following is None or len(following) != dim + 1:
        return None
    return dim


def _warn_duplicate(path, lineno: int, word: str):
    log.warning("%s line %d: duplicate word %r keeps first occurrence",
                path, lineno, word)


def _parse(path: Path, lines: list[str]):
    """(matrix, index, duplicates) of a table's lines (``text_lines``),
    checking every line; duplicates lists the (line number, word) of each
    repeated word."""
    flat = array("d")
    index: dict[str, int] = {}
    duplicates: list[tuple[int, str]] = []
    start = 1
    dim = _header_dim(lines)
    if dim is not None:
        start = 2
        lines = lines[1:]
    for lineno, line in enumerate(lines, start=start):
        fields = _fields(line)
        if not fields:
            continue
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
# the parsed-table cache: its header holds the text's SHA-256, dim, rows
# and duplicate lines; its sections are the (rows, dim) matrix as
# little-endian float64, first so that it is aligned, and the words
# joined by "\n" in UTF-8

_CACHE_MAGIC = b"PSLX"
_CACHE_VERSION = 2      # 2: a leading byte-order mark is not part of the first word
_SECTIONS = ("matrix", "words")


def cache_path(path) -> Path:
    """Where the parsed form of the table at ``path`` is kept."""
    path = Path(path)
    return path.with_name(path.name + ".pairsim-cache")


_CACHE_ERRORS = (OSError, ValueError, LookupError, TypeError)


def _text_sha256(path: Path):
    """The SHA-256 (a hashlib object) of the text at ``path``; None if it
    cannot be read or is empty, for its parse to report."""
    try:
        return store.sha256(path)
    except (OSError, ValueError):
        return None


def _open_cache(path: Path):
    """(cache, jobs) if the cache beside ``path``, mapped read-only, is a
    container whose section table fits its header; else None, with
    nothing left open.  The jobs, for ``store.batch`` (one
    ``threads.Crew`` run), compute the SHA-256 of the text at ``path``
    (``_text_sha256``), then the CRC-32s of the cache's sections
    (``Container.checks``)."""
    try:
        text_bytes = os.path.getsize(path)
        cache = store.load(cache_path(path), _CACHE_MAGIC, (_CACHE_VERSION,))
    except _CACHE_ERRORS:
        return None
    try:
        dim, rows = cache.header["dim"], cache.header["rows"]
        if type(dim) is type(rows) is int:
            cache.expect([("matrix", 8 * rows * dim), ("words", None)])
            return cache, [(text_bytes, partial(_text_sha256, path)), *cache.checks(_SECTIONS)]
    except _CACHE_ERRORS:
        pass
    cache.buf.close()
    return None


def _cached_table(path: Path, cache: store.Container, results) -> EmbeddingTable | None:
    """The table in an opened cache, if the text has the SHA-256 that the
    cache records, the sections pass their checks and they hold exactly
    one distinct word per row; else None.  ``results`` are what the jobs
    of ``_open_cache`` returned.  The matrix is a view of the cache's
    mapping."""
    meta = cache.header
    text_sha, *crcs = results
    try:
        if text_sha is None or text_sha.hexdigest() != meta["source_sha256"]:
            return None
        cache.verify(_SECTIONS, crcs)
        words = str(cache.section("words"), "utf-8").split("\n")
        index = dict(zip(words, range(len(words))))
        if len(words) != meta["rows"] or len(index) != meta["rows"]:
            return None
        duplicates = [(int(lineno), str(word)) for lineno, word in meta["duplicates"]]
    except _CACHE_ERRORS:
        return None
    matrix = np.frombuffer(cache.section("matrix"), "<f8").reshape(meta["rows"], meta["dim"])
    for lineno, word in duplicates:
        _warn_duplicate(path, lineno, word)
    return EmbeddingTable(name=path.stem, matrix=matrix, index=index, source_path=str(path))


def _write_cache(path: Path, source_sha256: str, table: EmbeddingTable, duplicates):
    """Write the cache of the text at ``path`` atomically, with the text's
    mode; a failed write leaves no file behind."""
    cache = cache_path(path)
    meta = {"source_sha256": source_sha256, "dim": table.dim, "rows": len(table),
            "duplicates": duplicates}
    try:
        store.write(cache, _CACHE_MAGIC, _CACHE_VERSION, meta,
                    [("matrix", table.matrix.astype("<f8", copy=False)),
                     ("words", "\n".join(table.index).encode("utf-8"))],
                    os.stat(path).st_mode & 0o666)
    except OSError as exc:
        log.warning("cannot write embedding cache %s (%s); the table will be parsed "
                    "again on every load", cache, exc)


def _parse_table(path: Path) -> EmbeddingTable:
    """Parse the text at ``path``, checking every line, and write its cache,
    which records the SHA-256 of exactly the bytes parsed."""
    digest = hashlib.sha256()
    matrix, index, duplicates = _parse(path, text_lines(path, digest=digest))
    table = EmbeddingTable(name=path.stem, matrix=matrix, index=index, source_path=str(path))
    _write_cache(path, digest.hexdigest(), table, duplicates)
    return table


def _load_tables(paths) -> list[EmbeddingTable]:
    """Load tables in order, each from its cache if every check passes, else
    by a parse.  All caches are opened first, and the SHA-256 of every
    text and the CRC-32 of every cache section computed in one batch
    (``store.batch``, one run of a ``threads.Crew`` named
    ``pairsim-digest``); then each table is checked, and warns or is
    parsed, in table order.  Every cache mapping no table views is
    closed before this returns."""
    paths = [Path(p) for p in paths]
    opened, viewed = [], set()
    try:
        opened.extend(_open_cache(p) for p in paths)
        groups = [jobs for _, jobs in filter(None, opened)]
        done = iter(store.batch([job for group in groups for job in group], "pairsim-digest"))
        results = iter([[next(done) for _ in group] for group in groups])
        tables = []
        for i, (path, cache) in enumerate(zip(paths, opened)):
            table = None
            if cache is not None:
                table = _cached_table(path, cache[0], next(results))
            if table is None:
                table = _parse_table(path)
            else:
                viewed.add(i)
            tables.append(table)
        return tables
    finally:
        for i, cache in enumerate(opened):
            if cache is not None and i not in viewed:
                cache[0].buf.close()


def load_table(path) -> EmbeddingTable:
    """Load a word-vector text file into an immutable table.

    The first load parses the text, checking every line, and writes the
    parsed form beside the file (``cache_path``).  A later load whose
    text has the same SHA-256 memory-maps that cache instead of parsing;
    the cache is used only if its sections pass their CRC-32 checks as
    well.
    """
    return _load_tables([path])[0]


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

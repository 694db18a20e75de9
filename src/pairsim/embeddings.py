"""Pre-trained word-vector tables, fusion, and coverage statistics.

A lexicon holds K tables of possibly different dimensions and returns,
for any word, the concatenation of that word's vector from each table
in table order.  Words are normalized by lowercasing before lookup.
A word missing from a table gets a per-(word, table) random slice drawn
uniformly from [-oov_scale, oov_scale] on a dedicated counter-based
stream, so the same master seed reproduces the same out-of-vocabulary
vectors in any lookup order, in any process.

Embedding vectors are data, not parameters: nothing in the package ever
writes to them after load.

File format: optional first header line of two integers "count dim",
then one word per line: ``word v1 v2 ... v_dim`` with ASCII decimal
floats (finite: nan and inf are rejected), whitespace separated, UTF-8 words.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import stream

log = logging.getLogger(__name__)


def normalize_word(word: str) -> str:
    return word.lower()


@dataclass
class EmbeddingTable:
    """One pre-trained lookup: word -> fixed-dimension float64 vector."""

    name: str
    dim: int
    vectors: dict[str, np.ndarray]
    source_path: str = ""

    def __contains__(self, word: str) -> bool:
        return normalize_word(word) in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def _looks_like_header(fields: list[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def load_table(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Parse a word-vector text file into an immutable table."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read embedding file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"embedding file {path} is not UTF-8: {exc}") from exc

    vectors: dict[str, np.ndarray] = {}
    dim = expected_dim
    start = 1
    lines = text.splitlines()
    if lines and _looks_like_header(lines[0].split()):
        start = 2
        header_dim = int(lines[0].split()[1])
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
        vec = np.array(values, dtype=np.float64)
        if dim is None:
            dim = vec.shape[0]
        if vec.shape[0] != dim:
            raise DataError(
                f"{path} line {lineno}: expected {dim} values, found {vec.shape[0]}")
        if word in vectors:
            log.warning("%s line %d: duplicate word %r keeps first occurrence",
                        path, lineno, word)
            continue
        vec.setflags(write=False)
        vectors[word] = vec
    if dim is None:
        raise DataError(f"{path}: no word vectors found")
    return EmbeddingTable(name=path.stem, dim=dim, vectors=vectors, source_path=str(path))


@dataclass
class CoverageReport:
    """Vocabulary coverage of each table and of their union."""

    per_table: list[tuple[str, float]]
    union: float
    vocab_size: int


@dataclass
class FusedLexicon:
    """K tables viewed as one lookup returning concatenated vectors."""

    tables: list[EmbeddingTable]
    oov_scale: float = 0.1
    seed: int = 0
    _cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _matrix_cache: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.tables:
            raise DataError("a fused lexicon needs at least one table")

    @property
    def total_dim(self) -> int:
        return sum(t.dim for t in self.tables)

    def _oov_slice(self, table: EmbeddingTable, word: str) -> np.ndarray:
        rng = stream(self.seed, "oov", table.name, word)
        return rng.uniform(-self.oov_scale, self.oov_scale, size=table.dim)

    def lookup(self, word: str) -> np.ndarray:
        """Length-total_dim vector for the word; stable within and across runs."""
        word = normalize_word(word)
        cached = self._cache.get(word)
        if cached is None:
            parts = [t.vectors.get(word) for t in self.tables]
            parts = [p if p is not None else self._oov_slice(t, word)
                     for p, t in zip(parts, self.tables)]
            cached = np.concatenate(parts)
            cached.setflags(write=False)
            self._cache[word] = cached
        return cached.copy()

    def lookup_all(self, words) -> np.ndarray:
        """Read-only matrix whose row t is lookup(words[t]); memoized."""
        if not words:
            raise DataError("cannot embed an empty token sequence")
        key = tuple(words)
        E = self._matrix_cache.get(key)
        if E is None:
            E = np.stack([self.lookup(w) for w in words])
            E.setflags(write=False)
            self._matrix_cache[key] = E
        return E

    def coverage(self, vocab) -> CoverageReport:
        """Fraction of the vocabulary present per table and in their union."""
        words = {normalize_word(w) for w in vocab}
        if not words:
            raise DataError("coverage needs a nonempty vocabulary")
        per_table = [(t.name, sum(w in t.vectors for w in words) / len(words))
                     for t in self.tables]
        union = sum(any(w in t.vectors for t in self.tables) for w in words) / len(words)
        return CoverageReport(per_table=per_table, union=union, vocab_size=len(words))

    def content_hash(self) -> str:
        """SHA-256 over every table's words and vector bytes, order-canonical."""
        digest = hashlib.sha256()
        for t in self.tables:
            digest.update(f"{t.name}:{t.dim}".encode())
            for w in sorted(t.vectors):
                digest.update(w.encode())
                digest.update(t.vectors[w].tobytes())
        return digest.hexdigest()


def load_lexicon(paths, oov_scale: float = 0.1, seed: int = 0,
                 expected_dims=None) -> FusedLexicon:
    """Load tables from a sequence of paths into one fused lexicon."""
    paths = list(paths)
    if expected_dims is None:
        expected_dims = [None] * len(paths)
    tables = [load_table(p, expected_dim=d) for p, d in zip(paths, expected_dims)]
    return FusedLexicon(tables=tables, oov_scale=oov_scale, seed=seed)

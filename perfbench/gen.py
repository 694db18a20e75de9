"""Seeded synthetic inputs: word-vector text tables and STS pair files.

Everything is drawn from one ``numpy.random.default_rng(seed)``, so the
same seed writes byte-identical files.  Words are pseudo-words built
from consonant-vowel syllables, which the pairsim tokenizer keeps whole.
Each table omits a fixed share of the vocabulary (its OOV words), drawn
independently per table.  A pair's second sentence keeps a random share
of the first sentence's words and replaces the rest, and the gold score
is five times that share plus a little noise, so a model that learns
word overlap earns a held-out Pearson well above zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


@dataclass(frozen=True)
class DataSpec:
    """Sizes of one workload's generated inputs."""

    vocab: int                     # distinct words in the pair files
    table_dims: tuple[int, ...]    # one text table per entry
    oov_share: float               # share of the vocabulary each table omits
    digits: int                    # decimals written per vector value
    n_train: int
    n_heldout: int
    len_lo: int                    # common sentence lengths, inclusive
    len_hi: int
    tail_share: float = 0.0        # share of sentences drawn from the tail
    tail_lo: int = 0
    tail_hi: int = 0
    block: int = 1                 # pairs per block of identical length mix


@dataclass
class Inputs:
    tables: list[Path]
    train: Path
    heldout: Path
    oov: set[str]                  # words missing from at least one table


def _words(rng: np.random.Generator, n: int) -> list[str]:
    syl = [_SYLLABLES[i] for i in rng.permutation(len(_SYLLABLES))]
    base = len(syl)
    out = []
    for i in range(n):
        k, parts = i + base, []   # at least two syllables per word
        while k:
            k, r = divmod(k, base)
            parts.append(syl[r])
        out.append("".join(parts))
    return out


def _write_table(path: Path, words: list[str], dim: int, digits: int,
                 rng: np.random.Generator):
    fmt = "%s" + (" %." + str(digits) + "f") * dim + "\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for lo in range(0, len(words), 1000):
            chunk = words[lo:lo + 1000]
            values = rng.normal(0.0, 0.5, size=(len(chunk), dim))
            fh.write("".join(fmt % (w, *row) for w, row in zip(chunk, values.tolist())))


def _block_lengths(spec: DataSpec) -> list[int]:
    """Evenly spaced quantiles of the length distribution, one per pair.

    Every block of ``spec.block`` pairs uses this same multiset of
    lengths in its own order, so every training batch does the same
    amount of work and a run's throughput does not hinge on which
    batches fell inside its window.
    """
    out = []
    for i in range(spec.block):
        u = (i + 0.5) / spec.block
        if u >= 1.0 - spec.tail_share:
            u = (u - 1.0 + spec.tail_share) / spec.tail_share
            lo, hi = spec.tail_lo, spec.tail_hi
        else:
            u = u / (1.0 - spec.tail_share)
            lo, hi = spec.len_lo, spec.len_hi
        out.append(lo + int(u * (hi - lo + 1)))
    return out


def _pairs(spec: DataSpec, words: list[str], n: int,
           rng: np.random.Generator) -> list[str]:
    # Zipf-like word frequencies, so sentences share common words
    weights = 1.0 / np.arange(1, len(words) + 1)
    weights /= weights.sum()
    base = _block_lengths(spec)
    lengths = []
    while len(lengths) < n:
        lengths += [base[i] for i in rng.permutation(len(base))]
    lines = []
    for length in lengths[:n]:
        s1 = [words[i] for i in rng.choice(len(words), length, p=weights)]
        keep = rng.random()
        kept = rng.random(len(s1)) < keep
        s2 = [w if k else words[int(rng.integers(len(words)))]
              for w, k in zip(s1, kept)]
        if len(s2) > 2 and rng.random() < 0.5:   # local reorder
            j = int(rng.integers(len(s2) - 1))
            s2[j], s2[j + 1] = s2[j + 1], s2[j]
        gold = float(np.clip(5.0 * kept.mean() + rng.normal(0.0, 0.25), 0.0, 5.0))
        lines.append(f"{' '.join(s1)}\t{' '.join(s2)}\t{gold:.3f}\n")
    return lines


def generate(spec: DataSpec, seed: int, out_dir: Path) -> Inputs:
    """Write tables t0.txt.. and train.tsv / heldout.tsv under out_dir."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    words = _words(rng, spec.vocab)
    n_oov = round(spec.oov_share * spec.vocab)
    tables, oov = [], set()
    for k, dim in enumerate(spec.table_dims):
        missing = set(rng.choice(spec.vocab, n_oov, replace=False).tolist())
        oov.update(words[i] for i in missing)
        present = [w for i, w in enumerate(words) if i not in missing]
        path = out_dir / f"t{k}.txt"
        _write_table(path, present, dim, spec.digits, rng)
        tables.append(path)
    train = out_dir / "train.tsv"
    heldout = out_dir / "heldout.tsv"
    train.write_text("".join(_pairs(spec, words, spec.n_train, rng)), encoding="utf-8")
    heldout.write_text("".join(_pairs(spec, words, spec.n_heldout, rng)),
                       encoding="utf-8")
    return Inputs(tables=tables, train=train, heldout=heldout, oov=oov)

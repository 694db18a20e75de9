"""Text inputs, sentence-pair datasets, tokenization, and evaluation
metrics.

``text_lines`` reads every text input of the package (configuration
files, pair datasets and embedding tables) under one policy: UTF-8, a
leading byte-order mark dropped, only a line feed ending a line and one
carriage return before it dropped, so line numbers and byte offsets in
messages are the file's.

Datasets are TSV text files, one example per line:

    sentence1 <TAB> sentence2 <TAB> gold

where gold is a decimal score for similarity ("sts") or a label string
for classification ("entailment": entailment / contradiction / neutral,
case-insensitive; "paraphrase": 0 / 1).  Label strings map to class
indices in those fixed orders.  Public benchmark releases are adapted
to this format by scripts/convert.py, which reads them with
``text_lines`` too; the parser itself stays deliberately small.

Malformed lines are fatal and name their line number, unless loading is
lenient, in which case they are logged and skipped.
"""

from __future__ import annotations

import logging
import math
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import DataError

log = logging.getLogger(__name__)

TASKS = ("sts", "entailment", "paraphrase")

LABEL_NAMES = {
    "entailment": ["entailment", "contradiction", "neutral"],
    "paraphrase": ["0", "1"],
}

_PUNCT = frozenset(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenizer that splits off edge punctuation.

    Leading and trailing ASCII punctuation become their own tokens, in
    textual order; internal punctuation (don't, e.g.) stays attached.
    """
    tokens = []
    for chunk in text.lower().split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            tokens.append(chunk)
            continue
        lo, hi = 0, len(chunk)
        while lo < hi and chunk[lo] in _PUNCT:
            lo += 1
        while hi > lo and chunk[hi - 1] in _PUNCT:
            hi -= 1
        tokens.extend(chunk[:lo])
        if lo < hi:
            tokens.append(chunk[lo:hi])
        tokens.extend(chunk[hi:])
    return tokens


@dataclass
class SentencePairExample:
    tokens1: list[str]
    tokens2: list[str]
    gold_score: Optional[float] = None
    gold_label: Optional[int] = None

    def __post_init__(self):
        if (self.gold_score is None) == (self.gold_label is None):
            raise DataError("an example carries exactly one of score / label")
        if not self.tokens1 or not self.tokens2:
            raise DataError("token sequences must be nonempty")


@dataclass
class PairDataset:
    examples: list[SentencePairExample]
    task: str
    label_names: Optional[list[str]] = None

    def __len__(self):
        return len(self.examples)


def _parse_gold(gold: str, task: str, score_range):
    if task == "sts":
        try:
            score = float(gold)
        except ValueError:
            raise DataError(f"bad score {gold!r}") from None
        if not math.isfinite(score):
            raise DataError(f"non-finite score {gold!r}")
        if score_range is not None and not score_range[0] <= score <= score_range[1]:
            raise DataError(f"score {score!r} outside [{score_range[0]}, {score_range[1]}]")
        return score, None
    names = LABEL_NAMES[task]
    try:
        return None, names.index(gold.strip().lower())
    except ValueError:
        raise DataError(f"unknown label {gold!r}; expected one of {names}") from None


def text_lines(path, error=DataError, digest=None) -> list[str]:
    """The lines of the UTF-8 text file at ``path``; line N is item N - 1.

    A leading byte-order mark is dropped.  Only a line feed ends a line,
    and one carriage return before it is dropped, so line numbers and
    byte offsets stay the file's.  A hashlib ``digest`` is fed exactly
    the bytes read.  A file that cannot be read, or a byte that is not
    UTF-8, raises ``error`` naming the file (and the byte's line and
    offset).
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(raw)
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")    # offsets stay the file's
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {lineno}: not UTF-8 at byte offset {exc.start}: "
                    f"{exc.reason}") from None
    del raw                     # so the bytes, the text and the lines are never all held
    lines = text.split("\n")
    del text
    # in place: a second list of the lines measurably raised the heap
    # that later loads keep (24 MB of score-cold peak RSS)
    for i, line in enumerate(lines):
        if line.endswith("\r"):
            lines[i] = line[:-1]
    return lines


def load_pairs(path, task: str, lenient: bool = False, score_range=None) -> PairDataset:
    """Parse a TSV pair file.

    sts scores must be finite and, given a (low, high) ``score_range``,
    within it.
    """
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}; choose from {TASKS}")
    path = Path(path)
    examples = []
    for lineno, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(f"expected 3 tab-separated fields, found {len(fields)}")
            score, label = _parse_gold(fields[2], task, score_range)
            t1, t2 = tokenize(fields[0]), tokenize(fields[1])
            if not t1 or not t2:
                raise DataError("empty sentence after tokenization")
            ex = SentencePairExample(t1, t2, gold_score=score, gold_label=label)
        except DataError as exc:
            if lenient:
                log.warning("%s line %d skipped: %s", path, lineno, exc)
                continue
            raise DataError(f"{path} line {lineno}: {exc}") from None
        examples.append(ex)
    return PairDataset(examples=examples, task=task, label_names=LABEL_NAMES.get(task))


def serialize_pairs(ds: PairDataset) -> str:
    """TSV text whose reload reproduces tokens and golds exactly."""
    lines = []
    for ex in ds.examples:
        if ds.task == "sts":
            gold = repr(ex.gold_score)
        else:
            gold = ds.label_names[ex.gold_label]
        lines.append("\t".join([" ".join(ex.tokens1), " ".join(ex.tokens2), gold]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# metrics


def pearson(x, y) -> float:
    """Pearson correlation; nan where it is undefined (fewer than two
    points, or a constant side).  A length mismatch raises DataError."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y):
        raise DataError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        return math.nan
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    if dx == 0.0 or dy == 0.0:
        return math.nan
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return cov / (dx * dy)


@dataclass
class ClassMetrics:
    accuracy: float
    f1: Optional[float] = None  # positive-class F1, binary tasks only


def classification_metrics(gold, pred) -> ClassMetrics:
    """Accuracy, plus F1 of class 1 when labels are binary."""
    gold = [int(g) for g in gold]
    pred = [int(p) for p in pred]
    if len(gold) != len(pred):
        raise DataError(f"length mismatch: {len(gold)} vs {len(pred)}")
    if not gold:
        raise DataError("need at least one prediction")
    acc = sum(g == p for g, p in zip(gold, pred)) / len(gold)
    if set(gold) | set(pred) <= {0, 1}:
        tp = sum(g == 1 and p == 1 for g, p in zip(gold, pred))
        fp = sum(g == 0 and p == 1 for g, p in zip(gold, pred))
        fn = sum(g == 1 and p == 0 for g, p in zip(gold, pred))
        denom = 2 * tp + fp + fn
        f1 = 2 * tp / denom if denom else 0.0
        return ClassMetrics(accuracy=acc, f1=f1)
    return ClassMetrics(accuracy=acc)

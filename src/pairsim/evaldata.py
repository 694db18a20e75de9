"""Sentence-pair datasets, tokenization, and evaluation metrics.

Datasets are UTF-8 TSV files, one example per line:

    sentence1 <TAB> sentence2 <TAB> gold

where gold is a decimal score for similarity ("sts") or a label string
for classification ("entailment": entailment / contradiction / neutral,
case-insensitive; "paraphrase": 0 / 1).  Label strings map to class
indices in those fixed orders.  Public benchmark releases are adapted
to this format by the conversion scripts under scripts/; the parser
itself stays deliberately small.

Malformed lines are fatal and name their line number, unless loading is
lenient, in which case they are logged and skipped.
"""

from __future__ import annotations

import logging
import math
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import DataError

log = logging.getLogger(__name__)

TASKS = ("sts", "entailment", "paraphrase")

LABEL_NAMES = {
    "entailment": ["entailment", "contradiction", "neutral"],
    "paraphrase": ["0", "1"],
}

_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenizer that splits off edge punctuation.

    Leading and trailing ASCII punctuation become their own tokens, in
    textual order; internal punctuation (don't, e.g.) stays attached.
    """
    tokens = []
    for chunk in text.lower().split():
        lead = []
        while chunk and chunk[0] in _PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in _PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
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
    vocab: set[str] = field(default_factory=set)

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


def load_pairs(path, task: str, lenient: bool = False, score_range=None) -> PairDataset:
    """Parse a TSV pair file; vocab is the union of all tokens.

    sts scores must be finite and, given a (low, high) ``score_range``,
    within it.
    """
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}; choose from {TASKS}")
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset {path} is not UTF-8: {exc}") from exc

    examples = []
    vocab = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        vocab.update(ex.tokens1)
        vocab.update(ex.tokens2)
    return PairDataset(examples=examples, task=task,
                       label_names=LABEL_NAMES.get(task), vocab=vocab)


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
    """Pearson correlation; undefined (an error) for constant input."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y):
        raise DataError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DataError("pearson needs at least 2 points")
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    if dx == 0.0 or dy == 0.0:
        raise DataError("correlation undefined for constant input")
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

"""End-to-end sentence-pair model: parameters, forward passes, losses.

A model is an encoder, a comparison stack, and a prediction head, plus
a frozen ``ModelSpec`` describing the architecture.  All trainable
arrays are reachable through ``named_parameters`` in a fixed canonical
order (encoder, comparison, head; field order as listed below); that
order defines both parameter initialization draws and the checkpoint
layout.  Every parameter is one plain array named ``<part>.<field>``;
the LSTM is the three fused arrays ``encoder.W_lstm``,
``encoder.U_lstm`` and ``encoder.b_lstm`` (gate blocks in i/f/o/u
order, see ``encoder``).

Word embeddings are data owned by the lexicon, never parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import comparison as cmp
from . import numcore as nc
from . import objectives as obj
from .encoder import ENCODER_KINDS, EncoderParams, encode, init_encoder
from .errors import ConfigError, NumericError
from .evaldata import PairDataset, SentencePairExample
from .rng import stream

# (part, fields) in canonical order
_FIELDS = (
    ("encoder", ("R", "b_r", "W_lstm", "U_lstm", "b_lstm", "W_proj", "b_proj")),
    ("comparison", ("W_word", "b_word", "W_neu", "b_neu", "W_sent", "b_sent",
                    "W_ws", "b_ws", "W_ws2", "b_ws2")),
    ("head", ("W_l1", "b_l1", "W_l2", "b_l2")),
)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and task description; everything a checkpoint must pin."""

    task: str                 # sts | entailment | paraphrase
    encoder: str              # one of ENCODER_KINDS
    comparison: str           # multi | sent
    total_dim: int            # fused word-vector width
    H: int                    # filter count
    l: int                    # LSTM memory dimension
    L: int                    # fixed comparison length (max_len)
    d_neu: int                # neural difference width
    C: int                    # output logits (score levels or classes)
    dropout_p: float = 0.5
    score: Optional[obj.ScoreSpec] = None
    label_names: Optional[list[str]] = None

    def __post_init__(self):
        if self.encoder not in ENCODER_KINDS:
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        if self.comparison not in cmp.COMPARISON_MODES:
            raise ConfigError(f"unknown comparison mode {self.comparison!r}")
        if self.comparison == "multi" and self.encoder not in ("maxcnn_only", "maxlstm"):
            raise ConfigError(
                f"multi-level comparison needs per-word features; encoder "
                f"{self.encoder!r} only supports comparison=sent")
        if self.task == "sts":
            if self.score is None:
                raise ConfigError("sts task needs a score spec")
            if self.C != self.score.K:
                raise ConfigError(
                    f"sts output width C={self.C} must equal score_k={self.score.K}")
        elif self.label_names is not None and self.C != len(self.label_names):
            raise ConfigError(
                f"output width C={self.C} does not match {len(self.label_names)} labels")


def spec_from_config(cfg, total_dim: int) -> ModelSpec:
    """Derive the architecture from a configuration object."""
    task = cfg.task
    if task == "sts":
        score = obj.ScoreSpec(K=cfg.score_k, raw_min=cfg.raw_min, raw_max=cfg.raw_max)
        C, labels = score.K, None
    elif task in ("entailment", "paraphrase"):
        from .evaldata import LABEL_NAMES
        score, labels = None, LABEL_NAMES[task]
        C = len(labels)
    else:
        raise ConfigError(f"unknown task {task!r}")
    return ModelSpec(task=task, encoder=cfg.encoder, comparison=cfg.comparison,
                     total_dim=total_dim, H=cfg.filters, l=cfg.lstm_dim,
                     L=cfg.max_len, d_neu=cfg.d_neu, C=C, dropout_p=cfg.dropout,
                     score=score, label_names=labels)


@dataclass
class ModelParams:
    spec: ModelSpec
    encoder: EncoderParams
    comparison: cmp.ComparisonParams
    head: cmp.HeadParams


def build_model(spec: ModelSpec, seed: Optional[int]) -> ModelParams:
    """Initialize all parameters from the seed's "init" stream.

    With seed None the weight matrices are allocated in the same order
    and sizes but not drawn, for a caller that overwrites every
    parameter (checkpoint loading).
    """
    rng = None if seed is None else stream(seed, "init")
    enc = init_encoder(spec.encoder, spec.total_dim, spec.H, spec.l, rng)
    comp = cmp.init_comparison(spec.comparison, enc.out_dim, enc.word_dim,
                               spec.L, spec.d_neu, rng)
    head = cmp.init_head(cmp.head_input_dim(spec.comparison), spec.C,
                         spec.dropout_p, rng)
    return ModelParams(spec=spec, encoder=enc, comparison=comp, head=head)


def named_parameters(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in the canonical checkpoint order."""
    out = []
    for part, fields in _FIELDS:
        obj_ = getattr(params, part)
        for f in fields:
            v = getattr(obj_, f)
            if v is not None:
                out.append((f"{part}.{f}", v))
    return out


def leaf_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    return dict(named_parameters(params))


def with_leaves(params: ModelParams, leaves) -> ModelParams:
    """Same structure with leaf arrays swapped for the mapping's values."""
    parts = {}
    for part, fields in _FIELDS:
        obj_ = getattr(params, part)
        parts[part] = replace(obj_, **{f: leaves.get(f"{part}.{f}", getattr(obj_, f))
                                       for f in fields})
    return ModelParams(spec=params.spec, **parts)


# ---------------------------------------------------------------------------
# forward passes


def encode_pair(params: ModelParams, lex, tokens1, tokens2):
    """Encodings of both sentences of a pair, from one batched encoder call."""
    e1, e2 = encode(params.encoder, lex, [tokens1, tokens2])
    return e1, e2


def pair_sims(params: ModelParams, e1, e2) -> tuple:
    """Similarity vectors for a pair of sentence encodings.

    Returns (sim_sent,) in sentence-only mode and
    (sim_word, sim_sent, sim_ws) in multi-level mode.
    """
    spec = params.spec
    sim_sent = cmp.sentence_sentence(params.comparison, e1.e_s, e2.e_s)
    if spec.comparison == "sent":
        return (sim_sent,)
    s1p = nc.pad_rows(e1.s_multi, spec.L)
    s2p = nc.pad_rows(e2.s_multi, spec.L)
    sim_word = cmp.word_word(params.comparison, s1p, s2p)
    sim_ws = cmp.word_sentence(params.comparison, e1.e_s, e2.e_s, s1p, s2p)
    return (sim_word, sim_sent, sim_ws)


def logits_from_sims(params: ModelParams, sims, training: bool = False, rng=None):
    if len(sims) == 1:
        return cmp.head_logits(params.head, sims[0], training, rng)
    return cmp.fuse_head(params.head, *sims, training=training, rng=rng)


def logits_from_encodings(params: ModelParams, e1, e2,
                          training: bool = False, rng=None):
    return logits_from_sims(params, pair_sims(params, e1, e2), training, rng)


def pair_logits(params: ModelParams, lex, tokens1, tokens2,
                training: bool = False, rng=None):
    """Logits for one sentence pair (pre-softmax)."""
    e1, e2 = encode_pair(params, lex, tokens1, tokens2)
    return logits_from_encodings(params, e1, e2, training, rng)


def loss_from_logits(params: ModelParams, logits, ex: SentencePairExample):
    spec = params.spec
    if spec.task == "sts":
        y = spec.score.map_raw(ex.gold_score)
        return obj.kl_loss(obj.sparse_target(y, spec.score.K), logits)
    return obj.ce_loss(ex.gold_label, logits)


def example_loss(params: ModelParams, lex, ex: SentencePairExample,
                 training: bool = False, rng=None):
    """Scalar loss for one example (KL for sts, cross entropy otherwise)."""
    logits = pair_logits(params, lex, ex.tokens1, ex.tokens2, training, rng)
    return loss_from_logits(params, logits, ex)


def batch_loss(params: ModelParams, lex, batch, training: bool = False, rng=None):
    """Mean example loss over a batch.

    All 2B sentences are encoded in one call.  Comparison, head, dropout
    and loss then run per pair in example order, so the dropout stream
    is drawn exactly as ``example_loss`` over the examples would draw it.
    """
    encs = encode(params.encoder, lex,
                  [tokens for ex in batch for tokens in (ex.tokens1, ex.tokens2)])
    total = None
    for ex, e1, e2 in zip(batch, encs[0::2], encs[1::2]):
        loss = loss_from_logits(
            params, logits_from_encodings(params, e1, e2, training, rng), ex)
        total = loss if total is None else nc.add(total, loss)
    return nc.scale(total, 1.0 / len(batch))


def predict_example(params: ModelParams, lex, tokens1, tokens2):
    """Inference: decoded raw-range score (sts) or class index.

    Raises NumericError when a logit is not finite, instead of returning
    a nan score or an arbitrary class.
    """
    logits = np.asarray(nc._value(
        pair_logits(params, lex, tokens1, tokens2, training=False)))
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite logits {logits.tolist()}")
    if params.spec.task == "sts":
        return obj.decode_score(logits, params.spec.score)
    return int(np.argmax(logits))


def dataset_metric(params: ModelParams, lex, ds: PairDataset) -> float:
    """Pearson for sts, accuracy otherwise, over a whole dataset."""
    from .evaldata import classification_metrics, pearson
    preds = [predict_example(params, lex, ex.tokens1, ex.tokens2)
             for ex in ds.examples]
    if params.spec.task == "sts":
        return pearson(preds, [ex.gold_score for ex in ds.examples])
    return classification_metrics([ex.gold_label for ex in ds.examples],
                                  preds).accuracy

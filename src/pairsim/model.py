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
from .evaldata import PairDataset
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
#
# A batch of B pairs runs as one forward pass.  Its 2B sentences are
# encoded in one call, interleaved (first and second sentence of pair 0,
# then of pair 1, ...), so that reshaping the (2B, ...) encodings gives
# the (B, 2, ...) pair stacks the comparison takes, without a copy.


def encode_pairs(params: ModelParams, lex, pairs):
    """``SentenceBatch`` of the 2B sentences of (tokens1, tokens2) pairs."""
    return encode(params.encoder, lex, [tokens for pair in pairs for tokens in pair])


def pair_sims(params: ModelParams, enc) -> tuple:
    """(B, ·) similarity arrays of the pairs of an ``encode_pairs`` result.

    Returns (sim_sent,) in sentence-only mode and
    (sim_word, sim_sent, sim_ws) in multi-level mode.
    """
    spec = params.spec
    B = len(enc.lengths) // 2
    e_pairs = nc.reshape(enc.e_s, (B, 2, -1))
    sim_sent = cmp.sentence_sentence(params.comparison, e_pairs)
    if spec.comparison == "sent":
        return (sim_sent,)
    s_pairs = nc.reshape(nc.pad_rows(enc.words, enc.lengths, spec.L), (B, 2, spec.L, -1))
    sim_word = cmp.word_word(params.comparison, s_pairs)
    sim_ws = cmp.word_sentence(params.comparison, e_pairs, s_pairs)
    return (sim_word, sim_sent, sim_ws)


def logits_from_sims(params: ModelParams, sims, training: bool = False, rng=None):
    if len(sims) == 1:
        return cmp.head_logits(params.head, sims[0], training, rng)
    return cmp.fuse_head(params.head, *sims, training=training, rng=rng)


def pair_logits(params: ModelParams, lex, pairs, training: bool = False, rng=None):
    """(B, C) logits (pre-softmax) of (tokens1, tokens2) pairs."""
    return logits_from_sims(params, pair_sims(params, encode_pairs(params, lex, pairs)),
                            training, rng)


def loss_from_logits(params: ModelParams, logits, batch):
    """Mean example loss of (B, C) logits: KL for sts, cross entropy otherwise."""
    spec = params.spec
    if spec.task == "sts":
        targets = np.array([obj.sparse_target(spec.score.map_raw(ex.gold_score),
                                              spec.score.K) for ex in batch])
        losses = obj.kl_loss(targets, logits)
    else:
        losses = obj.ce_loss(np.array([ex.gold_label for ex in batch]), logits)
    return nc.scale(nc.vsum(losses), 1.0 / len(batch))


def batch_loss(params: ModelParams, lex, batch, training: bool = False, rng=None):
    """Mean example loss over a batch of examples, in one forward pass.

    The dropout mask is one (B, 250) draw, which takes the same numbers
    from the stream as B per-example draws in example order.
    """
    logits = pair_logits(params, lex, [(ex.tokens1, ex.tokens2) for ex in batch],
                         training, rng)
    return loss_from_logits(params, logits, batch)


def predict(params: ModelParams, lex, pairs, block: int) -> list:
    """Inference over (tokens1, tokens2) pairs, ``block`` pairs per forward
    pass: decoded raw-range scores (sts) or class indices.

    Raises NumericError when a logit is not finite, instead of returning
    a nan score or an arbitrary class.
    """
    out = []
    for lo in range(0, len(pairs), block):
        logits = np.asarray(nc._value(pair_logits(params, lex, pairs[lo:lo + block])))
        if not np.isfinite(logits).all():
            raise NumericError(f"non-finite logits {logits.tolist()}")
        if params.spec.task == "sts":
            out += [obj.decode_score(z, params.spec.score) for z in logits]
        else:
            out += logits.argmax(axis=1).tolist()
    return out


def predict_example(params: ModelParams, lex, tokens1, tokens2):
    """Inference for one pair, as a batch of one."""
    return predict(params, lex, [(tokens1, tokens2)], 1)[0]


def dataset_metric(params: ModelParams, lex, ds: PairDataset, block: int) -> float:
    """Pearson for sts, accuracy otherwise, over a whole dataset predicted
    ``block`` pairs at a time."""
    from .evaldata import classification_metrics, pearson
    preds = predict(params, lex, [(ex.tokens1, ex.tokens2) for ex in ds.examples], block)
    if params.spec.task == "sts":
        return pearson(preds, [ex.gold_score for ex in ds.examples])
    return classification_metrics([ex.gold_label for ex in ds.examples],
                                  preds).accuracy

"""End-to-end sentence-pair model: parameters, forward passes, losses.

A model is an encoder, a comparison stack and a prediction head, plus a
frozen ``ModelSpec`` describing the architecture.  ``parameter_shapes``
alone decides which trainable arrays a spec has, their names
(``<part>.<field>``: ``encoder.R``, ``comparison.W_ws``, ``head.b_l2``,
...) and shapes, and their canonical order: encoder, comparison, head,
which is also the checkpoint layout.  The LSTM is the three fused arrays
``encoder.W_lstm``, ``encoder.U_lstm`` and ``encoder.b_lstm`` (gate
blocks in i/f/o/u order, see ``encoder``).

A built or loaded model keeps all its parameters in one flat float64
buffer, ``ModelParams.flat``: the arrays one after another in canonical
order, their order in a checkpoint too.  ``ModelParams.w`` maps each
name to its view of the buffer; inside a training step or a gradient
check it maps each name to a tape leaf instead, and the forward passes
read their weights by name from it either way.  The optimizer keeps its
state in buffers of the same layout, so that an update is one sweep.

Word embeddings are data owned by the lexicon, never parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import comparison as cmp
from . import encoder
from . import numcore as nc
from . import objectives as obj
from . import threads
from .errors import ConfigError, NumericError
from .evaldata import LABEL_NAMES, TASKS, PairDataset, classification_metrics, pearson
from .rng import stream

# the Glorot-drawn weights in their draw order, which is not the
# canonical order: the comparison draws W_neu and W_sent before W_word.
# Every other parameter starts at 0, the LSTM's forget-gate biases at 1.
_DRAW_ORDER = ("encoder.R", "encoder.W_lstm", "encoder.U_lstm", "encoder.W_proj",
               "comparison.W_neu", "comparison.W_sent", "comparison.W_word",
               "comparison.W_ws", "comparison.W_ws2", "head.W_l1", "head.W_l2")
_GATED = ("encoder.W_lstm", "encoder.U_lstm")     # one Glorot block per gate, i/f/o/u


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and task description; everything a checkpoint must
    pin.  Constructing one checks every architecture rule."""

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
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; choose from {TASKS}")
        if self.encoder not in encoder.ENCODER_KINDS:
            raise ConfigError(f"unknown encoder {self.encoder!r}; "
                              f"choose from {encoder.ENCODER_KINDS}")
        if self.comparison not in cmp.COMPARISON_MODES:
            raise ConfigError(f"unknown comparison mode {self.comparison!r}; "
                              f"choose from {cmp.COMPARISON_MODES}")
        if self.comparison == "multi" and self.encoder not in encoder.WORD_FEATURE_KINDS:
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
        dims = dict(total_dim=self.total_dim, filters=self.H, lstm_dim=self.l,
                    max_len=self.L, d_neu=self.d_neu)
        for key, v in dims.items():
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigError(f"{key} must be a positive integer, got {v!r}")
        if not isinstance(self.C, (int, np.integer)) or self.C < 2:
            raise ConfigError(f"head needs at least 2 outputs, got {self.C!r}")


def spec_from_config(cfg, total_dim: int) -> ModelSpec:
    """Derive the architecture from a configuration object; ConfigError
    if the configuration names no valid model."""
    task = cfg.task
    if task == "sts":
        score = obj.ScoreSpec(K=cfg.score_k, raw_min=cfg.raw_min, raw_max=cfg.raw_max)
        C, labels = score.K, None
    else:
        score, labels = None, LABEL_NAMES.get(task, [])
        C = len(labels)
    return ModelSpec(task=task, encoder=cfg.encoder, comparison=cfg.comparison,
                     total_dim=total_dim, H=cfg.filters, l=cfg.lstm_dim,
                     L=cfg.max_len, d_neu=cfg.d_neu, C=C, dropout_p=cfg.dropout,
                     score=score, label_names=labels)


def parameter_shapes(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter of the spec's model, in canonical
    order.  Allocates nothing."""
    T, H, l, L = spec.total_dim, spec.H, spec.l, spec.L
    enc = []
    if spec.encoder in encoder.WORD_FEATURE_KINDS:
        enc += [("R", (H, T)), ("b_r", (H,))]
    lstm_in = {"maxlstm": H, "lstm_only": T}.get(spec.encoder)
    if lstm_in is not None:
        enc += [("W_lstm", (4 * l, lstm_in)), ("U_lstm", (4 * l, l)), ("b_lstm", (4 * l,))]
    if spec.encoder == "proj_avg":
        enc += [("W_proj", (T, T)), ("b_proj", (T,))]
    e = {"word_avg": T, "proj_avg": T, "lstm_only": l, "maxcnn_only": H,
         "maxlstm": H + l}[spec.encoder]      # sentence embedding width
    sent = [("W_neu", (spec.d_neu, 2 * e)), ("b_neu", (spec.d_neu,)),
            ("W_sent", (cmp.SENT_SIM_DIM, 1 + 2 * e + spec.d_neu)),
            ("b_sent", (cmp.SENT_SIM_DIM,))]
    if spec.comparison == "multi":
        comp = ([("W_word", (cmp.WORD_SIM_DIM, L * L)), ("b_word", (cmp.WORD_SIM_DIM,))]
                + sent
                + [("W_ws", (cmp.WS_ROW_DIM, e + H)), ("b_ws", (cmp.WS_ROW_DIM,)),
                   ("W_ws2", (cmp.WS_SIM_DIM, 2 * L * cmp.WS_ROW_DIM)),
                   ("b_ws2", (cmp.WS_SIM_DIM,))])
        head_in = cmp.WORD_SIM_DIM + cmp.SENT_SIM_DIM + cmp.WS_SIM_DIM
    else:
        comp, head_in = sent, cmp.SENT_SIM_DIM
    head = [("W_l1", (cmp.HEAD_HIDDEN, head_in)), ("b_l1", (cmp.HEAD_HIDDEN,)),
            ("W_l2", (spec.C, cmp.HEAD_HIDDEN)), ("b_l2", (spec.C,))]
    return [(f"{part}.{name}", shape)
            for part, named in (("encoder", enc), ("comparison", comp), ("head", head))
            for name, shape in named]


def flat_views(shapes, buf: np.ndarray) -> dict[str, np.ndarray]:
    """name -> the view of the 1-d ``buf`` at that parameter's offset, for
    (name, shape) pairs laid out one after another."""
    views, off = {}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = buf[off:off + size].reshape(shape)
        off += size
    return views


@dataclass
class ModelParams:
    spec: ModelSpec
    w: dict                                # name -> array (or tape leaf), canonical order
    flat: Optional[np.ndarray] = None      # the buffer the arrays of w view, if any


def glorot(rng: np.random.Generator, rows: int, cols: int, blocks: int = 1) -> np.ndarray:
    """Glorot-uniform (rows, cols) matrix; with blocks > 1, that many
    independent draws stacked row-wise, equal to drawing them in turn."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(blocks * rows, cols))


def build_model(spec: ModelSpec, seed: int) -> ModelParams:
    """All parameters as views of one flat buffer, initialized from the
    seed's "init" stream in ``_DRAW_ORDER``; every other parameter
    starts at 0, the LSTM's forget-gate biases at 1."""
    shapes = parameter_shapes(spec)
    flat = np.zeros(sum(math.prod(shape) for _, shape in shapes))
    w = flat_views(shapes, flat)
    rng = stream(seed, "init")
    for name in _DRAW_ORDER:
        if name in w:
            blocks = 4 if name in _GATED else 1
            rows, cols = w[name].shape
            w[name][...] = glorot(rng, rows // blocks, cols, blocks)
    if "encoder.b_lstm" in w:
        w["encoder.b_lstm"][spec.l:2 * spec.l] = 1.0      # forget gate
    return ModelParams(spec, w, flat)


def is_flat(params: ModelParams) -> bool:
    """Whether every parameter is a view of ``params.flat`` and together
    they cover it, so that updating the buffer updates them."""
    flat = params.flat
    return (flat is not None and all(arr.base is flat for arr in params.w.values())
            and sum(arr.size for arr in params.w.values()) == flat.size)


# ---------------------------------------------------------------------------
# forward passes
#
# A batch of B pairs runs as one forward pass.  Its 2B sentences are
# encoded in one call, interleaved (first and second sentence of pair 0,
# then of pair 1, ...), so that reshaping the (2B, ...) encodings gives
# the (B, 2, ...) pair stacks the comparison takes, without a copy.


def encode_pairs(params: ModelParams, lex, pairs):
    """``SentenceBatch`` of the 2B sentences of (tokens1, tokens2) pairs."""
    return encoder.encode(params.spec.encoder, params.w, lex,
                          [tokens for pair in pairs for tokens in pair])


def pair_sims(params: ModelParams, enc) -> tuple:
    """(B, ·) similarity arrays of the pairs of an ``encode_pairs`` result.

    Returns (sim_sent,) in sentence-only mode and
    (sim_word, sim_sent, sim_ws) in multi-level mode.
    """
    spec = params.spec
    B = len(enc.lengths) // 2
    e_pairs = nc.reshape(enc.e_s, (B, 2, -1))
    sim_sent = cmp.sentence_sentence(params.w, e_pairs)
    if spec.comparison == "sent":
        return (sim_sent,)
    s_pairs = nc.reshape(nc.pad_rows(enc.words, enc.lengths, spec.L), (B, 2, spec.L, -1))
    sim_word = cmp.word_word(params.w, s_pairs)
    sim_ws = cmp.word_sentence(params.w, e_pairs, s_pairs)
    return (sim_word, sim_sent, sim_ws)


def logits_from_sims(params: ModelParams, sims, training: bool = False, rng=None):
    p = params.spec.dropout_p
    if len(sims) == 1:
        return cmp.head_logits(params.w, sims[0], p, training, rng)
    return cmp.fuse_head(params.w, *sims, p, training, rng)


def pair_logits(params: ModelParams, lex, pairs, training: bool = False, rng=None):
    """(B, C) logits (pre-softmax) of (tokens1, tokens2) pairs."""
    return logits_from_sims(params, pair_sims(params, encode_pairs(params, lex, pairs)),
                            training, rng)


def loss_from_logits(params: ModelParams, logits, batch):
    """Mean example loss of (B, C) logits: the KL divergence of their
    softmax from each example's target, sparse over the score levels for
    sts and one-hot on the gold class (cross entropy) otherwise."""
    spec = params.spec
    if spec.task == "sts":
        targets = [obj.sparse_target(spec.score.map_raw(ex.gold_score), spec.score.K)
                   for ex in batch]
    else:
        targets = [obj.one_hot_target(ex.gold_label, spec.C) for ex in batch]
    return nc.scale(nc.vsum(obj.kl_loss(np.array(targets), logits)), 1.0 / len(batch))


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
    a nan score or an arbitrary class.  The call runs OpenBLAS at one
    thread (``threads.one_blas_thread``).
    """
    out = []
    with threads.one_blas_thread():
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
    ``block`` pairs at a time; nan where Pearson is undefined (constant
    predictions or golds)."""
    preds = predict(params, lex, [(ex.tokens1, ex.tokens2) for ex in ds.examples], block)
    if params.spec.task == "sts":
        return pearson(preds, [ex.gold_score for ex in ds.examples])
    return classification_metrics([ex.gold_label for ex in ds.examples],
                                  preds).accuracy

"""Multi-level comparison of encoded sentence pairs, a batch at a time.

Three similarity vectors are computed and fused:

* word-word: all-pairs cosine between the two sentences' word feature
  rows (padded/truncated to a fixed length L), flattened through an
  affine + sigmoid into 50 features.
* sentence-sentence: cosine, elementwise product, absolute difference,
  and an affine "neural difference" of the two sentence embeddings,
  concatenated and squashed into 5 features.
* word-sentence: each word row of one sentence is paired with the other
  sentence's embedding, squashed to 5 features per word; both directions
  are flattened and combined into 100 features.

The fused 155-feature vector feeds a 250-unit sigmoid layer (with
dropout in training) and a final affine map producing logits.  In
sentence-only mode ("sent") the head consumes just the 5 sentence-level
features; word-level weights are not allocated.

Output widths 50 / 5 / 5 / 100 and the 250-unit head are architecture
constants; the comparison length L and neural-difference width d_neu
are configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore as nc
from .encoder import glorot
from .errors import ConfigError, ShapeError

WORD_SIM_DIM = 50      # width of the word-word similarity vector
SENT_SIM_DIM = 5       # width of the sentence-sentence similarity vector
WS_ROW_DIM = 5         # per-word width in word-sentence comparison
WS_SIM_DIM = 100       # width of the word-sentence similarity vector
HEAD_HIDDEN = 250      # penultimate fully-connected layer width

COMPARISON_MODES = ("multi", "sent")


@dataclass
class ComparisonParams:
    """Trainable comparison weights; word-level fields exist in multi mode."""

    L: int
    d_neu: int
    e_dim: int                            # sentence embedding width
    word_dim: Optional[int] = None        # per-word feature width (multi mode)
    W_word: Optional[np.ndarray] = None   # (50, L*L)
    b_word: Optional[np.ndarray] = None
    W_neu: Optional[np.ndarray] = None    # (d_neu, 2*e_dim)
    b_neu: Optional[np.ndarray] = None
    W_sent: Optional[np.ndarray] = None   # (5, 1 + 2*e_dim + d_neu)
    b_sent: Optional[np.ndarray] = None
    W_ws: Optional[np.ndarray] = None     # (5, e_dim + word_dim)
    b_ws: Optional[np.ndarray] = None
    W_ws2: Optional[np.ndarray] = None    # (100, 2*L*5)
    b_ws2: Optional[np.ndarray] = None


@dataclass
class HeadParams:
    """Prediction head: sigmoid hidden layer, dropout, output logits."""

    in_dim: int
    C: int
    dropout_p: float
    W_l1: np.ndarray = None               # (250, in_dim)
    b_l1: np.ndarray = None
    W_l2: np.ndarray = None               # (C, 250)
    b_l2: np.ndarray = None


def init_comparison(mode: str, e_dim: int, word_dim: Optional[int], L: int,
                    d_neu: int, rng: Optional[np.random.Generator]) -> ComparisonParams:
    if mode not in COMPARISON_MODES:
        raise ConfigError(f"unknown comparison mode {mode!r}; choose from {COMPARISON_MODES}")
    if L < 1 or d_neu < 1:
        raise ConfigError(f"max_len and d_neu must be positive, got {L}, {d_neu}")
    p = ComparisonParams(L=L, d_neu=d_neu, e_dim=e_dim, word_dim=word_dim)
    p.W_neu = glorot(rng, d_neu, 2 * e_dim)
    p.b_neu = np.zeros(d_neu)
    p.W_sent = glorot(rng, SENT_SIM_DIM, 1 + 2 * e_dim + d_neu)
    p.b_sent = np.zeros(SENT_SIM_DIM)
    if mode == "multi":
        if word_dim is None:
            raise ConfigError(
                "multi-level comparison needs per-word features; "
                "use a maxcnn_only or maxlstm encoder or comparison=sent")
        p.W_word = glorot(rng, WORD_SIM_DIM, L * L)
        p.b_word = np.zeros(WORD_SIM_DIM)
        p.W_ws = glorot(rng, WS_ROW_DIM, e_dim + word_dim)
        p.b_ws = np.zeros(WS_ROW_DIM)
        p.W_ws2 = glorot(rng, WS_SIM_DIM, 2 * L * WS_ROW_DIM)
        p.b_ws2 = np.zeros(WS_SIM_DIM)
    return p


def init_head(in_dim: int, C: int, dropout_p: float,
              rng: Optional[np.random.Generator]) -> HeadParams:
    if C < 2:
        raise ConfigError(f"head needs at least 2 outputs, got {C}")
    return HeadParams(
        in_dim=in_dim, C=C, dropout_p=dropout_p,
        W_l1=glorot(rng, HEAD_HIDDEN, in_dim), b_l1=np.zeros(HEAD_HIDDEN),
        W_l2=glorot(rng, C, HEAD_HIDDEN), b_l2=np.zeros(C))


def head_input_dim(mode: str) -> int:
    return WORD_SIM_DIM + SENT_SIM_DIM + WS_SIM_DIM if mode == "multi" else SENT_SIM_DIM


# ---------------------------------------------------------------------------
# operations
#
# Every operation takes a batch of pairs as pair stacks: sentence
# embeddings (B, 2, e) and padded word rows (B, 2, L, H), where [i, 0]
# is the first sentence of pair i and [i, 1] the second.  Row i of the
# result belongs to pair i.  A single pair may also be passed without
# the batch axis, as (2, e) and (2, L, H).

_FIRST, _SECOND = np.s_[..., 0, :], np.s_[..., 1, :]             # of (B, 2, e)
_FIRST_ROWS, _SECOND_ROWS = np.s_[..., 0, :, :], np.s_[..., 1, :, :]  # of (B, 2, L, H)


def _lead(x, n: int) -> tuple:
    """The batch axes of x: all but the last n."""
    return nc._value(x).shape[:-n]


def word_word(params: ComparisonParams, s_pairs):
    """(B, 50) word-word similarity from the flattened cosine tables
    A[i, j] = cosine(row i of sentence 1, row j of sentence 2), where
    padded rows give 0."""
    A = nc.cosine_rows(nc.take(s_pairs, _FIRST_ROWS), nc.take(s_pairs, _SECOND_ROWS))
    flat = nc.reshape(A, _lead(A, 2) + (params.L * params.L,))
    return nc.sigmoid(nc.affine_rows(flat, params.W_word, params.b_word))


def sentence_features(params: ComparisonParams, e_pairs):
    """Concatenated metrics: cosine ++ product ++ |diff| ++ neural difference."""
    d_cos = nc.take(nc.cosine_rows(e_pairs, e_pairs), np.s_[..., 0, 1:])
    e1, e2 = nc.take(e_pairs, _FIRST), nc.take(e_pairs, _SECOND)
    d_mul = nc.elementwise_mul(e1, e2)
    d_abs = nc.abs_diff(e1, e2)
    both = nc.reshape(e_pairs, _lead(e_pairs, 2) + (2 * params.e_dim,))    # e1 ++ e2
    d_neu = nc.affine_rows(both, params.W_neu, params.b_neu)
    return nc.concat(d_cos, d_mul, d_abs, d_neu)


def sentence_sentence(params: ComparisonParams, e_pairs):
    """(B, 5) sentence-sentence similarity."""
    d = sentence_features(params, e_pairs)
    return nc.sigmoid(nc.affine_rows(d, params.W_sent, params.b_sent))


def ws_rows(params: ComparisonParams, e_pairs, s_pairs):
    """(B, 2, L, 5) rows of both directions: [i, 0, j] squashes the first
    sentence's embedding joined to word j of the second through the ws
    weights, and [i, 1, j] the second's joined to word j of the first.

    W_ws is applied as its two column blocks, the sentence block to the
    embeddings and the word block to the words, so the (L, e + H) joined
    rows are never built.
    """
    e = params.e_dim
    a = nc.affine_rows(e_pairs, nc.take(params.W_ws, np.s_[:, :e]), params.b_ws)
    w = nc.affine_rows(s_pairs, nc.take(params.W_ws, np.s_[:, e:]))
    crossed = nc.take(w, np.s_[..., ::-1, :, :])        # each slot gets the other's words
    return nc.sigmoid(nc.add(crossed, nc.reshape(a, _lead(a, 2) + (2, 1, WS_ROW_DIM))))


def word_sentence_features(params: ComparisonParams, e_pairs, s_pairs):
    """Both directions' row matrices, flattened and concatenated in order
    (sentence-1 embedding vs words of sentence 2, then the reverse)."""
    m = ws_rows(params, e_pairs, s_pairs)
    return nc.reshape(m, _lead(m, 3) + (2 * params.L * WS_ROW_DIM,))


def word_sentence(params: ComparisonParams, e_pairs, s_pairs):
    """(B, 100) word-sentence similarity."""
    feats = word_sentence_features(params, e_pairs, s_pairs)
    return nc.sigmoid(nc.affine_rows(feats, params.W_ws2, params.b_ws2))


def head_logits(head: HeadParams, sim, training: bool = False, rng=None):
    """Hidden sigmoid layer with optional dropout, then (B, C) logits.

    The dropout mask is one (B, 250) draw.
    """
    h = nc.sigmoid(nc.affine_rows(sim, head.W_l1, head.b_l1))
    h = nc.dropout(h, head.dropout_p, training, rng)
    return nc.affine_rows(h, head.W_l2, head.b_l2)


def fuse_head(head: HeadParams, sim_word, sim_sent, sim_ws,
              training: bool = False, rng=None):
    """Concatenate the three similarity vectors and produce logits."""
    sim = nc.concat(sim_word, sim_sent, sim_ws)
    width = nc._value(sim).shape[-1]
    if width != head.in_dim:
        raise ShapeError(
            f"fused similarity width {width} does not match head input {head.in_dim}")
    return head_logits(head, sim, training, rng)

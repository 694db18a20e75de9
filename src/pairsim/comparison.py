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
features; word-level weights do not exist.

Output widths 50 / 5 / 5 / 100 and the 250-unit head are architecture
constants; the comparison length L and neural-difference width d_neu
are configuration.  Every function reads its weights by name from a
mapping (``model.ModelParams.w`` or a tape's leaves), ``comparison.W_ws``
or ``head.W_l1`` say, and takes its dimensions from the shapes of its
arguments; ``model.parameter_shapes`` decides which weights exist:

* ``comparison.W_word`` (50, L*L), ``comparison.W_neu`` (d_neu, 2e),
  ``comparison.W_sent`` (5, 1 + 2e + d_neu), ``comparison.W_ws``
  (5, e + H) and ``comparison.W_ws2`` (100, 10 L), each with its bias
  ``b_*``, where e is the sentence embedding width and H the word row
  width;
* ``head.W_l1`` (250, 155 or 5) and ``head.W_l2`` (C, 250), with biases.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc

WORD_SIM_DIM = 50      # width of the word-word similarity vector
SENT_SIM_DIM = 5       # width of the sentence-sentence similarity vector
WS_ROW_DIM = 5         # per-word width in word-sentence comparison
WS_SIM_DIM = 100       # width of the word-sentence similarity vector
HEAD_HIDDEN = 250      # penultimate fully-connected layer width

COMPARISON_MODES = ("multi", "sent")


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


def word_word(w, s_pairs):
    """(B, 50) word-word similarity from the flattened cosine tables
    A[i, j] = cosine(row i of sentence 1, row j of sentence 2), where
    padded rows give 0."""
    A = nc.cosine_rows(nc.take(s_pairs, _FIRST_ROWS), nc.take(s_pairs, _SECOND_ROWS))
    flat = nc.reshape(A, _lead(A, 2) + (-1,))
    return nc.sigmoid(nc.affine_rows(flat, w["comparison.W_word"], w["comparison.b_word"]))


def sentence_features(w, e_pairs):
    """Concatenated metrics: cosine ++ product ++ |diff| ++ neural difference."""
    d_cos = nc.take(nc.cosine_rows(e_pairs, e_pairs), np.s_[..., 0, 1:])
    e1, e2 = nc.take(e_pairs, _FIRST), nc.take(e_pairs, _SECOND)
    d_mul = nc.elementwise_mul(e1, e2)
    d_abs = nc.abs_diff(e1, e2)
    both = nc.reshape(e_pairs, _lead(e_pairs, 2) + (-1,))    # e1 ++ e2
    d_neu = nc.affine_rows(both, w["comparison.W_neu"], w["comparison.b_neu"])
    return nc.concat(d_cos, d_mul, d_abs, d_neu)


def sentence_sentence(w, e_pairs):
    """(B, 5) sentence-sentence similarity."""
    d = sentence_features(w, e_pairs)
    return nc.sigmoid(nc.affine_rows(d, w["comparison.W_sent"], w["comparison.b_sent"]))


def ws_rows(w, e_pairs, s_pairs):
    """(B, 2, L, 5) rows of both directions: [i, 0, j] squashes the first
    sentence's embedding joined to word j of the second through the ws
    weights, and [i, 1, j] the second's joined to word j of the first.

    W_ws is applied as its two column blocks, the sentence block to the
    embeddings and the word block to the words, so the (L, e + H) joined
    rows are never built.
    """
    e = nc._value(e_pairs).shape[-1]
    W_ws = w["comparison.W_ws"]
    a = nc.affine_rows(e_pairs, nc.take(W_ws, np.s_[:, :e]), w["comparison.b_ws"])
    words = nc.affine_rows(s_pairs, nc.take(W_ws, np.s_[:, e:]))
    crossed = nc.take(words, np.s_[..., ::-1, :, :])    # each slot gets the other's words
    return nc.sigmoid(nc.add(crossed, nc.reshape(a, _lead(a, 2) + (2, 1, WS_ROW_DIM))))


def word_sentence_features(w, e_pairs, s_pairs):
    """Both directions' row matrices, flattened and concatenated in order
    (sentence-1 embedding vs words of sentence 2, then the reverse)."""
    m = ws_rows(w, e_pairs, s_pairs)
    return nc.reshape(m, _lead(m, 3) + (-1,))


def word_sentence(w, e_pairs, s_pairs):
    """(B, 100) word-sentence similarity."""
    feats = word_sentence_features(w, e_pairs, s_pairs)
    return nc.sigmoid(nc.affine_rows(feats, w["comparison.W_ws2"], w["comparison.b_ws2"]))


def head_logits(w, sim, dropout_p: float, training: bool = False, rng=None):
    """Hidden sigmoid layer with dropout of probability ``dropout_p`` in
    training, then (B, C) logits.

    The dropout mask is one (B, 250) draw.
    """
    h = nc.sigmoid(nc.affine_rows(sim, w["head.W_l1"], w["head.b_l1"]))
    h = nc.dropout(h, dropout_p, training, rng)
    return nc.affine_rows(h, w["head.W_l2"], w["head.b_l2"])


def fuse_head(w, sim_word, sim_sent, sim_ws, dropout_p: float,
              training: bool = False, rng=None):
    """Concatenate the three similarity vectors and produce logits."""
    return head_logits(w, nc.concat(sim_word, sim_sent, sim_ws), dropout_p, training, rng)

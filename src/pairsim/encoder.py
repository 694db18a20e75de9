"""Sentence encoders over fused word vectors.

The main encoder ("maxlstm") turns each word's concatenated embedding
into a sigmoid-filtered feature vector, then summarizes the sentence
two ways at once: a per-dimension max over words (order-blind) and the
final hidden state of an LSTM run over the word sequence (order-aware).
The sentence embedding is the concatenation of the two.

Four reduced encoders share the same calling convention so the
comparison and objective stack can be reused unchanged for ablations:

* ``word_avg``     mean of the concatenated word embeddings (no parameters)
* ``proj_avg``     sigmoid of an affine map of that mean
* ``lstm_only``    LSTM final state over the raw concatenated embeddings
* ``maxcnn_only``  sigmoid filters + max pooling, no LSTM

Only ``maxcnn_only`` and ``maxlstm`` produce per-word feature matrices,
so only they can feed word-level comparison.

The LSTM is stored as three fused arrays, ``W_lstm`` (4l, k),
``U_lstm`` (4l, l) and ``b_lstm`` (4l,): each holds the input, forget,
output and candidate gates as consecutive blocks of l rows, the layout
``numcore.lstm_last_state`` computes with.  k is H for ``maxlstm`` and
the fused word-vector width for ``lstm_only``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore as nc
from .embeddings import FusedLexicon
from .errors import ConfigError, DataError

ENCODER_KINDS = ("word_avg", "proj_avg", "lstm_only", "maxcnn_only", "maxlstm")


@dataclass
class EncoderParams:
    """Trainable state of one encoder plus its dimensions."""

    kind: str
    total_dim: int
    H: int
    l: int
    R: Optional[np.ndarray] = None        # (H, total_dim) sigmoid filters
    b_r: Optional[np.ndarray] = None      # (H,)
    W_lstm: Optional[np.ndarray] = None   # (4l, k) LSTM input weights, gates i/f/o/u
    U_lstm: Optional[np.ndarray] = None   # (4l, l) LSTM recurrent weights
    b_lstm: Optional[np.ndarray] = None   # (4l,) LSTM biases
    W_proj: Optional[np.ndarray] = None   # (total_dim, total_dim), proj_avg only
    b_proj: Optional[np.ndarray] = None

    @property
    def out_dim(self) -> int:
        """Width of the sentence embedding this encoder produces."""
        return {"word_avg": self.total_dim, "proj_avg": self.total_dim,
                "lstm_only": self.l, "maxcnn_only": self.H,
                "maxlstm": self.H + self.l}[self.kind]

    @property
    def word_dim(self) -> Optional[int]:
        """Width of per-word feature rows, if this encoder produces them."""
        return self.H if self.kind in ("maxcnn_only", "maxlstm") else None


@dataclass
class SentenceBatch:
    """Encodings of a list of sentences, one row per sentence.

    ``words`` packs the per-word feature rows of all sentences, sentence
    after sentence, as one (N, H) matrix with N = sum(lengths); it exists
    only for the encoders that make such rows.
    """

    lengths: list[int]       # words per sentence
    words: object = None     # (N, H) per-word feature rows, when available
    e_max: object = None     # (S, H) max-pooled embeddings
    e_lstm: object = None    # (S, l) LSTM final states
    e_s: object = None       # (S, out_dim) sentence embeddings fed to comparisons


def glorot(rng: Optional[np.random.Generator], rows: int, cols: int,
           blocks: int = 1) -> np.ndarray:
    """Glorot-uniform (rows, cols) matrix; with blocks > 1, that many
    independent draws stacked row-wise, equal to drawing them in turn.
    With rng None the array is allocated but not drawn (left unset)."""
    if rng is None:
        return np.empty((blocks * rows, cols))
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(blocks * rows, cols))


def init_encoder(kind: str, total_dim: int, H: int, l: int,
                 rng: Optional[np.random.Generator]) -> EncoderParams:
    if kind not in ENCODER_KINDS:
        raise ConfigError(f"unknown encoder kind {kind!r}; choose from {ENCODER_KINDS}")
    if H < 1 or l < 1:
        raise ConfigError(f"encoder dims must be positive, got filters={H} lstm_dim={l}")
    p = EncoderParams(kind=kind, total_dim=total_dim, H=H, l=l)
    if kind in ("maxcnn_only", "maxlstm"):
        p.R = glorot(rng, H, total_dim)
        p.b_r = np.zeros(H)
    lstm_in = {"maxlstm": H, "lstm_only": total_dim}.get(kind)
    if lstm_in is not None:
        # one Glorot block per gate, drawn in i/f/o/u order, W before U
        p.W_lstm = glorot(rng, l, lstm_in, blocks=4)
        p.U_lstm = glorot(rng, l, l, blocks=4)
        p.b_lstm = np.zeros(4 * l)
        p.b_lstm[l:2 * l] = 1.0     # forget gate
    elif kind == "proj_avg":
        p.W_proj = glorot(rng, total_dim, total_dim)
        p.b_proj = np.zeros(total_dim)
    return p


def encode(params: EncoderParams, lex: FusedLexicon, token_seqs) -> SentenceBatch:
    """Encode token sequences with whichever encoder ``params`` holds.

    Row j of every field of the result belongs to token_seqs[j].  The
    filters run as one GEMM over the packed words of all sequences; the
    max pooling and the LSTM take the packed rows and the lengths.
    """
    if not token_seqs or not all(token_seqs):
        raise DataError("cannot encode an empty token sequence")
    lengths = [len(tokens) for tokens in token_seqs]
    # (N, total_dim) fixed data, sentence after sentence
    E = lex.lookup_all([w for tokens in token_seqs for w in tokens])
    kind = params.kind

    if kind in ("word_avg", "proj_avg"):
        ns = np.array(lengths)
        mean = np.add.reduceat(E, np.cumsum(ns) - ns, axis=0) / ns[:, None]
        if kind == "word_avg":
            return SentenceBatch(lengths, e_s=mean)
        return SentenceBatch(lengths, e_s=nc.sigmoid(
            nc.affine_rows(mean, params.W_proj, params.b_proj)))
    if kind == "lstm_only":
        h = nc.lstm_last_state(E, lengths, params.W_lstm, params.U_lstm, params.b_lstm)
        return SentenceBatch(lengths, e_lstm=h, e_s=h)

    words = nc.sigmoid(nc.affine_rows(E, params.R, params.b_r))
    e_max = nc.max_over_time(words, lengths)
    if kind == "maxcnn_only":
        return SentenceBatch(lengths, words=words, e_max=e_max, e_s=e_max)
    h = nc.lstm_last_state(words, lengths, params.W_lstm, params.U_lstm, params.b_lstm)
    return SentenceBatch(lengths, words=words, e_max=e_max, e_lstm=h,
                         e_s=nc.concat(e_max, h))

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore as nc
from .embeddings import FusedLexicon
from .errors import ConfigError, DataError

ENCODER_KINDS = ("word_avg", "proj_avg", "lstm_only", "maxcnn_only", "maxlstm")

GATE_ORDER = ("i", "f", "o", "u")


@dataclass
class LstmParams:
    """Gate weights for one LSTM unit with l-dimensional memory.

    W_* map the k-dimensional input, U_* map the previous hidden state,
    b_* are biases; gate order is input, forget, output, candidate.
    """

    W_i: np.ndarray
    W_f: np.ndarray
    W_o: np.ndarray
    W_u: np.ndarray
    U_i: np.ndarray
    U_f: np.ndarray
    U_o: np.ndarray
    U_u: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_u: np.ndarray

    def gate_tuples(self):
        W = (self.W_i, self.W_f, self.W_o, self.W_u)
        U = (self.U_i, self.U_f, self.U_o, self.U_u)
        b = (self.b_i, self.b_f, self.b_o, self.b_u)
        return W, U, b


@dataclass
class EncoderParams:
    """Trainable state of one encoder plus its dimensions."""

    kind: str
    total_dim: int
    H: int
    l: int
    R: Optional[np.ndarray] = None        # (H, total_dim) sigmoid filters
    b_r: Optional[np.ndarray] = None      # (H,)
    lstm: Optional[LstmParams] = None
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
class SentenceEncoding:
    """Everything the comparison stack may need about one sentence."""

    s_multi: object = None   # (n, H) per-word feature rows, when available
    e_max: object = None     # (H,) max-pooled embedding
    e_lstm: object = None    # (l,) LSTM final state
    e_s: object = None       # sentence embedding fed to comparisons


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_lstm(rng: np.random.Generator, l: int, in_dim: int) -> LstmParams:
    """Glorot-uniform gate matrices, zero biases except forget bias = 1."""
    W = [glorot(rng, l, in_dim) for _ in GATE_ORDER]
    U = [glorot(rng, l, l) for _ in GATE_ORDER]
    b = [np.zeros(l) for _ in GATE_ORDER]
    b[1] = np.ones(l)
    return LstmParams(*W, *U, *b)


def init_encoder(kind: str, total_dim: int, H: int, l: int,
                 rng: np.random.Generator) -> EncoderParams:
    if kind not in ENCODER_KINDS:
        raise ConfigError(f"unknown encoder kind {kind!r}; choose from {ENCODER_KINDS}")
    if H < 1 or l < 1:
        raise ConfigError(f"encoder dims must be positive, got filters={H} lstm_dim={l}")
    p = EncoderParams(kind=kind, total_dim=total_dim, H=H, l=l)
    if kind in ("maxcnn_only", "maxlstm"):
        p.R = glorot(rng, H, total_dim)
        p.b_r = np.zeros(H)
    if kind == "maxlstm":
        p.lstm = init_lstm(rng, l, H)
    elif kind == "lstm_only":
        p.lstm = init_lstm(rng, l, total_dim)
    elif kind == "proj_avg":
        p.W_proj = glorot(rng, total_dim, total_dim)
        p.b_proj = np.zeros(total_dim)
    return p


def multi_aspect(params: EncoderParams, e_concat):
    """Feature vector of one word: sigmoid(R @ e_concat + b_r)."""
    return nc.sigmoid(nc.linear(e_concat, params.R, params.b_r))


def encode(params: EncoderParams, lex: FusedLexicon, token_seqs) -> list[SentenceEncoding]:
    """Encode token sequences with whichever encoder ``params`` holds.

    Returns one ``SentenceEncoding`` per sequence, in order.  The LSTM
    runs over all of the sequences in one batched call; the filters and
    the max pooling run per sentence.
    """
    if not all(token_seqs):
        raise DataError("cannot encode an empty token sequence")
    Es = [lex.lookup_all(tokens) for tokens in token_seqs]  # (n, total_dim), fixed data
    kind = params.kind

    if kind == "word_avg":
        return [SentenceEncoding(e_s=E.mean(axis=0)) for E in Es]
    if kind == "proj_avg":
        return [SentenceEncoding(e_s=nc.sigmoid(nc.linear(E.mean(axis=0), params.W_proj,
                                                         params.b_proj)))
                for E in Es]
    if kind == "lstm_only":
        hs = nc.lstm_last_state(Es, *params.lstm.gate_tuples())
        return [SentenceEncoding(e_lstm=h, e_s=h) for h in hs]

    s_multis = [nc.sigmoid(nc.affine_rows(E, params.R, params.b_r)) for E in Es]
    e_maxs = [nc.max_over_time(s_multi) for s_multi in s_multis]
    if kind == "maxcnn_only":
        return [SentenceEncoding(s_multi=s_multi, e_max=e_max, e_s=e_max)
                for s_multi, e_max in zip(s_multis, e_maxs)]
    hs = nc.lstm_last_state(s_multis, *params.lstm.gate_tuples())
    return [SentenceEncoding(s_multi=s_multi, e_max=e_max, e_lstm=h,
                             e_s=nc.concat(e_max, h))
            for s_multi, e_max, h in zip(s_multis, e_maxs, hs)]


def encode_sentence(params: EncoderParams, lex: FusedLexicon, tokens) -> SentenceEncoding:
    """Full max-pool + LSTM encoding; requires a ``maxlstm`` encoder."""
    if params.kind != "maxlstm":
        raise ConfigError(f"encode_sentence needs a maxlstm encoder, got {params.kind!r}")
    return encode(params, lex, [tokens])[0]


def encode_baseline(kind: str, params: EncoderParams, lex: FusedLexicon, tokens):
    """Sentence vector of one of the reduced encoders."""
    if kind not in ENCODER_KINDS or kind == "maxlstm":
        raise ConfigError(f"not a baseline encoder kind: {kind!r}")
    if params.kind != kind:
        raise ConfigError(f"params are for {params.kind!r}, requested {kind!r}")
    return encode(params, lex, [tokens])[0].e_s

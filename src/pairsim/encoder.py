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

``encode`` reads its weights by name from a mapping (``model.ModelParams.w``
or a tape's leaves); ``model.parameter_shapes`` decides which exist:

* ``encoder.R`` (H, total_dim) and ``encoder.b_r`` (H,), the filters
  (``maxcnn_only``, ``maxlstm``);
* ``encoder.W_proj`` (total_dim, total_dim) and ``encoder.b_proj``
  (``proj_avg``);
* the LSTM as three fused arrays, ``encoder.W_lstm`` (4l, k),
  ``encoder.U_lstm`` (4l, l) and ``encoder.b_lstm`` (4l,): each holds the
  input, forget, output and candidate gates as consecutive blocks of l
  rows, the layout ``numcore.lstm_last_state`` computes with.  k is H for
  ``maxlstm`` and the fused word-vector width for ``lstm_only``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .embeddings import FusedLexicon
from .errors import DataError

ENCODER_KINDS = ("word_avg", "proj_avg", "lstm_only", "maxcnn_only", "maxlstm")
WORD_FEATURE_KINDS = ("maxcnn_only", "maxlstm")
_LSTM = ("encoder.W_lstm", "encoder.U_lstm", "encoder.b_lstm")


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
    e_s: object = None       # (S, e) sentence embeddings fed to comparisons


def encode(kind: str, w, lex: FusedLexicon, token_seqs) -> SentenceBatch:
    """Encode token sequences with the ``kind`` encoder, whose weights
    ``w`` maps by name (``"encoder.R"``, ...).

    Row j of every field of the result belongs to token_seqs[j].  The
    filters run as one GEMM over the packed words of all sequences; the
    max pooling and the LSTM take the packed rows and the lengths.
    """
    if not token_seqs or not all(token_seqs):
        raise DataError("cannot encode an empty token sequence")
    lengths = [len(tokens) for tokens in token_seqs]
    # (N, total_dim) fixed data, sentence after sentence
    E = lex.lookup_all([word for tokens in token_seqs for word in tokens])

    if kind in ("word_avg", "proj_avg"):
        ns = np.array(lengths)
        mean = np.add.reduceat(E, np.cumsum(ns) - ns, axis=0) / ns[:, None]
        if kind == "word_avg":
            return SentenceBatch(lengths, e_s=mean)
        return SentenceBatch(lengths, e_s=nc.sigmoid(
            nc.affine_rows(mean, w["encoder.W_proj"], w["encoder.b_proj"])))
    if kind == "lstm_only":
        h = nc.lstm_last_state(E, lengths, *(w[name] for name in _LSTM))
        return SentenceBatch(lengths, e_lstm=h, e_s=h)

    words = nc.sigmoid(nc.affine_rows(E, w["encoder.R"], w["encoder.b_r"]))
    e_max = nc.max_over_time(words, lengths)
    if kind == "maxcnn_only":
        return SentenceBatch(lengths, words=words, e_max=e_max, e_s=e_max)
    h = nc.lstm_last_state(words, lengths, *(w[name] for name in _LSTM))
    return SentenceBatch(lengths, words=words, e_max=e_max, e_lstm=h,
                         e_s=nc.concat(e_max, h))

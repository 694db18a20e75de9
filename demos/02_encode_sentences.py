"""Sentence encoding: sigmoid word filters, max pooling, and an LSTM.

Each word's fused vector is squashed through H sigmoid filters into a
feature row; the sentence is then summarized two ways: a per-dimension
max over words (order-blind) and the LSTM's final hidden state
(order-aware).  Swapping "bob likes mary" to "mary likes bob" leaves
the max half untouched and moves the LSTM half.
"""

import numpy as np

from pairsim.embeddings import EmbeddingTable, FusedLexicon
from pairsim.encoder import encode, init_encoder
from pairsim.rng import stream

words = ["bob", "mary", "likes", "dogs", "eats", "food"]
rng = stream(7, "demo-table")
lex = FusedLexicon(tables=[EmbeddingTable(
    name="demo", matrix=rng.uniform(-1, 1, size=(len(words), 6)),
    index={w: i for i, w in enumerate(words)})], seed=7)

enc = init_encoder("maxlstm", lex.total_dim, H=8, l=8, rng=stream(7, "init"))

# one call encodes a batch: row j of each field belongs to sentence j
batch = encode(enc, lex, [["bob", "likes", "mary"], ["mary", "likes", "bob"]])
print("per-word feature rows of sentence 0 (n x H), all in (0, 1):")
print(np.round(np.asarray(batch.words)[:batch.lengths[0]], 3))
print("\nmax-pooled half  :", np.round(batch.e_max[0], 3))
print("LSTM half        :", np.round(batch.e_lstm[0], 3))
print("sentence embedding = concat of both, length", batch.e_s.shape[1])

print("\nword order flipped (sentence 1):")
print("  max halves identical :",
      bool(np.array_equal(batch.e_max[0], batch.e_max[1])))
print("  LSTM halves differ by:",
      float(np.max(np.abs(batch.e_lstm[0] - batch.e_lstm[1]))))

print("\nreduced encoders used by the ablation harness:")
for kind in ("word_avg", "proj_avg", "lstm_only", "maxcnn_only"):
    p = init_encoder(kind, lex.total_dim, H=8, l=8, rng=stream(7, "init"))
    out = encode(p, lex, [["dogs", "eats", "food"]])
    print(f"  {kind:12s} -> sentence vector of length {out.e_s.shape[1]}")

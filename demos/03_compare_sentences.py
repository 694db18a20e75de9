"""The three comparison levels and the fused prediction head.

Two encoded sentences are compared word-by-word (an all-pairs cosine
table squashed to 50 features), sentence-by-sentence (cosine, product,
absolute difference, and a learned difference, squashed to 5 features),
and word-against-sentence (each word paired with the other sentence's
embedding, both directions, squashed to 100 features).  The fused
155-feature vector drives the prediction head.
"""

import numpy as np

from pairsim import comparison as cmp
from pairsim import model as md
from pairsim import numcore as nc
from pairsim.embeddings import EmbeddingTable, FusedLexicon
from pairsim.encoder import encode
from pairsim.rng import stream

words = ["bob", "mary", "likes", "hates", "dogs", "cats"]
rng = stream(11, "demo-table")
lex = FusedLexicon(tables=[EmbeddingTable(
    name="demo", matrix=rng.uniform(-1, 1, size=(len(words), 5)),
    index={w: i for i, w in enumerate(words)})], seed=11)

H = l = 6
L = 4  # fixed comparison length; shorter sentences are zero-padded
spec = md.ModelSpec(task="entailment", encoder="maxlstm", comparison="multi",
                    total_dim=lex.total_dim, H=H, l=l, L=L, d_neu=4, C=3, dropout_p=0.0)
w = md.build_model(spec, seed=11).w     # every weight by name: "encoder.R", ...

# the two sentences of the pair, encoded in one call and stacked as a pair
batch = encode("maxlstm", w, lex,
               [["bob", "likes", "mary"], ["mary", "hates", "dogs", "cats"]])
e_pair = np.asarray(batch.e_s)                          # (2, H + l)
s_pair = nc.pad_rows(batch.words, batch.lengths, L)     # (2, L, H)

A = nc.cosine_rows(s_pair[0], s_pair[1])
print("word-word cosine table (rows: sentence 1, cols: sentence 2);")
print("row 4 is padding for the 3-word sentence, hence exactly zero:")
print(np.round(np.asarray(A), 3))

sim_word = cmp.word_word(w, s_pair)
sim_sent = cmp.sentence_sentence(w, e_pair)
sim_ws = cmp.word_sentence(w, e_pair, s_pair)
print("\nsimilarity vectors (sigmoid outputs):")
print(f"  word level     : {len(np.asarray(sim_word))} features")
print(f"  sentence level : {np.round(np.asarray(sim_sent), 3)}")
print(f"  word-sentence  : {len(np.asarray(sim_ws))} features")

logits = cmp.fuse_head(w, sim_word, sim_sent, sim_ws, spec.dropout_p)
print("\nhead logits:", np.round(np.asarray(logits), 3))

d = cmp.sentence_features(w, np.stack([e_pair[0], e_pair[0]]))
print("\ncomparing a sentence with itself: cosine block =",
      round(float(np.asarray(d)[0]), 6),
      "and the |difference| block is all zero:",
      bool(np.all(np.asarray(d)[1 + (H + l):1 + 2 * (H + l)] == 0)))

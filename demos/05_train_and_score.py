"""Training end to end on a toy similarity set, then scoring new pairs.

Sixteen synthetic pairs (identical / one-word-substituted / disjoint)
are fitted with AdaDelta.  Training is deterministic in the seed; the
best parameters round-trip through the binary checkpoint format
bit-exactly, and the embedding tables are untouched by training.
"""

import tempfile
from pathlib import Path

import numpy as np

from pairsim import model as md
from pairsim import training as tr
from pairsim.config import RunConfig
from pairsim.embeddings import EmbeddingTable, FusedLexicon
from pairsim.evaldata import PairDataset, SentencePairExample, tokenize
from pairsim.objectives import ScoreSpec
from pairsim.rng import stream

words = ["bob", "mary", "likes", "hates", "dogs", "cats", "eats", "food",
         "runs", "fast", "slow", "the", "a", "red", "blue", "car", "bird"]
rng = stream(7, "demo-table")
lex = FusedLexicon(tables=[EmbeddingTable(
    name="demo", matrix=rng.uniform(-1, 1, size=(len(words), 8)),
    index={w: i for i, w in enumerate(words)})], seed=7)

rows = [
    ("bob likes mary", "bob likes mary", 5.0),
    ("dogs eats food", "dogs eats food", 5.0),
    ("the red car runs fast", "the red car runs fast", 5.0),
    ("mary hates dogs", "mary hates dogs", 5.0),
    ("a blue bird", "a blue bird", 5.0),
    ("cats runs slow", "cats runs slow", 5.0),
    ("bob likes mary", "bob likes cats", 2.5),
    ("dogs eats food", "dogs eats birds", 2.5),
    ("the red car", "the blue car", 2.5),
    ("bob runs fast", "bob runs slow", 2.5),
    ("mary hates dogs", "mary hates cats", 2.5),
    ("bob likes mary", "cats eats food", 0.0),
    ("the red car", "dogs runs slow", 0.0),
    ("mary hates dogs", "a blue bird", 0.0),
    ("cats runs", "bob likes food", 0.0),
    ("a red bird", "the slow car", 0.0),
]
examples = [SentencePairExample(s1.split(), s2.split(), gold_score=g)
            for s1, s2, g in rows]
data = PairDataset(examples=examples, task="sts")

spec = md.ModelSpec(task="sts", encoder="maxlstm", comparison="multi",
                    total_dim=lex.total_dim, H=16, l=16, L=4, d_neu=8, C=6,
                    dropout_p=0.0, score=ScoreSpec(6, 0.0, 5.0))
params = md.build_model(spec, seed=13)

hash_before = lex.content_hash()
result = tr.train(params, lex, data, RunConfig(batch_size=30, epochs=400, seed=13))
print("loss: first epoch {:.4f} -> last epoch {:.4f}".format(
    result.history[0].train_loss, result.history[-1].train_loss))
print("training pearson:",
      round(md.dataset_metric(result.params, lex, data, 30), 4))
print("embedding tables unchanged:", lex.content_hash() == hash_before)

with tempfile.TemporaryDirectory() as tmp:
    ckpt = Path(tmp) / "demo.ckpt"
    tr.save_checkpoint(ckpt, result.params, result.state)
    reloaded, _, _ = tr.load_checkpoint(ckpt)
    size = ckpt.stat().st_size
same = all(np.array_equal(a, b)
           for a, b in zip(result.params.w.values(), reloaded.w.values()))
print(f"checkpoint round-trip bit-exact: {same}  ({size} bytes)")

print("\nscores for unseen pairings:")
for s1, s2 in [("bob likes mary", "bob likes mary"),
               ("bob likes mary", "mary likes bob"),
               ("the red car", "a blue bird")]:
    score = md.predict_example(reloaded, lex, tokenize(s1), tokenize(s2))
    print(f"  {s1!r:24s} vs {s2!r:24s} -> {score:.2f}")

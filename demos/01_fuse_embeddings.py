"""Loading word-vector tables and fusing them into one lexicon.

Two tiny pre-trained tables of different dimensions (3-d and 2-d) are
written to disk in the text format, loaded back, and fused so every
word maps to one 5-dimensional concatenated vector.  Words missing from
a table get a seeded random slice that is stable across runs, and the
coverage report shows how much of a vocabulary each table serves.
"""

import tempfile
from pathlib import Path

from pairsim.embeddings import load_lexicon

TABLE_A = """\
cat 0.1 0.5 -0.3
dog 0.4 -0.2 0.8
bird 0.0 0.9 0.2
fish -0.5 0.1 0.1
"""

TABLE_B = """\
cat 1.0 2.0
dog -1.0 0.5
tree 0.3 0.3
"""

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    (workdir / "table_a.txt").write_text(TABLE_A)
    (workdir / "table_b.txt").write_text(TABLE_B)
    lex = load_lexicon([workdir / "table_a.txt", workdir / "table_b.txt"],
                       oov_scale=0.1, seed=42)
print(f"fused lexicon: {len(lex.tables)} tables, total_dim = {lex.total_dim}")

print("\n'cat' appears in both tables; its fused vector is the concatenation:")
print("  ", lex.lookup_all(["cat"])[0])

print("\n'bird' is missing from table_b, so that slice is a seeded random fill:")
print("  ", lex.lookup_all(["bird"])[0])
print("looked up again, it is bit-identical:")
print("  ", lex.lookup_all(["bird"])[0])

print("\n'robot' is in neither table; the whole vector is a stable random fill:")
print("  ", lex.lookup_all(["robot"])[0])

vocab = {"cat", "dog", "bird", "fish", "tree", "robot"}
report = lex.coverage(vocab)
print(f"\ncoverage over {report.vocab_size} words:")
for name, frac in report.per_table:
    print(f"  {name:10s} {100 * frac:6.2f}%")
print(f"  {'union':10s} {100 * report.union:6.2f}%")

print("\ncontent hash (changes only if table bytes change):",
      lex.content_hash()[:16], "...")

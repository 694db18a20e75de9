#!/usr/bin/env bash
# Full-scale STS-Benchmark run with the five pre-trained embeddings.
#
# This documents the attempt path for reproducing the full-scale scores;
# it is NOT part of the test suite.  It needs tens of gigabytes of
# embeddings, many hours of CPU time at 1600x1600 dimensions, and the
# five embedding releases converted to the text format ("word v1 .. vd"
# per line, optional "count dim" header):
#
#   data/word2vec.txt   300-d, Google News word2vec (convert from .bin)
#   data/fasttext.txt   300-d, fastText trained on Wikipedia
#   data/glove.txt      300-d, GloVe Common Crawl 840B (native format works)
#   data/baroni.txt     400-d, Baroni et al. context-predict vectors
#   data/sl999.txt      300-d, paraphrase-database vectors tuned on SimLex-999
#
# The fused word vector is then 300+300+300+400+300 = 1600 dimensions,
# matching configs/paper.cfg (1600 filters, 1600 LSTM units, batch 30,
# dropout 0.5, penultimate width 250).
set -euo pipefail

STSB_DIR=${STSB_DIR:-data/stsbenchmark}   # sts-train.csv etc. live here
OUT=${OUT:-runs/full-stsb}
mkdir -p "$OUT"

for f in data/word2vec.txt data/fasttext.txt data/glove.txt \
         data/baroni.txt data/sl999.txt "$STSB_DIR/sts-train.csv" \
         "$STSB_DIR/sts-dev.csv" "$STSB_DIR/sts-test.csv"; do
    [ -f "$f" ] || { echo "missing $f (see header comment)"; exit 1; }
done

python3 scripts/convert_stsb.py "$STSB_DIR/sts-train.csv" > "$OUT/train.tsv"
python3 scripts/convert_stsb.py "$STSB_DIR/sts-dev.csv"   > "$OUT/dev.tsv"
python3 scripts/convert_stsb.py "$STSB_DIR/sts-test.csv"  > "$OUT/test.tsv"

# sanity: vocabulary coverage of the five tables (the union should be
# dramatically higher than any single table)
pairsim coverage "$OUT/train.tsv" "$OUT/dev.tsv" "$OUT/test.tsv" \
    --config configs/paper.cfg | tee "$OUT/coverage.tsv"

# verify gradients at desk dimensions before burning CPU on the real run
pairsim gradcheck --config configs/desk.cfg

pairsim train "$OUT/train.tsv" --config configs/paper.cfg \
    --valid "$OUT/dev.tsv" --out "$OUT/stsb.ckpt" | tee "$OUT/history.tsv"

pairsim eval "$OUT/stsb.ckpt" "$OUT/test.tsv" | tee "$OUT/test_metrics.tsv"

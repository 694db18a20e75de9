"""Record the per-pair reference that test_equivalence.py compares against.

    PYTHONPATH=src:tests python tests/record_per_pair_reference.py tests/per_pair_reference.npz

This script needs the per-pair model API (``md.pair_logits(params, lex,
tokens1, tokens2)``), which ran the filters, pooling, comparisons, head
and loss one pair at a time.  That API existed up to commit 31856cc; run
the script on a checkout of that commit.  The batch-major code that
replaced it must reproduce what is recorded here to within rounding.

For every case in ``equivalence_cases.CASES`` it stores, under
``<case>/...``:

* ``loss``: the training-mode batch loss (dropout 0.5 drawn from the
  "dropout" stream of seed 21);
* ``logits``: the inference-mode logits of every pair, (B, C);
* ``grad/<parameter name>``: the gradient of that loss.
"""

import sys

import numpy as np

from pairsim import model as md
from pairsim import numcore as nc
from pairsim.rng import stream

from equivalence_cases import CASES, DROPOUT_SEED, build


def record(name):
    params, lex, batch = build(name)
    out = {}
    with nc.GradTape() as tape:
        leaves = {n: tape.leaf(a) for n, a in md.leaf_arrays(params).items()}
        loss = md.batch_loss(md.with_leaves(params, leaves), lex, batch,
                             True, stream(DROPOUT_SEED, "dropout"))
        tape.backward(loss)
    out[f"{name}/loss"] = np.asarray(loss.value)
    out[f"{name}/logits"] = np.array([
        md.pair_logits(params, lex, ex.tokens1, ex.tokens2) for ex in batch])
    for n, leaf in leaves.items():
        out[f"{name}/grad/{n}"] = leaf.grad
    return out


def main(path):
    arrays = {}
    for name in CASES:
        arrays.update(record(name))
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    main(sys.argv[1])

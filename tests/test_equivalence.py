"""The batch-major model against the per-pair reference.

``per_pair_reference.npz`` holds what the per-pair code computed for the
cases of ``equivalence_cases.py`` (``record_per_pair_reference.py``
made it).  Running a minibatch as (B, ...) arrays changes only the
rounding of the GEMMs and sums, so every array must match to within
1e-12 of its own largest entry.
"""

from pathlib import Path

import numpy as np
import pytest

from pairsim import model as md
from pairsim import numcore as nc
from pairsim.rng import stream

from equivalence_cases import CASES, DROPOUT_SEED, PAIRS, build

REF = np.load(Path(__file__).with_name("per_pair_reference.npz"))
TOL = 1e-12


def deviation(got, want) -> float:
    """max |got - want| relative to max |want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_major_matches_per_pair_reference(name):
    params, lex, batch = build(name)
    with nc.GradTape() as tape:
        leaves = {n: tape.leaf(a) for n, a in md.leaf_arrays(params).items()}
        loss = md.batch_loss(md.with_leaves(params, leaves), lex, batch,
                             True, stream(DROPOUT_SEED, "dropout"))
        tape.backward(loss)
    logits = md.pair_logits(params, lex, PAIRS)

    assert deviation(loss.value, REF[f"{name}/loss"]) <= TOL
    assert deviation(logits, REF[f"{name}/logits"]) <= TOL
    recorded = {k.split("/grad/")[1] for k in REF.files if k.startswith(f"{name}/grad/")}
    assert recorded == set(leaves)
    for n, leaf in leaves.items():
        assert deviation(leaf.grad, REF[f"{name}/grad/{n}"]) <= TOL, n


def test_dropout_batch_draw_equals_sequential_draws():
    """One (B, 250) mask takes the numbers B masks of 250 would take, in
    order, and leaves the stream where they would."""
    x = np.ones((7, 250))
    batched, sequential = stream(5, "dropout"), stream(5, "dropout")
    got = nc.dropout(x, 0.5, training=True, rng=batched)
    want = np.stack([nc.dropout(row, 0.5, training=True, rng=sequential) for row in x])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(batched.bit_generator.state, sequential.bit_generator.state)


@pytest.mark.parametrize("name", ["maxlstm_multi_sts", "maxlstm_sent_entailment"])
def test_block_predictions_match_predict_example(name):
    params, lex, _ = build(name)
    pairs = PAIRS * 3
    one_by_one = [md.predict_example(params, lex, t1, t2) for t1, t2 in pairs]
    for block in (1, 4, len(pairs)):
        got = md.predict(params, lex, pairs, block)
        if params.spec.task == "sts":
            np.testing.assert_allclose(got, one_by_one, rtol=1e-12, atol=0)
        else:
            assert got == one_by_one

import numpy as np
import pytest

from pairsim import comparison as cmp
from pairsim import model as md
from pairsim import numcore as nc
from pairsim import objectives as obj
from pairsim.gradcheck import (CHECK_SENTENCES, build_check_fixture,
                               model_grad_check, synthetic_lexicon)

from toys import toy_lexicon


def tiny_spec(task="sts"):
    kw = dict(task=task, encoder="maxlstm", comparison="multi",
              total_dim=8, H=4, l=4, L=3, d_neu=2, dropout_p=0.0)
    if task == "sts":
        return md.ModelSpec(C=4, score=obj.ScoreSpec(4, 0, 5), **kw)
    return md.ModelSpec(C=3, label_names=["a", "b", "c"], **kw)


@pytest.fixture(scope="module")
def lex():
    return toy_lexicon(seed=7, dims=(5, 3))


# one group from each tier keeps the probe count small; the acceptance
# suite runs every entry of every group at the toy dimensions
SPOT_GROUPS = ["encoder.R", "encoder.U_lstm", "encoder.b_lstm",
               "comparison.W_word", "comparison.W_sent", "comparison.b_ws2",
               "head.W_l2", "head.b_l1"]


@pytest.mark.parametrize("task", ["sts", "entailment"])
def test_model_grad_check_spot_groups(lex, task):
    params, batch = build_check_fixture(tiny_spec(task), lex, seed=3)
    report = model_grad_check(params, lex, batch, only=SPOT_GROUPS)
    assert report.passed(1e-4)
    assert {g.name for g in report.groups} == set(SPOT_GROUPS)


def test_fixture_respects_margins(lex):
    params, batch = build_check_fixture(tiny_spec(), lex, seed=3)
    enc = md.encode_pairs(params, lex, [(ex.tokens1, ex.tokens2) for ex in batch])
    e_s = np.asarray(enc.e_s)
    for i in range(len(batch)):
        gap = np.abs(e_s[2 * i] - e_s[2 * i + 1]).min()
        assert gap > 1e-4


def test_synthetic_lexicon_covers_check_sentences():
    lex = synthetic_lexicon(seed=5)
    assert lex.total_dim == 8
    words = {w for pair in CHECK_SENTENCES for side in pair for w in side}
    rep = lex.coverage(words)
    assert rep.union == 1.0
    # deterministic in the seed
    again = synthetic_lexicon(seed=5)
    np.testing.assert_array_equal(lex.lookup_all(["bob"])[0], again.lookup_all(["bob"])[0])


def test_corrupted_backward_fails_named_group(lex, monkeypatch):
    params, batch = build_check_fixture(tiny_spec(), lex, seed=3)

    def bad_sigmoid(x):
        y = nc.expit(nc._value(x))

        def backward(g):
            nc._acc(x, g * (y * (1.0 - y)) * 1.003)  # corrupted jacobian
        return nc._finish(y, (x,), backward)

    monkeypatch.setattr(cmp.nc, "sigmoid", bad_sigmoid)
    report = model_grad_check(params, lex, batch,
                              only=["comparison.W_sent", "comparison.b_sent",
                                    "head.b_l1"])
    assert not report.passed(1e-4)
    assert report.failures(1e-4)  # names the offending parameter groups

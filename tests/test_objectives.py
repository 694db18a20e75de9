import math

import numpy as np
import pytest

from pairsim import numcore as nc
from pairsim import objectives as obj
from pairsim.errors import ConfigError, DataError
from pairsim.rng import stream

from oracles import reference_cross_entropy


def test_sparse_target_fractional():
    np.testing.assert_allclose(obj.sparse_target(3.4, 5), [0, 0, 0.6, 0.4, 0],
                               atol=1e-15)


def test_sparse_target_integer_and_boundary():
    np.testing.assert_array_equal(obj.sparse_target(3.0, 5), [0, 0, 1, 0, 0])
    np.testing.assert_array_equal(obj.sparse_target(5.0, 5), [0, 0, 0, 0, 1])
    np.testing.assert_array_equal(obj.sparse_target(1.0, 5), [1, 0, 0, 0, 0])


def test_sparse_target_domain():
    with pytest.raises(DataError):
        obj.sparse_target(0.99, 5)
    with pytest.raises(DataError):
        obj.sparse_target(5.01, 5)


@pytest.mark.parametrize("K", [5, 6])
def test_sparse_target_roundtrip_invariants(K):
    rng = stream(40, "test", str(K))
    r = np.arange(1, K + 1)
    for _ in range(1000):
        y = float(rng.uniform(1.0, K))
        p = obj.sparse_target(y, K)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12
        nz = np.nonzero(p)[0]
        assert len(nz) <= 2
        if len(nz) == 2:
            assert nz[1] == nz[0] + 1
        assert abs(float(r @ p) - y) < 1e-12


def test_kl_zero_when_distributions_match():
    p = np.array([0.2, 0.5, 0.3])
    logits = np.log(p)
    assert float(obj.kl_loss(p, logits)) < 1e-12
    # sparse target with a zero entry: use matching softmax via big negatives
    p2 = obj.sparse_target(2.5, 4)
    logits2 = np.where(p2 > 0, np.log(np.maximum(p2, 1e-300)), -745.0)
    assert float(obj.kl_loss(p2, logits2)) < 1e-9


def test_kl_closed_form():
    loss = obj.kl_loss(np.array([1.0, 0.0]), np.zeros(2))
    assert abs(float(loss) - math.log(2)) < 1e-12


def test_kl_nonnegative_random():
    rng = stream(41, "test")
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k))
        logits = rng.normal(size=k)
        assert float(obj.kl_loss(p, logits)) >= -1e-15


def test_kl_rejects_bad_target():
    with pytest.raises(DataError):
        obj.kl_loss(np.array([0.5, 0.6]), np.zeros(2))


def test_ce_values():
    # cross entropy is the KL loss against a one-hot target
    big = np.array([50.0, 0.0, 0.0])
    assert float(obj.kl_loss(obj.one_hot_target(0, 3), big)) < 1e-12
    assert abs(float(obj.kl_loss(obj.one_hot_target(1, 3), np.zeros(3)))
               - math.log(3)) < 1e-12
    rng = stream(42, "test")
    for _ in range(200):
        logits = rng.normal(size=4)
        assert float(obj.kl_loss(obj.one_hot_target(int(rng.integers(0, 4)), 4), logits)) >= 0


@pytest.mark.parametrize("label", [-1, 3, 7])
def test_a_class_label_outside_the_classes_raises_data_error(label):
    with pytest.raises(DataError, match=f"class label {label} outside"):
        obj.one_hot_target(label, 3)


def test_kl_against_one_hot_targets_is_the_old_cross_entropy():
    # byte-equal gradients; losses equal but for the sign of an exact 0,
    # which a saturated row gives: -0.0 from the negated log, +0.0 from KL
    rng = stream(43, "test")
    signed_zeros = 0
    for case in range(1200):
        B, C = int(rng.integers(1, 41)), int(rng.integers(2, 6))
        Z = rng.normal(size=(B, C)) * [0.1, 1.0, 10.0, 60.0, 1000.0][case % 5]
        gold = rng.integers(0, C, size=B)
        want, want_grad = reference_cross_entropy(gold, Z)
        with nc.GradTape() as tape:
            z = tape.leaf(Z)
            loss = obj.kl_loss(np.array([obj.one_hot_target(g, C) for g in gold]), z)
            tape.backward(nc.vsum(loss))
        got = np.asarray(nc._value(loss))
        assert z.grad.tobytes() == want_grad.tobytes()
        assert np.array_equal(got, want)
        assert np.array_equal(got.view(np.int64)[want != 0], want.view(np.int64)[want != 0])
        signed_zeros += int(np.sum(np.signbit(got) != np.signbit(want)))
    assert signed_zeros > 0         # saturated rows were met


def test_decode_score_peaked_and_uniform():
    spec = obj.ScoreSpec(K=5, raw_min=1, raw_max=5)
    peaked = np.array([-1e3, -1e3, 1e3, -1e3, -1e3])
    assert abs(obj.decode_score(peaked, spec) - 3.0) < 1e-12
    assert abs(obj.decode_score(np.zeros(5), spec) - 3.0) < 1e-12


def test_decode_score_affine_roundtrip():
    spec = obj.ScoreSpec(K=6, raw_min=0, raw_max=5)
    assert spec.map_raw(0.0) == 1.0
    assert spec.map_raw(5.0) == 6.0
    rng = stream(43, "test")
    for _ in range(100):
        raw = float(rng.uniform(0, 5))
        assert abs(spec.unmap(spec.map_raw(raw)) - raw) < 1e-12


def test_decode_monotone_in_high_level_logit():
    spec = obj.ScoreSpec(K=5, raw_min=1, raw_max=5)
    rng = stream(44, "test")
    for _ in range(20):
        z = rng.normal(size=5)
        base = obj.decode_score(z, spec)
        z2 = z.copy()
        z2[4] += 0.5
        assert obj.decode_score(z2, spec) > base


def test_score_spec_validation():
    with pytest.raises(ConfigError):
        obj.ScoreSpec(K=1, raw_min=0, raw_max=5)
    with pytest.raises(ConfigError):
        obj.ScoreSpec(K=5, raw_min=5, raw_max=5)

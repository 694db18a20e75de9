import hashlib
import math
import struct

import numpy as np
import pytest

from pairsim import model as md
from pairsim import numcore as nc
from pairsim import objectives as obj
from pairsim import training as tr
from pairsim.config import RunConfig
from pairsim.errors import CheckpointError, ConfigError, NumericError

from oracles import scalar_adadelta_steps, whole_array_adadelta_step
from pairsim.rng import stream

from toys import edit_checkpoint_header, sts_overfit_dataset, toy_lexicon


@pytest.fixture(scope="module")
def lex():
    return toy_lexicon(seed=7, dims=(5, 3))


def small_spec(task="sts"):
    if task == "sts":
        return md.ModelSpec(task="sts", encoder="word_avg", comparison="sent",
                            total_dim=8, H=4, l=3, L=3, d_neu=2, C=5,
                            dropout_p=0.0, score=obj.ScoreSpec(5, 0, 5))
    raise ValueError(task)


def maxlstm_spec(dropout=0.0):
    return md.ModelSpec(task="sts", encoder="maxlstm", comparison="multi",
                        total_dim=8, H=6, l=6, L=4, d_neu=4, C=5,
                        dropout_p=dropout, score=obj.ScoreSpec(5, 0, 5))


# ---------------------------------------------------------------------------
# adadelta


def test_adadelta_zero_gradient_keeps_params(lex):
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    state.Eg2["head.b_l2"][:] = 0.04
    before = {n: a.copy() for n, a in params.w.items()}
    tr.adadelta_step(state, params)
    for n, a in params.w.items():
        np.testing.assert_array_equal(a, before[n])
    np.testing.assert_allclose(state.Eg2["head.b_l2"], 0.95 * 0.04, rtol=1e-15)


def test_adadelta_first_step_hand_value(lex):
    # scalar g=1, rho=0.95, eps=1e-6: dx = -sqrt(1e-6)/sqrt(0.05 + 1e-6)
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    state.grad["head.b_l2"][0] = 1.0
    b0 = params.w["head.b_l2"][0]
    tr.adadelta_step(state, params)
    delta = params.w["head.b_l2"][0] - b0
    assert abs(delta - (-4.4721e-3)) < 1e-7
    oracle = scalar_adadelta_steps([1.0], rho=0.95, eps=1e-6)[0]
    assert abs(delta - oracle) < 1e-15


def test_adadelta_second_step_grows(lex):
    deltas = scalar_adadelta_steps([1.0, 1.0], rho=0.95, eps=1e-6)
    assert abs(deltas[1]) > abs(deltas[0])
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    trace = []
    for _ in range(2):
        state.grad["head.b_l2"][0] = 1.0
        before = params.w["head.b_l2"][0]
        tr.adadelta_step(state, params)
        trace.append(params.w["head.b_l2"][0] - before)
    np.testing.assert_allclose(trace, deltas, rtol=0, atol=1e-15)


def test_adadelta_matches_scalar_oracle_over_sequence(lex):
    rng = np.random.default_rng(8)
    gs = rng.normal(size=7).tolist()
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    got = []
    for g in gs:
        state.grad["head.b_l2"][0] = g
        before = params.w["head.b_l2"][0]
        tr.adadelta_step(state, params)
        got.append(params.w["head.b_l2"][0] - before)
    np.testing.assert_allclose(got, scalar_adadelta_steps(gs, 0.95, 1e-6),
                               rtol=0, atol=1e-15)


def test_adadelta_accumulators_stay_finite_nonnegative(lex):
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    rng = np.random.default_rng(9)
    for _ in range(50):
        for n, a in params.w.items():
            state.grad[n][...] = rng.normal(size=a.shape) * 10
        tr.adadelta_step(state, params)
    for group in (state.Eg2, state.Edx2):
        for v in group.values():
            assert np.all(v >= 0) and np.all(np.isfinite(v))


def layout_of_sizes(sizes):
    """A model whose parameter arrays have the given sizes, as views of a
    flat buffer of random values: a layout for adadelta_step alone."""
    params = md.build_model(small_spec(), seed=1)
    assert len(sizes) == len(params.w)
    flat = np.random.default_rng(3).normal(size=sum(sizes))
    return md.ModelParams(params.spec, md.flat_views(zip(params.w, zip(sizes)), flat), flat)


# 1 and CHUNK - 1 end exactly on the first chunk boundary; CHUNK + 1 then
# straddles the second, and 3 CHUNK + 7 the next two
ORACLE_SIZES = [1, tr.CHUNK - 1, tr.CHUNK + 1, 3 * tr.CHUNK + 7, 5, tr.CHUNK, 2, 3]


@pytest.mark.parametrize("rho, eps", [(0.95, 1e-6), (0.9, 1e-8)])
def test_adadelta_sweep_is_bit_identical_to_whole_array_updates(rho, eps):
    params = layout_of_sizes(ORACLE_SIZES)
    state = tr.AdaDeltaState.zeros(params, rho, eps)
    ref = {n: a.copy() for n, a in params.w.items()}
    ref_Eg2 = {n: np.zeros_like(a) for n, a in ref.items()}
    ref_Edx2 = {n: np.zeros_like(a) for n, a in ref.items()}
    rng = np.random.default_rng(11)
    for _ in range(5):
        grads = {}
        for name, a in ref.items():
            g = rng.normal(size=a.shape) * 10.0 ** rng.integers(-3, 4, size=a.shape)
            # extreme gradients at random entries: zero, subnormal squares, huge
            g.flat[rng.integers(0, a.size, size=3)] = rng.choice([0.0, 1e-300, 1e150], 3)
            grads[name] = g
            state.grad[name][...] = g
        tr.adadelta_step(state, params)
        whole_array_adadelta_step(ref, ref_Eg2, ref_Edx2, grads, rho, eps)
        for name, a in params.w.items():
            np.testing.assert_array_equal(a, ref[name])
            np.testing.assert_array_equal(state.Eg2[name], ref_Eg2[name])
            np.testing.assert_array_equal(state.Edx2[name], ref_Edx2[name])
        assert not state.flat[2].any()      # each gradient chunk is zeroed once used


# ---------------------------------------------------------------------------
# flat buffers


def address(arr):
    return arr.__array_interface__["data"][0]


@pytest.mark.parametrize("encoder, comparison", [
    ("maxlstm", "multi"), ("maxcnn_only", "multi"), ("lstm_only", "sent"),
    ("proj_avg", "sent"), ("word_avg", "sent")])
def test_parameters_and_state_view_flat_buffers_in_canonical_order(encoder, comparison):
    spec = md.ModelSpec(task="sts", encoder=encoder, comparison=comparison,
                        total_dim=8, H=6, l=5, L=4, d_neu=4, C=5,
                        score=obj.ScoreSpec(5, 0, 5))
    params = md.build_model(spec, seed=3)
    state = tr.AdaDeltaState.zeros(params)
    off = 0
    for name, arr in params.w.items():
        assert arr.base is params.flat
        assert address(arr) == address(params.flat) + 8 * off
        for row, views in enumerate((state.Eg2, state.Edx2, state.grad)):
            assert views[name].shape == arr.shape
            assert address(views[name]) == address(state.flat[row]) + 8 * off
        off += arr.size
    assert off == params.flat.size
    assert state.flat.shape == (3, off) and md.is_flat(params)


def test_load_checkpoint_reads_each_section_into_its_buffer(tmp_path, lex):
    result = trained(lex)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, result.params, result.state)
    raw = path.read_bytes()
    start = 16 + struct.unpack("<Q", raw[8:16])[0]
    mid = start + result.params.flat.nbytes
    params, state, _ = tr.load_checkpoint(path)
    assert md.is_flat(params)
    assert params.flat.tobytes() == raw[start:mid]
    assert state.flat[:2].tobytes() == raw[mid:]
    assert not state.flat[2].any()


def test_adadelta_refuses_parameters_that_are_not_views_of_their_buffer(lex):
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    before = params.flat.copy()
    copy = md.ModelParams(params.spec, {n: a.copy() for n, a in params.w.items()})
    stale = md.ModelParams(params.spec, copy.w, params.flat)    # a buffer its arrays do not view
    state.flat[2] = 1.0
    for bad in (copy, stale):
        with pytest.raises(ConfigError, match="views of params.flat"):
            tr.adadelta_step(state, bad)
    np.testing.assert_array_equal(params.flat, before)
    assert not state.flat[:2].any() and np.all(state.flat[2] == 1.0)


def fail_after_backward(monkeypatch):
    real = nc.GradTape.backward

    def backward(tape, root):
        real(tape, root)                # the gradients are in the state's buffer now
        raise NumericError("failed after the backward pass")
    monkeypatch.setattr(nc.GradTape, "backward", backward)


def nan_loss(monkeypatch):
    real = md.batch_loss
    monkeypatch.setattr(md, "batch_loss", lambda *a, **k: nc.scale(real(*a, **k), math.nan))


@pytest.mark.parametrize("failure", [nan_loss, fail_after_backward])
def test_a_failed_step_leaves_params_and_state_as_they_were(lex, monkeypatch, failure):
    batch = sts_overfit_dataset().examples[:4]
    params = md.build_model(maxlstm_spec(dropout=0.5), seed=5)
    state = tr.AdaDeltaState.zeros(params)
    with monkeypatch.context() as m:
        failure(m)
        with pytest.raises(NumericError):
            tr.train_step(params, state, lex, batch, stream(5, "dropout"))
    assert not state.flat.any()         # gradient buffer zero, accumulators untouched
    fresh = md.build_model(maxlstm_spec(dropout=0.5), seed=5)
    fresh_state = tr.AdaDeltaState.zeros(fresh)
    np.testing.assert_array_equal(params.flat, fresh.flat)
    tr.train_step(params, state, lex, batch, stream(5, "dropout"))
    tr.train_step(fresh, fresh_state, lex, batch, stream(5, "dropout"))
    np.testing.assert_array_equal(params.flat, fresh.flat)
    np.testing.assert_array_equal(state.flat, fresh_state.flat)


# ---------------------------------------------------------------------------
# training loop


def test_single_example_single_epoch_is_one_step(lex):
    ds = sts_overfit_dataset()
    ds.examples = ds.examples[:1]
    params = md.build_model(small_spec(), seed=2)
    before = {n: a.copy() for n, a in params.w.items()}
    cfg = RunConfig(batch_size=30, epochs=1, seed=4)
    result = tr.train(params, lex, ds, cfg)
    assert len(result.history) == 1
    changed = sum(np.any(a != before[n]) for n, a in params.w.items())
    assert changed > 0
    # one step from zero accumulators: |delta| <= sqrt(eps/ ((1-rho) g^2 + eps)) bound
    assert result.history[0].train_loss > 0


def test_loss_decreases_over_first_epochs(lex):
    # recorded behaviour of this seeded init; a regression check
    ds = sts_overfit_dataset()
    params = md.build_model(maxlstm_spec(), seed=5)
    cfg = RunConfig(batch_size=30, epochs=5, seed=5)
    result = tr.train(params, lex, ds, cfg)
    losses = [r.train_loss for r in result.history]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_training_is_deterministic(lex):
    ds = sts_overfit_dataset()
    cfg = RunConfig(batch_size=4, epochs=3, seed=21)
    out = []
    for _ in range(2):
        params = md.build_model(maxlstm_spec(dropout=0.5), seed=21)
        r = tr.train(params, lex, ds, cfg)
        out.append(r.params.w)
    for k in out[0]:
        np.testing.assert_array_equal(out[0][k], out[1][k])


def test_embeddings_never_change(lex):
    before = lex.content_hash()
    ds = sts_overfit_dataset()
    params = md.build_model(maxlstm_spec(), seed=3)
    tr.train(params, lex, ds, RunConfig(batch_size=8, epochs=2, seed=3))
    assert lex.content_hash() == before


def test_validation_selects_best_and_early_stops(lex):
    ds = sts_overfit_dataset()
    params = md.build_model(maxlstm_spec(), seed=5)
    cfg = RunConfig(batch_size=30, epochs=60, seed=5, patience=3)
    result = tr.train(params, lex, ds, cfg, valid=ds)
    assert result.best_metric is not None
    metrics = [r.valid_metric for r in result.history]
    assert result.best_metric == max(metrics)
    # stopped within patience epochs of the best
    assert len(result.history) <= result.best_epoch + 3


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_loss_aborts_with_batch_index(lex):
    # absurd oov fills overflow the unsquashed word-average path: the
    # sentence norms become inf and cosine yields inf/inf = nan
    from pairsim.embeddings import FusedLexicon
    crazy = FusedLexicon(tables=lex.tables, oov_scale=1e200, seed=7)
    ds = sts_overfit_dataset()
    for ex in ds.examples:
        ex.tokens1 = ex.tokens1 + ["zzz-unknown-word"]
    params = md.build_model(small_spec(), seed=6)  # word_avg encoder
    with pytest.raises(NumericError) as err:
        tr.train(params, crazy, ds, RunConfig(batch_size=8, epochs=1, seed=6))
    assert err.value.batch_index is not None


# ---------------------------------------------------------------------------
# checkpoints


def trained(lex, epochs=2, seed=31):
    ds = sts_overfit_dataset()
    params = md.build_model(maxlstm_spec(), seed=seed)
    cfg = RunConfig(batch_size=8, epochs=epochs, seed=seed)
    result = tr.train(params, lex, ds, cfg)
    return result


def test_checkpoint_roundtrip_bit_exact(tmp_path, lex):
    result = trained(lex)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, result.params, result.state,
                       meta={"config": {"seed": 31}})
    loaded, state, meta = tr.load_checkpoint(path)
    for (n1, a1), (n2, a2) in zip(result.params.w.items(),
                                  loaded.w.items()):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2)
    for k in result.state.Eg2:
        np.testing.assert_array_equal(result.state.Eg2[k], state.Eg2[k])
        np.testing.assert_array_equal(result.state.Edx2[k], state.Edx2[k])
    assert meta["config"] == {"seed": 31}
    assert meta["spec"]["task"] == "sts"
    # a header with the "rng" entry that training once wrote still loads
    with_rng = tmp_path / "rng.ckpt"
    edit_checkpoint_header(path, with_rng,
                           lambda m: m.update(rng={"dropout": {"counter": [1, 2]}}))
    again, _, meta = tr.load_checkpoint(with_rng)
    assert meta["rng"] == {"dropout": {"counter": [1, 2]}}
    for (_, a1), (_, a2) in zip(loaded.w.items(), again.w.items()):
        assert a1.tobytes() == a2.tobytes()


def test_checkpoint_load_draws_no_random_numbers(tmp_path, lex, monkeypatch):
    params = md.build_model(maxlstm_spec(), seed=1)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, params, tr.AdaDeltaState.zeros(params))

    def no_stream(*args):
        raise AssertionError("loading a checkpoint must not open a random stream")
    monkeypatch.setattr(md, "stream", no_stream)
    loaded, _, _ = tr.load_checkpoint(path)
    for (n1, a1), (n2, a2) in zip(params.w.items(),
                                  loaded.w.items()):
        assert n1 == n2 and a1.tobytes() == a2.tobytes()


def test_checkpoint_same_bytes_for_same_run(tmp_path, lex):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tr.save_checkpoint(p1, trained(lex).params)
    tr.save_checkpoint(p2, trained(lex).params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_wrong_config_dimension(tmp_path, lex):
    result = trained(lex)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, result.params)

    class Cfg:
        filters = 99

    with pytest.raises(CheckpointError, match="99") as err:
        tr.load_checkpoint(path, cfg=Cfg())
    assert "6" in str(err.value)  # names the checkpoint's value too


def test_checkpoint_truncated_and_bad_magic(tmp_path, lex):
    result = trained(lex)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, result.params)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        tr.load_checkpoint(bad)
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError):
        tr.load_checkpoint(bad)
    bad.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        tr.load_checkpoint(bad)


def test_checkpoint_version_1_rejected(tmp_path, lex):
    path, old = tmp_path / "model.ckpt", tmp_path / "v1.ckpt"
    tr.save_checkpoint(path, md.build_model(maxlstm_spec(), seed=1))
    edit_checkpoint_header(path, old, version=1)
    with pytest.raises(CheckpointError, match="format version 1, this build reads 2"):
        tr.load_checkpoint(old)


def rename(meta, old, new):
    meta["param_order"] = [new if n == old else n for n in meta["param_order"]]
    meta["param_shapes"][new] = meta["param_shapes"].pop(old)


@pytest.mark.parametrize("edit, message", [
    (lambda m: rename(m, "encoder.W_lstm", "encoder.lstm.W_i"),
     r"parameter 2 is encoder.lstm.W_i \[24, 6\], the model spec needs "
     r"encoder.W_lstm \[24, 6\]"),
    (lambda m: m["param_shapes"].update({"head.b_l2": [1, 5]}),
     r"head.b_l2 \[1, 5\], the model spec needs head.b_l2 \[5\]"),
    (lambda m: m["param_order"].pop(), r"is missing, the model spec needs head.b_l2"),
    (lambda m: m["param_order"].append("head.b_l3"), r"is head.b_l3 None, .* needs nothing"),
], ids=["renamed", "reshaped", "dropped", "extra"])
def test_checkpoint_names_and_shapes_must_match_spec(tmp_path, lex, edit, message):
    path, bad = tmp_path / "model.ckpt", tmp_path / "bad.ckpt"
    tr.save_checkpoint(path, md.build_model(maxlstm_spec(), seed=1))
    edit_checkpoint_header(path, bad, edit)
    with pytest.raises(CheckpointError, match=message):
        tr.load_checkpoint(bad)


# SHA-256 of everything after the JSON header (the parameters, then both
# AdaDelta accumulators) after three dropout-0.5 steps.  Recorded when
# the minibatch began to run batch-major, which changed the rounding of
# the GEMMs and sums (test_equivalence.py bounds that change against the
# per-pair code), and re-recorded when the logistic moved from
# scipy.special.expit to numcore.expit (results differ by at most one ulp
# of 1.0); any later change of these bytes must be explained.
PINNED = {
    "maxlstm": "abecf29629fa695db3939a0a97311e84eb3d3ae517b1b266a70659646405be43",
    "lstm_only": "dc723bd976665c7168658ab5ba1d28338084818b210304f6af8baa9d25f96edc",
}


@pytest.mark.parametrize("encoder", sorted(PINNED))
def test_checkpoint_bytes_pinned(tmp_path, lex, encoder):
    comparison = "multi" if encoder == "maxlstm" else "sent"
    spec = md.ModelSpec(task="sts", encoder=encoder, comparison=comparison,
                        total_dim=8, H=6, l=6, L=4, d_neu=4, C=5, dropout_p=0.5,
                        score=obj.ScoreSpec(5, 0, 5))
    params = md.build_model(spec, seed=17)
    state = tr.AdaDeltaState.zeros(params)
    rng = stream(17, "dropout")
    examples = sts_overfit_dataset().examples
    for k in range(3):
        tr.train_step(params, state, lex, examples[4 * k:4 * k + 4], rng)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, params, state)
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    assert hashlib.sha256(raw[16 + n:]).hexdigest() == PINNED[encoder]

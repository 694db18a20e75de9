import dataclasses
import errno
import hashlib
import io
import math
import mmap
import os
import struct
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pairsim import model as md
from pairsim import numcore as nc
from pairsim import objectives as obj
from pairsim import store, threads
from pairsim import training as tr
from pairsim.config import RunConfig
from pairsim.errors import CheckpointError, ConfigError, DataError, NumericError
from pairsim.evaldata import LABEL_NAMES
from pairsim.gradcheck import model_grad_check

from oracles import scalar_adadelta_steps, whole_array_adadelta_step
from pairsim.rng import stream

from record_checkpoint_fixtures import USER_KEYS
from toys import cls3_dataset, edit_checkpoint_header, sts_overfit_dataset, toy_lexicon


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
        assert not state.grad_flat.any()    # each gradient chunk is zeroed once used


# ---------------------------------------------------------------------------
# the sweep on threads


def fake_cpus(monkeypatch, cpus):
    """Make the process seem to run on ``cpus``; pinning a thread to one
    it cannot run on fails, and the runner ignores that."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


@pytest.fixture
def threads_started(monkeypatch):
    """No size threshold, so that any model of two chunks or more is
    swept on threads; lists the name of each thread started."""
    monkeypatch.setattr(tr, "THREAD_MIN", 0)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def sweep_against_oracle(params, steps=3, rho=0.95, eps=1e-6):
    """Run ``steps`` updates of ``params`` and of a whole-array copy of it
    with the same random gradients; the two must agree bit for bit."""
    state = tr.AdaDeltaState.zeros(params, rho, eps)
    ref = {n: a.copy() for n, a in params.w.items()}
    ref_Eg2 = {n: np.zeros_like(a) for n, a in ref.items()}
    ref_Edx2 = {n: np.zeros_like(a) for n, a in ref.items()}
    rng = np.random.default_rng(12)
    for _ in range(steps):
        grads = {n: rng.normal(size=a.shape) * 10.0 ** rng.integers(-3, 4, size=a.shape)
                 for n, a in ref.items()}
        for name, g in grads.items():
            state.grad[name][...] = g
        tr.adadelta_step(state, params)
        whole_array_adadelta_step(ref, ref_Eg2, ref_Edx2, grads, rho, eps)
        for name, a in params.w.items():
            np.testing.assert_array_equal(a, ref[name])
            np.testing.assert_array_equal(state.Eg2[name], ref_Eg2[name])
            np.testing.assert_array_equal(state.Edx2[name], ref_Edx2[name])
        assert not state.grad_flat.any()


# ORACLE_SIZES hold 6 CHUNK + 18 elements: seven chunks, split on two CPUs
# at 3 CHUNK, inside the fourth array.  The next layout holds exactly two
# chunks, split between its second and third arrays, and then one of a
# chunk and one element, whose second range is that element alone.
SPLIT_SIZES = [
    ORACLE_SIZES,
    [3, tr.CHUNK - 3, 1, 2, tr.CHUNK - 6, 1, 1, 1],
    [tr.CHUNK - 6, 1, 1, 1, 1, 1, 1, 1],
]


@pytest.mark.parametrize("cpus", [2, 3, 16])
@pytest.mark.parametrize("sizes", SPLIT_SIZES, ids=["oracle", "two-chunks", "one-chunk-and-one"])
def test_the_sweep_on_threads_is_bit_identical_to_whole_array_updates(
        monkeypatch, threads_started, cpus, sizes):
    fake_cpus(monkeypatch, range(cpus))
    params = layout_of_sizes(sizes)
    sweep_against_oracle(params)
    chunks = -(-params.flat.size // tr.CHUNK)
    # three sweeps, each by the caller and one helper per other range
    assert threads_started == ["pairsim-adadelta"] * (3 * (min(cpus, chunks) - 1))


@pytest.mark.parametrize("cpus", [2, 16])
def test_a_model_smaller_than_the_cpu_count_is_swept_inline(monkeypatch, threads_started,
                                                            cpus):
    fake_cpus(monkeypatch, range(cpus))
    params = layout_of_sizes([1] * 8 if cpus > 8 else [1, 0, 0, 0, 0, 0, 0, 0])
    assert params.flat.size < cpus
    sweep_against_oracle(params)
    assert threads_started == []


def test_a_range_that_raises_is_raised_once_every_thread_has_ended(monkeypatch,
                                                                   threads_started):
    fake_cpus(monkeypatch, [0, 1])
    params = layout_of_sizes(ORACLE_SIZES)
    state = tr.AdaDeltaState.zeros(params)
    sweep, finished, second = tr._sweep, [], threading.Event()

    def failing(rho, eps, P, *rest):
        if address(P) == address(params.flat):
            second.wait(10)         # else the caller sweeps the second range too
            raise FloatingPointError("first range")
        second.set()
        time.sleep(0.1)             # still running when the first range fails
        sweep(rho, eps, P, *rest)
        finished.append(P.size)
    monkeypatch.setattr(tr, "_sweep", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="first range"):
        tr.adadelta_step(state, params)
    assert finished == [params.flat.size - 3 * tr.CHUNK]
    assert threading.active_count() == before
    assert threads_started == ["pairsim-adadelta"]


def desk_spec():
    """The model of the desk benchmark: 40-d lexicon, H = l = 16, L = 4."""
    return md.ModelSpec(task="sts", encoder="maxlstm", comparison="multi",
                        total_dim=40, H=16, l=16, L=4, d_neu=8, C=5,
                        score=obj.ScoreSpec(5, 0, 5))


@pytest.mark.parametrize("case", ["one CPU", "desk-sized model"])
def test_one_cpu_or_a_desk_sized_model_is_swept_inline(monkeypatch, case):
    if case == "one CPU":
        monkeypatch.setattr(tr, "THREAD_MIN", 0)
        fake_cpus(monkeypatch, [0])
        params = layout_of_sizes(ORACLE_SIZES)
    else:
        fake_cpus(monkeypatch, [0, 1])
        params = md.build_model(desk_spec(), seed=1)
        assert params.flat.size == 49108 and tr.CHUNK < params.flat.size < tr.THREAD_MIN

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(threading, "Thread", no_thread)
    sweep_against_oracle(params)


def test_training_with_the_sweep_on_threads_is_bit_identical_to_inline(lex, monkeypatch,
                                                                     threads_started):
    batch = sts_overfit_dataset().examples[:6]
    spec = dataclasses.replace(maxlstm_spec(dropout=0.5), H=48, l=48)
    runs = []
    for cpus in ([0], [0, 1]):          # inline, then on two threads
        fake_cpus(monkeypatch, cpus)
        params = md.build_model(spec, seed=9)
        state = tr.AdaDeltaState.zeros(params)
        rng = stream(9, "dropout")
        for _ in range(4):
            tr.train_step(params, state, lex, batch, rng)
        runs.append((params.flat.tobytes(), state.flat.tobytes()))
    assert threads_started == ["pairsim-adadelta"] * 4     # one helper per step
    assert runs[0] == runs[1]


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
        for row, views in zip((*state.flat, state.grad_flat),
                              (state.Eg2, state.Edx2, state.grad)):
            assert views[name].shape == arr.shape
            assert address(views[name]) == address(row) + 8 * off
        off += arr.size
    assert off == params.flat.size
    assert state.flat.shape == (2, off) and state.grad_flat.shape == (off,)
    assert state.flat.base is state.grad_flat.base      # the rows of one (3, n) buffer
    assert md.is_flat(params)


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
    assert state.flat.tobytes() == raw[mid:]
    assert not state.grad_flat.any()


def test_adadelta_refuses_parameters_that_are_not_views_of_their_buffer(lex):
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    before = params.flat.copy()
    copy = md.ModelParams(params.spec, {n: a.copy() for n, a in params.w.items()})
    stale = md.ModelParams(params.spec, copy.w, params.flat)    # a buffer its arrays do not view
    state.grad_flat[...] = 1.0
    for bad in (copy, stale):
        with pytest.raises(ConfigError, match="views of params.flat"):
            tr.adadelta_step(state, bad)
    np.testing.assert_array_equal(params.flat, before)
    assert not state.flat.any() and np.all(state.grad_flat == 1.0)


def test_save_checkpoint_refuses_parameters_or_state_not_of_the_flat_model(tmp_path):
    params = md.build_model(small_spec(), seed=1)
    copy = md.ModelParams(params.spec, {n: a.copy() for n, a in params.w.items()})
    path = tmp_path / "model.ckpt"
    with pytest.raises(ConfigError, match="views of params.flat"):
        tr.save_checkpoint(path, copy)
    other = tr.AdaDeltaState.zeros(md.build_model(maxlstm_spec(), seed=1))
    with pytest.raises(ConfigError, match="optimizer state holds"):
        tr.save_checkpoint(path, params, other)
    assert not path.exists()


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
    # accumulators untouched, gradient buffer zero
    assert not state.flat.any() and not state.grad_flat.any()
    fresh = md.build_model(maxlstm_spec(dropout=0.5), seed=5)
    fresh_state = tr.AdaDeltaState.zeros(fresh)
    np.testing.assert_array_equal(params.flat, fresh.flat)
    tr.train_step(params, state, lex, batch, stream(5, "dropout"))
    tr.train_step(fresh, fresh_state, lex, batch, stream(5, "dropout"))
    np.testing.assert_array_equal(params.flat, fresh.flat)
    np.testing.assert_array_equal(state.flat, fresh_state.flat)
    np.testing.assert_array_equal(state.grad_flat, fresh_state.grad_flat)


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


@pytest.mark.parametrize("metrics, best, epochs", [
    ([math.nan, 0.2, math.nan, 0.1], 2, 4),     # a defined metric beats nan
    ([0.3, math.nan, math.nan], 1, 3),          # nan is no improvement
    ([math.nan, math.nan, math.nan], 1, 3),     # nor is it over nan
    ([0.3, math.nan, math.nan, 0.5], 1, 3),     # and counts towards patience
])
def test_an_undefined_validation_metric_is_no_improvement(lex, monkeypatch, metrics, best,
                                                          epochs):
    given = iter(metrics)
    monkeypatch.setattr(md, "dataset_metric", lambda *args: next(given))
    ds = sts_overfit_dataset()
    cfg = RunConfig(batch_size=8, epochs=len(metrics), seed=2, patience=2)
    result = tr.train(md.build_model(small_spec(), seed=2), lex, ds, cfg, valid=ds)
    assert result.best_epoch == best and len(result.history) == epochs
    assert [r.valid_metric for r in result.history] == pytest.approx(metrics[:epochs],
                                                                     nan_ok=True)


def test_validation_leaves_params_and_state_at_the_best_epoch(lex):
    # validation draws from no stream, so the first k epochs of this run
    # are a run of k epochs without validation
    ds = sts_overfit_dataset()
    cfg = RunConfig(batch_size=4, epochs=6, seed=2, patience=2)
    params = md.build_model(maxlstm_spec(dropout=0.5), seed=2)
    result = tr.train(params, lex, ds, cfg, valid=ds)
    k = result.best_epoch
    assert 1 < k < len(result.history)
    plain = md.build_model(maxlstm_spec(dropout=0.5), seed=2)
    short = tr.train(plain, lex, ds, dataclasses.replace(cfg, epochs=k))
    assert [r.train_loss for r in result.history[:k]] == [r.train_loss for r in short.history]
    assert result.params is params and short.params is plain
    assert params.flat.tobytes() == plain.flat.tobytes()
    assert result.state.flat.tobytes() == short.state.flat.tobytes()
    assert not result.state.grad_flat.any()


def wide_proj_spec():
    """A proj_avg model of 0.53 M parameters (4.1 MiB) whose largest
    array, W_proj, is half of them, so that no step's temporary comes
    near a whole row."""
    return md.ModelSpec(task="sts", encoder="proj_avg", comparison="sent",
                        total_dim=512, H=1, l=1, L=1, d_neu=256, C=5,
                        dropout_p=0.0, score=obj.ScoreSpec(5, 0, 5))


@pytest.mark.parametrize("with_valid", [True, False])
def test_train_keeps_the_best_epoch_in_one_buffer_of_three_rows(with_valid):
    # live: the parameters and the three state rows; with a validation
    # set, one (3, n) buffer more; the slack of one row covers a step's
    # temporaries and the tape
    wide = toy_lexicon(seed=7, dims=(512,))
    ds = sts_overfit_dataset()
    tracemalloc.start()
    try:
        params = md.build_model(wide_proj_spec(), seed=3)
        result = tr.train(params, wide, ds, RunConfig(batch_size=8, epochs=4, seed=3,
                                                      patience=4),
                          valid=ds if with_valid else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = params.flat.nbytes
    assert result.best_epoch > 1 and len(result.history) == 4
    assert peak < (4 + 3 * with_valid + 1) * row, peak / row


def with_gold(ds, i, gold):
    examples = list(ds.examples)
    examples[i] = dataclasses.replace(examples[i], gold_score=gold)
    return dataclasses.replace(ds, examples=examples)


@pytest.mark.parametrize("gold", [7.5, -0.5, math.nan])
@pytest.mark.parametrize("role", ["training", "validation"])
def test_train_refuses_an_out_of_range_gold_before_any_step(lex, role, gold):
    ds = sts_overfit_dataset()
    bad = with_gold(ds, 2, gold)
    data, valid = (bad, ds) if role == "training" else (ds, bad)
    params = md.build_model(small_spec(), seed=1)
    before = params.flat.copy()
    with pytest.raises(DataError, match=rf"{role} set example 2: gold score {gold} "
                                        rf"outside \[0, 5\]"):
        tr.train(params, lex, data, RunConfig(batch_size=2, epochs=1), valid)
    np.testing.assert_array_equal(params.flat, before)


@pytest.mark.parametrize("keep, distinct", [(16, 1), (0, 0)])
def test_train_refuses_a_valid_set_without_a_metric_before_any_step(lex, keep, distinct):
    ds = sts_overfit_dataset()
    valid = dataclasses.replace(ds, examples=[dataclasses.replace(ex, gold_score=3.0)
                                              for ex in ds.examples[:keep]])
    params = md.build_model(small_spec(), seed=1)
    before = params.flat.copy()
    with pytest.raises(DataError, match=f"validation set: {keep} usable examples "
                                        f"with {distinct} distinct"):
        tr.train(params, lex, ds, RunConfig(batch_size=2, epochs=1), valid,
                 on_epoch=lambda rec: pytest.fail("an epoch ran"))
    np.testing.assert_array_equal(params.flat, before)


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


def test_lstm_split_leaves_a_trained_checkpoint_byte_identical(tmp_path):
    """``pairsim train`` writes the same bytes with BLAS unset, at one and
    at two OpenBLAS threads, on every CPU and confined to one: the train
    step runs OpenBLAS at one thread whatever the setting, and each LSTM
    pass cuts its large products by shape alone, between the caller and a
    helper thread or, on one CPU, on the caller alone.  At l = 256, H = 48
    and one batch of 32 sentences (99 words) a pass holds about 22 M
    multiply-adds, and the input projection, the steps over k >= 16 and
    all three gradient products are cut.  At H = l = 300, neither a
    multiple of 8, a column cut is not always bit-equal to the uncut
    product, so only cutting in the same places keeps the bytes; and two
    OpenBLAS threads sum some products in another order, cut or not."""
    import subprocess
    import sys
    from pairsim import evaldata as ed
    from toys import write_lexicon_files
    paths = write_lexicon_files(toy_lexicon(seed=7, dims=(5, 3)), tmp_path)
    (tmp_path / "sts.tsv").write_text(ed.serialize_pairs(sts_overfit_dataset()),
                                      encoding="utf-8")
    src = str(Path(tr.__file__).resolve().parent.parent)
    prog = ("import os, sys\n"
            "if sys.argv[1] != 'all':\n"
            "    os.sched_setaffinity(0, {int(sys.argv[1])})\n"
            "from pairsim.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n")

    def train(cfg, cpus, blas_threads):
        out = tmp_path / f"{cfg.stem}-{cpus}-{blas_threads}.ckpt"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if blas_threads != "unset":
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", prog, cpus, "train", str(tmp_path / "sts.tsv"),
                        "--config", str(cfg), "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=120)
        return out.read_bytes()

    one = str(threads.cpus()[0])
    settings = [("all", "unset"), ("all", "1"), ("all", "2"), (one, "1"), (one, "2")]
    for filters, lstm_dim in [(48, 256), (300, 300)]:
        cfg = tmp_path / f"lstm{filters}x{lstm_dim}.cfg"
        cfg.write_text(
            "embeddings = {}\n".format(",".join(str(p) for p in paths))
            + "seed = 13\nencoder = maxlstm\ncomparison = multi\n"
            + f"filters = {filters}\nlstm_dim = {lstm_dim}\nmax_len = 8\nd_neu = 4\n"
            + "dropout = 0.0\ntask = sts\nscore_k = 5\nraw_min = 0\nraw_max = 5\n"
            + "batch_size = 16\nepochs = 3\npatience = 10\n", encoding="utf-8")
        bytes_of = {setting: train(cfg, *setting) for setting in settings}
        differ = [s for s, b in bytes_of.items() if b != bytes_of[settings[0]]]
        assert differ == [], f"{cfg.stem}: {differ} differ from {settings[0]}"


def blas_counts(monkeypatch, get):
    """The BLAS thread count ``get`` reads at each ``pair_logits`` call
    from here on: once per block of a prediction or a train step."""
    seen = []
    forward = md.pair_logits

    def spy(*args, **kwargs):
        seen.append(get())
        return forward(*args, **kwargs)

    monkeypatch.setattr(md, "pair_logits", spy)
    return seen


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads, set through the setter pairsim found; its
    getter, and the count it had before put back afterwards."""
    get, put = threads._openblas()
    before = get()
    put(2)
    if get() != 2:
        pytest.skip("no OpenBLAS whose thread count can be set")
    yield get
    put(before)


def test_train_steps_and_predict_pin_one_blas_thread_and_give_the_count_back(
        lex, monkeypatch, two_blas_threads):
    """Each ``predict`` call (of two blocks here), each train step, also
    one that raises, and a gradient check set OpenBLAS to one thread once
    and set the caller's two threads again on their way out."""
    get = two_blas_threads
    put, puts = threads._openblas()[1], []
    monkeypatch.setattr(threads, "_openblas", lambda: (get, lambda n: (puts.append(n), put(n))))
    seen = blas_counts(monkeypatch, get)
    batch = sts_overfit_dataset().examples[:4]
    params = md.build_model(maxlstm_spec(), seed=5)
    state = tr.AdaDeltaState.zeros(params)
    md.predict(params, lex, [(ex.tokens1, ex.tokens2) for ex in batch], 3)
    assert (get(), puts) == (2, [1, 2])
    tr.train_step(params, state, lex, batch, stream(5, "dropout"))
    assert (get(), puts) == (2, [1, 2] * 2)
    nan_loss(monkeypatch)
    with pytest.raises(NumericError):
        tr.train_step(params, state, lex, batch, stream(5, "dropout"))
    assert (get(), puts) == (2, [1, 2] * 3)
    assert seen == [1] * 4
    # the encoder bias (6 entries) alone: full forward passes, one for the
    # analytic gradient and two per entry
    model_grad_check(params, lex, batch[:2], only={"encoder.b_r"})
    assert (get(), puts) == (2, [1, 2] * 4)
    assert seen == [1] * (4 + 1 + 2 * 6)


def test_without_openblas_train_steps_and_predict_leave_the_blas_threads_alone(
        lex, monkeypatch, two_blas_threads):
    """Where no mapped library can be opened, as where numpy runs on
    another BLAS, the lookup finds nothing, and the train step and
    ``predict`` run at the caller's thread count."""
    import ctypes

    def cannot_open(path, *args, **kwargs):
        raise OSError(f"{path}: cannot open shared object file")

    get = two_blas_threads
    monkeypatch.setattr(ctypes, "CDLL", cannot_open)
    threads._openblas.cache_clear()
    try:
        assert threads._openblas()[0]() == 1
        seen = blas_counts(monkeypatch, get)
        batch = sts_overfit_dataset().examples[:4]
        params = md.build_model(maxlstm_spec(), seed=5)
        md.predict(params, lex, [(ex.tokens1, ex.tokens2) for ex in batch], 4)
        tr.train_step(params, tr.AdaDeltaState.zeros(params), lex, batch, stream(5, "dropout"))
        assert (get(), seen) == (2, [2, 2])
    finally:
        threads._openblas.cache_clear()


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
    with pytest.raises(CheckpointError, match="format version 1, this build reads 2 or 3"):
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


# The same bytes for the classification tasks after three dropout-0.5
# steps over batches mixing the classes.  Recorded while classification
# still trained on a separate softmax cross entropy; the KL loss against
# one-hot targets that replaced it gives the same gradients, bit for bit.
PINNED_CLASSIFICATION = {
    ("entailment", "maxlstm"): "adc99e9cc16c482dbc50024c750ef9698ab5e147732b3ec21677255aefe39413",
    ("paraphrase", "maxlstm"): "f2fc02006440d65e31ad2e509b993f9f81531cfa4ae2a6c194dcf9dbd28db979",
    ("entailment", "lstm_only"): "4f23d556123deb316a7a61e8005611503ffbf5b02cddf12aab09e44c570834be",
}


@pytest.mark.parametrize("task, encoder", sorted(PINNED_CLASSIFICATION))
def test_classification_checkpoint_bytes_pinned(tmp_path, lex, task, encoder):
    labels = LABEL_NAMES[task]
    spec = md.ModelSpec(task=task, encoder=encoder,
                        comparison="multi" if encoder == "maxlstm" else "sent",
                        total_dim=8, H=6, l=6, L=4, d_neu=4, C=len(labels), dropout_p=0.5,
                        label_names=labels)
    params = md.build_model(spec, seed=17)
    state = tr.AdaDeltaState.zeros(params)
    rng = stream(17, "dropout")
    examples = cls3_dataset().examples      # classes 0, 1 and 2 in runs
    if task == "paraphrase":                # containment is a paraphrase, the rest not
        examples = [dataclasses.replace(ex, gold_label=int(ex.gold_label == 0))
                    for ex in examples]
    for k in range(3):
        tr.train_step(params, state, lex, examples[k::4], rng)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, params, state)
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    assert hashlib.sha256(raw[16 + n:]).hexdigest() == PINNED_CLASSIFICATION[task, encoder]


# SHA-256 of the format 3 file that each committed format 2 checkpoint
# saves again as
RESAVED = {
    "sts": "2e98a6880074ea69a69fd7573540ce97362f3da4ca8ee53727f2206c6c69dc7a",
    "entailment": "f2016f5b3f452c4978351012d862defc6e0c56f13345109a742c92b7098cd9f0",
    "paraphrase": "4a3a6093a9f9ca538bc55d31ed9cad709eaf61e94f86f1e516b0d41c78406f43",
}


@pytest.mark.parametrize("task", ["sts", "entailment", "paraphrase"])
def test_checkpoints_written_by_earlier_versions_save_again_unchanged(tmp_path, task):
    # tests/data holds checkpoints that record_checkpoint_fixtures.py wrote
    # with format version 2, before the metadata block was padded and
    # before the section table.  They load unchecked; the writer rebuilds
    # the whole header from the loaded model, so the digest pins the
    # header bytes as well as the payload, which is the committed one.
    committed = Path(__file__).parent / "data" / f"{task}.ckpt"
    params, state, meta = tr.load_checkpoint(committed)
    assert params.spec.task == task and state is not None
    again = tmp_path / "again.ckpt"
    tr.save_checkpoint(again, params, state, {k: meta[k] for k in USER_KEYS})
    raw, new = committed.read_bytes(), again.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    (m,) = struct.unpack("<Q", new[8:16])
    assert (16 + n) % 64 and not (16 + m) % 64  # the fixture's payload is unaligned: copied
    assert raw[:4] == new[:4] and raw[4:8] == struct.pack("<I", 2) != new[4:8]
    assert new[16 + m:] == raw[16 + n:]
    assert hashlib.sha256(new).hexdigest() == RESAVED[task]


def test_committed_format_2_checkpoints_load_unchecked(tmp_path):
    # format 2 has no section table, so a damaged payload byte still loads
    committed = Path(__file__).parent / "data" / "sts.ckpt"
    params, state, _ = tr.load_checkpoint(committed)
    raw = bytearray(committed.read_bytes())
    raw[-1] ^= 0x01
    damaged = tmp_path / "damaged.ckpt"
    damaged.write_bytes(raw)
    _, damaged_state, _ = tr.load_checkpoint(damaged)
    assert damaged_state.flat.tobytes()[:-1] == state.flat.tobytes()[:-1]
    assert damaged_state.flat.tobytes()[-1] == state.flat.tobytes()[-1] ^ 0x01


# ---------------------------------------------------------------------------
# mapped checkpoints and the atomic writer


def wide_spec():
    """A sentence-level model of 0.63 M parameters (4.8 MiB)."""
    return md.ModelSpec(task="sts", encoder="word_avg", comparison="sent",
                        total_dim=256, H=1, l=1, L=1, d_neu=1200, C=5,
                        dropout_p=0.0, score=obj.ScoreSpec(5, 0, 5))


def test_a_load_maps_the_payload_instead_of_copying_it(tmp_path):
    params = md.build_model(wide_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params)
    state.flat[...] = 0.5
    path = tmp_path / "wide.ckpt"
    tr.save_checkpoint(path, params, state)
    row = params.flat.nbytes
    assert row > 4 << 20
    for with_state, budget in ((False, 0), (True, row)):
        tracemalloc.start()
        try:
            loaded, loaded_state, _ = tr.load_checkpoint(path, with_state=with_state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing is copied: the only new buffer is the zeroed gradient row
        assert budget <= peak < budget + (1 << 20)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert (loaded_state is None) != with_state
    assert loaded_state.flat.tobytes() == state.flat.tobytes()
    assert not loaded_state.grad_flat.any()


def is_mapped(arr) -> bool:
    """Whether arr views a checkpoint's mapping rather than a copy of it."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return isinstance(arr.base, memoryview) and isinstance(arr.base.obj, mmap.mmap)


def continue_training(params, state, lex, steps=3):
    rng, examples = stream(5, "dropout"), sts_overfit_dataset().examples
    return [tr.train_step(params, state, lex, examples[4 * k:4 * k + 4], rng)
            for k in range(steps)]


@pytest.mark.parametrize("source", ["written", "committed"])
def test_training_continued_from_a_loaded_checkpoint_is_bit_identical(tmp_path, lex,
                                                                     source):
    from record_checkpoint_fixtures import fixture_model
    if source == "written":
        params = md.build_model(maxlstm_spec(dropout=0.5), seed=17)
        state = tr.AdaDeltaState.zeros(params)
        continue_training(params, state, lex, steps=2)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, params, state)
    else:
        params, state, _ = fixture_model("sts")
        path = Path(__file__).parent / "data" / "sts.ckpt"
    loaded, loaded_state, _ = tr.load_checkpoint(path)
    # a new file is mapped; the committed one predates the padding, so its
    # unaligned payload is copied
    assert is_mapped(loaded.flat) == is_mapped(loaded_state.flat) == (source == "written")
    assert continue_training(loaded, loaded_state, lex) == continue_training(
        params, state, lex)
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert loaded_state.flat.tobytes() == state.flat.tobytes()
    if source == "written":             # the mapping's pages were copied, not the file
        assert tr.load_checkpoint(path)[0].flat.tobytes() != params.flat.tobytes()


def test_a_loaded_model_is_unchanged_by_a_save_to_its_path(tmp_path, lex):
    path = tmp_path / "model.ckpt"
    first = md.build_model(maxlstm_spec(), seed=1)
    tr.save_checkpoint(path, first, tr.AdaDeltaState.zeros(first))
    loaded, state, _ = tr.load_checkpoint(path)
    before = loaded.flat.tobytes(), state.flat.tobytes()
    second = md.build_model(maxlstm_spec(), seed=2)
    second_state = tr.AdaDeltaState.zeros(second)
    continue_training(second, second_state, lex, steps=1)
    tr.save_checkpoint(path, second, second_state)
    assert (loaded.flat.tobytes(), state.flat.tobytes()) == before
    assert tr.load_checkpoint(path)[0].flat.tobytes() == second.flat.tobytes()


@pytest.mark.parametrize("with_state", [False, True], ids=["params", "with-state"])
def test_every_payload_starts_at_a_multiple_of_64(tmp_path, with_state):
    params = md.build_model(small_spec(), seed=1)
    state = tr.AdaDeltaState.zeros(params) if with_state else None
    path = tmp_path / "model.ckpt"
    for k in range(70):                 # every metadata length modulo 64
        tr.save_checkpoint(path, params, state, {"note": "x" * k})
        raw = path.read_bytes()
        (n,) = struct.unpack("<Q", raw[8:16])
        assert (16 + n) % 64 == 0 and raw[16:16 + n].rstrip(b" ").endswith(b"}")
        loaded, _, meta = tr.load_checkpoint(path)
        assert meta["note"] == "x" * k and is_mapped(loaded.flat)


class FullDisk(io.FileIO):
    """A file whose second write stores half its bytes, then fails."""

    def write(self, data):
        self.writes = getattr(self, "writes", 0) + 1
        if self.writes < 2:
            return super().write(data)
        super().write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_save_leaves_the_old_file_and_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    params = md.build_model(small_spec(), seed=1)
    tr.save_checkpoint(path, params, tr.AdaDeltaState.zeros(params))
    old = path.read_bytes()
    monkeypatch.setattr(store, "open", lambda fd, mode: FullDisk(fd, mode), raising=False)
    with pytest.raises(CheckpointError, match="cannot write checkpoint .*No space left"):
        tr.save_checkpoint(path, md.build_model(small_spec(), seed=2))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        tr.save_checkpoint(tmp_path / "missing" / "model.ckpt", params)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_a_saved_file_gets_the_mode_open_would_give(tmp_path):
    params = md.build_model(small_spec(), seed=1)
    mask = os.umask(0o027)
    try:
        tr.save_checkpoint(tmp_path / "new.ckpt", params)
    finally:
        os.umask(mask)
    assert (tmp_path / "new.ckpt").stat().st_mode & 0o7777 == 0o640
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"")
    old.chmod(0o604)
    tr.save_checkpoint(old, params)
    assert old.stat().st_mode & 0o7777 == 0o604

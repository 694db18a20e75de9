import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from pairsim import numcore as nc
from pairsim.errors import ConfigError, ShapeError
from pairsim.rng import stream

from oracles import gate_dicts, scalar_cosine, scalar_lstm_last


def tape_grads(build_loss, arrays):
    """Run build_loss(list-of-node-views) under a tape, return grads."""
    with nc.GradTape() as tape:
        leaves = [tape.leaf(a) for a in arrays]
        loss = build_loss(*leaves)
        tape.backward(loss)
    return [leaf.grad for leaf in leaves]


def central_diff(build_loss, arrays, h=1e-5):
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(nc._value(build_loss(*arrays)))
            flat[i] = orig - h
            fm = float(nc._value(build_loss(*arrays)))
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(build_loss, arrays, tol=1e-6):
    ana = tape_grads(build_loss, arrays)
    num = central_diff(build_loss, arrays)
    for a, n in zip(ana, num):
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        assert rel.max() < tol


# ---------------------------------------------------------------------------
# forward values


def test_linear_identity():
    y = nc.affine_rows(np.array([3.0, -1.0]), np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(y, [3.0, -1.0])


def test_linear_zero_weights():
    y = nc.affine_rows(np.array([9.0, 9.0]), np.zeros((2, 2)), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(y, [1.0, 2.0])


def test_linear_hand_case():
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = nc.affine_rows(np.array([1.0, 1.0]), W, np.zeros(2))
    np.testing.assert_array_equal(y, [3.0, 7.0])
    # rows of any leading shape map one by one
    M = np.array([[[1.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [2.0, 2.0]]])
    np.testing.assert_array_equal(nc.affine_rows(M, W, np.zeros(2)),
                                  [[[3.0, 7.0], [1.0, 3.0]], [[2.0, 4.0], [6.0, 14.0]]])


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 2\)"):
        nc.affine_rows(np.zeros(3), np.zeros((2, 2)), np.zeros(2))


def test_sigmoid_tanh_at_zero():
    assert float(nc.sigmoid(np.zeros(1))[0]) == 0.5


def test_sigmoid_saturates_without_nan():
    y = nc.sigmoid(np.array([-1e6, 1e6]))
    assert np.all(np.isfinite(y))
    assert 0.0 <= y[0] <= 1e-300
    assert y[1] == 1.0


def test_expit_matches_scipy():
    from scipy.special import expit as scipy_expit

    x = np.concatenate([np.linspace(-60.0, 60.0, 240_001),
                        [np.inf, -np.inf, 1e308, -1e308, 710.0, -710.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = nc.expit(x)
        assert np.max(np.abs(y - scipy_expit(x))) <= 2.3e-16
        assert y[-1] == 0.5
        assert list(y[-7:-1]) == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        assert nc.expit(0.0) == 0.5 and nc.expit(np.array(-800.0)) == 0.0  # 0-d

        # in place on a strided gate block, as the LSTM step calls it
        l = 5
        z = stream(3, "test").normal(scale=8.0, size=(7, 4 * l)).T
        gates = z[:3 * l]
        want = scipy_expit(gates)
        tail = z[3 * l:].copy()
        assert not gates.flags.contiguous
        assert nc.expit(gates, out=gates) is gates
        assert np.max(np.abs(gates - want)) <= 2.3e-16
        np.testing.assert_array_equal(z[3 * l:], tail)


def test_mul_absdiff_concat():
    np.testing.assert_array_equal(
        nc.elementwise_mul(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [3.0, 8.0])
    np.testing.assert_array_equal(
        nc.abs_diff(np.array([1.0, -2.0]), np.array([3.0, 1.0])), [2.0, 3.0])
    np.testing.assert_array_equal(nc.concat(np.array([1.0]), np.array([2.0, 3.0])), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(nc.concat(np.ones((2, 1)), np.zeros((2, 2))),
                                  [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ShapeError):
        nc.elementwise_mul(np.zeros(2), np.zeros(3))


def cosine(a, b) -> float:
    """Cosine of two vectors through the one cosine primitive."""
    return float(nc.cosine_rows(a[None], b[None])[0, 0])


def test_cosine_values():
    v = np.array([0.3, -1.2, 4.0])
    assert abs(cosine(v, v) - 1.0) < 1e-12
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.zeros(2), np.ones(2)) == 0.0


def test_cosine_scale_invariance():
    rng = stream(8, "test")
    for _ in range(50):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        al, be = rng.uniform(0.01, 100, size=2)
        assert abs(cosine(al * a, be * b) - cosine(a, b)) < 1e-12


def test_cosine_rows_matches_scalar_cosine():
    rng = stream(9, "test")
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(5, 4))
    A[1] = 0.0  # guarded row
    C = nc.cosine_rows(A, B)
    for i in range(3):
        for j in range(5):
            assert abs(C[i, j] - scalar_cosine(A[i], B[j])) < 1e-12
    # leading axes are a batch of independent tables
    A2, B2 = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4))
    C2 = nc.cosine_rows(A2, B2)
    for k in range(2):
        np.testing.assert_allclose(C2[k], nc.cosine_rows(A2[k], B2[k]), rtol=1e-15, atol=1e-15)


def test_max_over_time_values():
    np.testing.assert_array_equal(
        nc.max_over_time(np.array([[1.0, 3.0], [2.0, 0.0]]), [2]), [[2.0, 3.0]])
    single = np.array([[4.0, -1.0, 0.5]])
    np.testing.assert_array_equal(nc.max_over_time(single, [1]), single)
    # segments of lengths 1, 3 and 2 pool separately
    M = np.array([[0.0, 9.0], [1.0, 3.0], [5.0, 2.0], [2.0, 4.0], [-1.0, -2.0], [-3.0, -1.0]])
    np.testing.assert_array_equal(nc.max_over_time(M, [1, 3, 2]),
                                  [[0.0, 9.0], [5.0, 4.0], [-1.0, -1.0]])
    for bad in ([], [0, 6], [2, 3]):
        with pytest.raises(ShapeError):
            nc.max_over_time(M, bad)
    with pytest.raises(ShapeError):
        nc.max_over_time(np.zeros((0, 3)), [])


def test_max_over_time_tie_gradient_goes_to_first_row():
    M = np.full((2, 2), 5.0)
    with nc.GradTape() as tape:
        m = tape.leaf(M)
        loss = nc.vsum(nc.max_over_time(m, [2]))
        tape.backward(loss)
    np.testing.assert_array_equal(m.grad, [[1.0, 1.0], [0.0, 0.0]])
    # per segment: a tie across segments is no tie
    with nc.GradTape() as tape:
        m = tape.leaf(np.full((4, 2), 5.0))
        tape.backward(nc.vsum(nc.max_over_time(m, [1, 3])))
    np.testing.assert_array_equal(m.grad, [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_max_over_time_row_permutation_invariant():
    rng = stream(10, "test")
    M = rng.normal(size=(6, 4))
    base = nc.max_over_time(M, [6])
    for _ in range(100):
        perm = rng.permutation(6)
        np.testing.assert_array_equal(nc.max_over_time(M[perm], [6]), base)


def test_pad_rows():
    M = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(nc.pad_rows(M, [3], 3)[0], M)
    padded = nc.pad_rows(M[:1], [1], 3)[0]
    np.testing.assert_array_equal(padded[1:], np.zeros((2, 2)))
    truncated = nc.pad_rows(np.arange(10.0).reshape(5, 2), [5], 3)[0]
    np.testing.assert_array_equal(truncated, np.arange(6.0).reshape(3, 2))
    # segments of lengths 5, 1 and 3 in one call
    P = nc.pad_rows(np.arange(18.0).reshape(9, 2), [5, 1, 3], 3)
    np.testing.assert_array_equal(P[0], np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(P[1], [[10.0, 11.0], [0.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(P[2], np.arange(12.0, 18.0).reshape(3, 2))
    with pytest.raises(ShapeError):
        nc.pad_rows(M, [2], 3)


def test_dropout_modes():
    x = np.ones(4)
    assert nc.dropout(x, 0.5, training=False, rng=None) is x
    assert nc.dropout(x, 0.0, training=True, rng=stream(1, "dropout")) is x
    a = nc.dropout(x, 0.5, training=True, rng=stream(3, "dropout"))
    b = nc.dropout(x, 0.5, training=True, rng=stream(3, "dropout"))
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {0.0, 2.0}
    with pytest.raises(ConfigError):
        nc.dropout(x, 1.0, training=True, rng=stream(1, "dropout"))


def test_seeded_forward_is_bit_identical():
    def run():
        rng = stream(42, "test")
        x = rng.normal(size=8)
        W = rng.normal(size=(5, 8))
        y = nc.sigmoid(nc.affine_rows(x, W, rng.normal(size=5)))
        return nc.dropout(y, 0.5, training=True, rng=stream(42, "dropout"))

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# lstm primitive


def lstm_param_arrays(rng, l, k):
    """Fused W (4l, k), U (4l, l), b (4l,), drawn one gate block at a time."""
    W = np.concatenate([rng.uniform(-0.5, 0.5, size=(l, k)) for _ in range(4)])
    U = np.concatenate([rng.uniform(-0.5, 0.5, size=(l, l)) for _ in range(4)])
    b = np.concatenate([rng.uniform(-0.5, 0.5, size=l) for _ in range(4)])
    return W, U, b


def test_lstm_last_state_matches_scalar_loop():
    rng = stream(11, "test")
    W, U, b = lstm_param_arrays(rng, 3, 2)
    S = rng.normal(size=(5, 2))
    got = nc.lstm_last_state(S, [5], W, U, b)[0]
    want = scalar_lstm_last(S.tolist(), *gate_dicts(W, U, b))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_lstm_zero_params_give_zero_state():
    S = stream(12, "test").normal(size=(4, 3))
    z = np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8)
    np.testing.assert_array_equal(nc.lstm_last_state(S, [4], *z), np.zeros((1, 2)))


def test_lstm_shape_check_names_fused_shapes():
    S = np.zeros((2, 3))
    W, U, b = np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8)
    for bad in ((np.zeros((7, 3)), U, b), (W, np.zeros((8, 3)), b), (W, U, np.zeros(6)),
                (np.zeros((8, 2)), U, b)):
        with pytest.raises(ShapeError, match=r"lstm_last_state: W \(\d+, \d+\)"):
            nc.lstm_last_state(S, [2], *bad)


# a batch with n = 1, two equal lengths and n > L = 4 (the desk max_len)
MIXED_LENGTHS = (3, 1, 6, 3)


def rel_err(a, b):
    """Largest entry difference relative to the largest entry of b."""
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def mixed_batch(seed, l=3, k=2):
    """Packed (N, k) inputs of MIXED_LENGTHS sequences, weights, and one
    (l,) read-out vector per sequence."""
    rng = stream(seed, "test")
    W, U, b = lstm_param_arrays(rng, l, k)
    S = np.concatenate([rng.normal(size=(n, k)) for n in MIXED_LENGTHS])
    ws = np.array([rng.normal(size=l) for _ in MIXED_LENGTHS])
    return S, W, U, b, ws


def segments(S):
    """Row slices of the MIXED_LENGTHS sequences packed in S."""
    ends = np.cumsum(MIXED_LENGTHS)
    return [np.s_[e - n:e] for n, e in zip(MIXED_LENGTHS, ends)]


def test_lstm_batch_matches_scalar_loop():
    S, W, U, b, _ = mixed_batch(13)
    got = nc.lstm_last_state(S, MIXED_LENGTHS, W, U, b)
    assert got.shape == (len(MIXED_LENGTHS), 3)
    for rows, h in zip(segments(S), got):
        want = scalar_lstm_last(S[rows].tolist(), *gate_dicts(W, U, b))
        np.testing.assert_allclose(h, want, rtol=0, atol=1e-12)


def test_lstm_batch_matches_one_at_a_time():
    S, W, U, b, ws = mixed_batch(14)

    def run(batched):
        with nc.GradTape() as tape:
            S_, W_, U_, b_ = (tape.leaf(x) for x in (S, W, U, b))
            if batched:
                H = nc.lstm_last_state(S_, MIXED_LENGTHS, W_, U_, b_)
            else:
                H = nc.concat(*(nc.reshape(nc.lstm_last_state(
                    nc.take(S_, rows), [rows.stop - rows.start], W_, U_, b_), (1, 3))
                    for rows in segments(S)))
                H = nc.reshape(H, (len(MIXED_LENGTHS), 3))
            loss = nc.vsum(nc.elementwise_mul(H, ws))
            tape.backward(loss)
        return H.value, [x.grad for x in (S_, W_, U_, b_)]

    states, grads = run(batched=True)
    want_states, want_grads = run(batched=False)
    assert rel_err(states, want_states) <= 1e-12
    for g, want in zip(grads, want_grads):
        assert rel_err(g, want) <= 1e-12


def test_backward_lstm_batch_unused_and_shared_outputs():
    S, W, U, b, ws = mixed_batch(15)

    def loss(S_, W_, U_, b_):
        H = nc.lstm_last_state(S_, MIXED_LENGTHS, W_, U_, b_)
        # row 1 is unused; row 2 feeds two consumers
        h = [nc.take(H, j) for j in range(4)]
        parts = [nc.elementwise_mul(h[0], ws[0]), nc.elementwise_mul(h[2], ws[2]),
                 nc.elementwise_mul(h[2], h[3])]
        return nc.vsum(nc.concat(*parts))

    assert_grads_close(loss, [S, W, U, b])
    assert not np.any(tape_grads(loss, [S, W, U, b])[0][segments(S)[1]])


def spy_on_row_blocks(monkeypatch):
    """The (k, rows) of each call of the blocked recurrent product: one
    per blocked step, or two where a pass cuts its products."""
    calls = []
    blocked = nc._row_blocks_into

    def spy(U, h, rows, z):
        calls.append((h.shape[1], rows))
        return blocked(U, h, rows, z)

    monkeypatch.setattr(nc, "_row_blocks_into", spy)
    return calls


@pytest.fixture
def row_blocks(monkeypatch):
    """Blocks of 5 rows of U at l = 3 (12 rows as 5, 5, 2), so that toy
    steps over 2..7 sequences take the blocked recurrent product."""
    monkeypatch.setattr(nc, "_STREAM_BLOCK_BYTES", 5 * 8 * 3)
    return spy_on_row_blocks(monkeypatch)


def test_lstm_last_state_matches_scalar_loop_in_row_blocks(row_blocks):
    test_lstm_last_state_matches_scalar_loop()
    assert row_blocks == []         # one sequence: every step keeps the GEMM


# after t = 0, MIXED_LENGTHS runs k = 3 for two steps, then k = 1
def test_lstm_batch_matches_scalar_loop_in_row_blocks(row_blocks):
    test_lstm_batch_matches_scalar_loop()
    assert row_blocks == [(3, 5), (3, 5)]


def test_lstm_batch_matches_one_at_a_time_in_row_blocks(row_blocks):
    test_lstm_batch_matches_one_at_a_time()
    assert row_blocks == [(3, 5), (3, 5)]


def test_backward_lstm_batch_unused_and_shared_outputs_in_row_blocks(row_blocks):
    test_backward_lstm_batch_unused_and_shared_outputs()
    assert row_blocks and set(row_blocks) == {(3, 5)}


def one_gemm_lstm_states(S, n, W, U, b):
    """Final states of k equal-length sequences packed one after another
    in S, with each step's gates as one (k, 4l) GEMM: the step formula
    that runs outside the blocked window."""
    l = U.shape[1]
    seqs = S.reshape(-1, n, S.shape[1])
    h = c = np.zeros((seqs.shape[0], l))
    for t in range(n):
        z = seqs[:, t] @ W.T + b + h @ U.T
        i, f, o = (nc.expit(z[:, g * l:(g + 1) * l]) for g in range(3))
        c = f * c + i * np.tanh(z[:, 3 * l:])
        h = o * np.tanh(c)
    return h


def test_lstm_row_blocks_match_one_gemm_at_l400(monkeypatch):
    """At l = 400 U is 5.1 MB (five 1 MiB blocks of 327 rows); the blocked
    product runs exactly for the steps over 2..7 sequences.  With no pass
    large enough to cut, each blocked step is one call."""
    monkeypatch.setattr(nc, "_SPLIT_MIN", 1 << 62)
    l, k_in, n = 400, 3, 3
    rng = stream(16, "test")
    W = rng.uniform(-0.3, 0.3, size=(4 * l, k_in))
    U = rng.uniform(-0.05, 0.05, size=(4 * l, l))
    b = rng.uniform(-0.3, 0.3, size=4 * l)
    ks = spy_on_row_blocks(monkeypatch)
    for k in range(1, 10):
        S = rng.normal(size=(k * n, k_in))
        ks.clear()
        got = nc.lstm_last_state(S, [n] * k, W, U, b)
        assert rel_err(got, one_gemm_lstm_states(S, n, W, U, b)) <= 1e-13
        assert ks == ([(k, 327)] * (n - 1) if 2 <= k <= 7 else [])


def lstm_grads(S, lengths, W, U, b, w):
    """Gradients of sum(w * final states) for S, W, U and b."""
    with nc.GradTape() as tape:
        leaves = [tape.leaf(x) for x in (S, W, U, b)]
        H = nc.lstm_last_state(leaves[0], lengths, *leaves[1:])
        tape.backward(nc.vsum(nc.elementwise_mul(H, w)))
    return [x.grad for x in leaves]


def test_lstm_backward_steps_match_one_gemm_at_l800(monkeypatch):
    """At l = 800 every backward step t >= 1 forms U.T dz as one product,
    cut into two column halves over 2 or more sequences (here both by the
    caller, as on one CPU); step 0 computes no U.T dz at all, since h_0
    is the constant zero.  The gradients agree with uncut products."""
    lstm_split(monkeypatch, False)
    l, k_in, n = 800, 3, 3
    rng = stream(17, "test")
    limit = np.sqrt(6.0 / (2 * l))
    W = rng.uniform(-limit, limit, size=(4 * l, k_in))
    U = rng.uniform(-limit, limit, size=(4 * l, l))
    b = rng.uniform(-0.3, 0.3, size=4 * l)
    steps, cuts = [], spy_on_cuts(monkeypatch)
    split = nc._split_matmul

    def spy(A, B, crew, out):
        if B is U:
            steps.append(A.shape[0])
        return split(A, B, crew, out)

    monkeypatch.setattr(nc, "_split_matmul", spy)
    for k in range(1, 10):
        S, w = rng.normal(size=(k * n, k_in)), rng.normal(size=(k, l))
        steps.clear()
        cuts.clear()
        got = lstm_grads(S, [n] * k, W, U, b, w)
        assert steps == [k] * (n - 1)
        assert ((k, 4 * l, l) in cuts) == (k >= 2)
        with monkeypatch.context() as m:
            m.setattr(nc, "_SPLIT_MIN", 1 << 62)    # nothing cut
            want = lstm_grads(S, [n] * k, W, U, b, w)
        for g, one_gemm in zip(got, want):
            assert rel_err(g, one_gemm) <= 1e-14


def test_lstm_backward_peak_is_saved_state_plus_one_dz():
    """Backward holds the state the forward pass saved, one (4l, N) dZ and
    small per-step arrays: it recomputes tanh of the cells, drops each
    step's gate activations and cells once the step has run, and copies
    each step's dz into the one dZ."""
    l, k_in = 64, 64
    rng = stream(18, "test")
    lengths = [int(n) for n in rng.integers(5, 31, size=40)]
    W, U, b = lstm_param_arrays(rng, l, k_in)
    S, w = rng.normal(size=(sum(lengths), k_in)), rng.normal(size=(len(lengths), l))
    dz_bytes = 4 * l * sum(lengths) * 8
    slack = dz_bytes // 4           # per-step arrays, S's gradient, the dW and dU GEMMs
    with nc.GradTape() as tape:
        leaves = [tape.leaf(x) for x in (S, W, U, b)]
        for x in leaves:            # as an optimizer's gradient row provides them
            x.grad = np.zeros_like(x.value)
        tracemalloc.start()
        try:
            loss = nc.vsum(nc.elementwise_mul(
                nc.lstm_last_state(leaves[0], lengths, *leaves[1:]), w))
            saved = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < saved + dz_bytes + slack, (
        f"backward peaked at {peak / 2 ** 20:.2f} MiB over {saved / 2 ** 20:.2f} MiB "
        f"of saved state and a {dz_bytes / 2 ** 20:.2f} MiB dZ")
    for x, want in zip(leaves, lstm_grads(S, lengths, W, U, b, w)):
        np.testing.assert_array_equal(x.grad, want)


# A step over 2..7 sequences runs on the caller's thread and one pinned
# helper when there are two CPUs; steps after t = 0 over 8, 7, 6, 5, 4,
# 3, 2 and 1 sequences.
SPLIT_LENGTHS = [9, 1, 4, 6, 2, 7, 3, 5, 8, 2]


def lstm_split(monkeypatch, on: bool, here=0):
    """lstm_last_state cuts its large products on a crew of the caller
    and a helper thread (two CPUs) or the caller alone (one CPU), with
    the caller on CPU ``here``; returns the (CPU, name) of each helper
    thread started, as it pins itself."""
    import threading
    from pairsim import threads
    monkeypatch.setattr(threads, "cpus", lambda: [0, 1] if on else [0])
    monkeypatch.setattr(threads, "current_cpu", lambda: here)
    helpers = []
    pin = threads._pin

    def spy(cpu):
        helpers.append((cpu, threading.current_thread().name))
        pin(cpu)

    monkeypatch.setattr(threads, "_pin", spy)
    return helpers


@pytest.mark.parametrize("l", [200, 400])
def test_lstm_split_forward_is_bit_identical_to_inline(monkeypatch, l):
    """At l = 200 U is two blocks (655 and 145 rows), at l = 400 five (four
    of 327 and one of 292): the halves keep the inline block boundaries."""
    k_in = 5
    rng = stream(19, "test")
    limit = np.sqrt(6.0 / (2 * l))
    W = rng.uniform(-limit, limit, size=(4 * l, k_in))
    U = rng.uniform(-limit, limit, size=(4 * l, l))
    b = rng.uniform(-0.3, 0.3, size=4 * l)
    S = rng.normal(size=(sum(SPLIT_LENGTHS), k_in))
    w = rng.normal(size=(len(SPLIT_LENGTHS), l))
    results = []
    for on in (True, False):
        with monkeypatch.context() as m:
            helpers = lstm_split(m, on)
            ks = spy_on_row_blocks(m)
            got = nc.lstm_last_state(S, SPLIT_LENGTHS, W, U, b)
            grads = lstm_grads(S, SPLIT_LENGTHS, W, U, b, w)
        # one helper for the plain forward pass, one each for the taped
        # forward and backward passes; each blocked step in two halves
        assert helpers == ([(1, "pairsim-lstm")] * 3 if on else [])
        assert [k for k, _ in ks] == [7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2] * 2
        results.append([got, *grads])
    for split, inline in zip(*results):
        np.testing.assert_array_equal(split, inline)


class HelperFailure(Exception):
    pass


def lstm_split_case():
    rng = stream(23, "test")
    W, U, b = lstm_param_arrays(rng, 200, 3)
    return rng.normal(size=(sum(SPLIT_LENGTHS), 3)), SPLIT_LENGTHS, W, U, b


@pytest.mark.parametrize("here, cpu", [(0, 1), (1, 0), (None, 0)])
def test_lstm_helper_is_pinned_away_from_the_callers_cpu(monkeypatch, here, cpu):
    helpers = lstm_split(monkeypatch, True, here)
    nc.lstm_last_state(*lstm_split_case())
    assert helpers == [(cpu, "pairsim-lstm")]


def test_lstm_helper_failure_is_raised_after_the_callers_half(monkeypatch):
    import threading
    import time
    lstm_split(monkeypatch, True)
    events = []
    into = nc._row_blocks_into

    def halves(U, h, rows, z):
        if threading.current_thread().name == "pairsim-lstm":
            events.append("helper raises")
            raise HelperFailure("helper")
        time.sleep(0.05)            # the helper raises long before this ends
        into(U, h, rows, z)
        events.append("caller's half ends")
        return z

    monkeypatch.setattr(nc, "_row_blocks_into", halves)
    before = threading.active_count()
    with pytest.raises(HelperFailure, match="helper"):
        nc.lstm_last_state(*lstm_split_case())
    assert events == ["helper raises", "caller's half ends"]
    assert threading.active_count() == before


def test_lstm_callers_failure_waits_for_the_helpers_half(monkeypatch):
    import threading
    import time
    lstm_split(monkeypatch, True)
    events, helping = [], threading.Event()
    into = nc._row_blocks_into

    def halves(U, h, rows, z):
        if threading.current_thread().name != "pairsim-lstm":
            helping.wait(10)        # else the caller takes both halves
            raise HelperFailure("caller")
        helping.set()
        time.sleep(0.05)            # still running when the caller fails
        events.append("helper's half ends")
        return into(U, h, rows, z)

    monkeypatch.setattr(nc, "_row_blocks_into", halves)
    before = threading.active_count()
    with pytest.raises(HelperFailure, match="caller"):
        nc.lstm_last_state(*lstm_split_case())
    assert events == ["helper's half ends"]
    assert threading.active_count() == before


@pytest.mark.parametrize("l", [200, 400, 800])
def test_lstm_split_products_are_bit_identical_to_inline(monkeypatch, l):
    """33 sequences of lengths 1..33 run steps over k = 33, 32, ..., 1, so
    every product a pass cuts is cut at least once: the input
    projection, the forward steps over k >= 8, the backward steps over
    k >= 2 (from k = 27 on at l = 200 and k = 7 at l = 400, where
    smaller steps stay under ``_SPLIT_MIN``), and the products of S's,
    W's and U's gradients.  A helper thread on two CPUs and the caller
    alone on one cut them in the same places."""
    k_in = 16
    rng = stream(27, "test")
    W, U, b = lstm_param_arrays(rng, l, k_in)
    lengths = [int(n) for n in rng.permutation(np.arange(1, 34))]
    N = sum(lengths)                # 561
    S, w = rng.normal(size=(N, k_in)), rng.normal(size=(len(lengths), l))
    results, splits = [], []
    for on in (True, False):
        with monkeypatch.context() as m:
            helpers = lstm_split(m, on)
            cuts = spy_on_cuts(m)
            got = nc.lstm_last_state(S, lengths, W, U, b)
            grads = lstm_grads(S, lengths, W, U, b, w)
        assert helpers == ([(1, "pairsim-lstm")] * 3 if on else [])
        results.append([got, *grads])
        splits.append(cuts)
    assert splits[0] == splits[1]
    splits = set(splits[0])
    assert {(N, k_in, 4 * l), (N, 4 * l, k_in), (4 * l, N, k_in),
            (4 * l, N - 33, l)} <= splits
    assert {m for m, k, n in splits if (k, n) == (l, 4 * l)} \
        == set(range(27 if l == 200 else 8, 33))
    assert {m for m, k, n in splits if (k, n) == (4 * l, l)} \
        == set(range({200: 27, 400: 7, 800: 2}[l], 33))
    for split, inline in zip(*results):
        np.testing.assert_array_equal(split, inline)


def test_lstm_at_l300_is_bit_identical_on_one_cpu_and_on_two(monkeypatch):
    """At l = 300 over 300-wide inputs, neither a multiple of 8, a column
    cut of a step's product is not always bit-equal to the uncut product
    on OpenBLAS; the caller alone on one CPU makes the same cuts as the
    caller and its helper thread on two, so the outputs and all four
    gradients are equal."""
    l, k_in = 300, 300
    rng = stream(29, "test")
    limit = np.sqrt(6.0 / (k_in + l))
    W = rng.uniform(-limit, limit, size=(4 * l, k_in))
    U = rng.uniform(-limit, limit, size=(4 * l, l))
    b = rng.uniform(-0.3, 0.3, size=4 * l)
    lengths = [int(n) for n in rng.integers(2, 14, size=30)]
    S, w = rng.normal(size=(sum(lengths), k_in)), rng.normal(size=(len(lengths), l))
    results = []
    for on in (True, False):
        with monkeypatch.context() as m:
            helpers = lstm_split(m, on)
            results.append([nc.lstm_last_state(S, lengths, W, U, b),
                            *lstm_grads(S, lengths, W, U, b, w)])
        assert helpers == ([(1, "pairsim-lstm")] * 3 if on else [])
    for two, one in zip(*results):
        np.testing.assert_array_equal(two, one)


def refuse_threads(monkeypatch):
    """Make every thread start fail as it does where the process may
    start no more; returns the name of each thread that tried."""
    import threading
    tried = []

    def refuse(thread):
        tried.append(thread.name)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    return tried


def test_lstm_helper_that_cannot_start_leaves_its_half_to_the_caller(monkeypatch):
    import threading
    S, lengths, W, U, b = lstm_split_case()
    w = np.ones((len(lengths), U.shape[1]))
    with monkeypatch.context() as m:
        lstm_split(m, False)
        want = [nc.lstm_last_state(S, lengths, W, U, b), *lstm_grads(S, lengths, W, U, b, w)]
    lstm_split(monkeypatch, True)
    tried = refuse_threads(monkeypatch)
    before = threading.active_count()
    got = [nc.lstm_last_state(S, lengths, W, U, b), *lstm_grads(S, lengths, W, U, b, w)]
    assert tried == ["pairsim-lstm"] * 3 and threading.active_count() == before
    for g, one_cpu in zip(got, want):
        np.testing.assert_array_equal(g, one_cpu)


def test_lstm_without_affinity_calls_starts_one_unpinned_helper(monkeypatch):
    """Where os.sched_getaffinity is missing, ``threads.cpus()`` is one
    None per CPU and the caller's CPU is unknown (None): the helper still
    starts, unpinned."""
    import os
    from pairsim import threads
    cpus = threads.cpus
    helpers = lstm_split(monkeypatch, True, here=None)
    monkeypatch.setattr(threads, "cpus", cpus)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert threads.cpus() == [None, None]
    nc.lstm_last_state(*lstm_split_case())
    assert helpers == [(None, "pairsim-lstm")]


def spy_on_cuts(monkeypatch):
    """The (m, k, n) of each product that ``_split_matmul`` splits."""
    splits = []
    cut = nc._cut

    def spy(m, k, n):
        at = cut(m, k, n)
        if at:
            splits.append((m, k, n))
        return at

    monkeypatch.setattr(nc, "_cut", spy)
    return splits


def test_lstm_split_cut_leaves_no_half_under_8_rows_or_columns():
    """The longer side of the result is cut, at a multiple of 8 and into
    halves of 8 or more; a product of 2-7 rows (a backward step over few
    sequences) is cut across its columns, and one of a single row or
    column (a GEMV) is never cut."""
    big = nc._SPLIT_MIN
    for m in range(1, 80):
        for n in range(1, 80):
            at = nc._cut(m, -(-big // (m * n)), n)
            along, across = max(m, n), min(m, n)
            if at:
                assert at % 8 == 0 and at >= 8 and along - at >= 8 and across >= 2
                assert abs(along - 2 * at) <= 8
            else:
                assert across < 2 or along < 16
    for m, k, n in [(1, 800, 3200), (3200, 800, 1), (1, 4096, 4096)]:
        assert nc._cut(m, k, n) == 0        # k = 1 steps are GEMVs
    assert nc._cut(2, 3200, 800) == 400 and nc._cut(7, 3200, 800) == 400
    assert nc._cut(64, 64, 64) == 0        # under _SPLIT_MIN
    assert nc._cut(997, 800, 3200) == 1600 and nc._cut(3200, 937, 800) == 1600
    assert nc._cut(401, 800, 401) == 200


class MatmulSpy:
    """Wraps np.matmul during one LSTM backward pass, to make one half of a
    split product raise: the helper's half runs on the "pairsim-lstm"
    thread, and the caller's half is the caller's one product into part
    of a larger output (every other product in backward fills a whole
    array)."""

    def __init__(self, monkeypatch, helper_half, caller_half):
        self.monkeypatch, self.events = monkeypatch, []
        self.helper_half, self.caller_half = helper_half, caller_half

    def backward(self):
        import threading
        matmul = np.matmul

        def spy(A, B, out=None):
            if threading.current_thread().name == "pairsim-lstm":
                return self.helper_half(matmul, A, B, out)
            if out is not None and out.base is not None and out.shape != out.base.shape:
                return self.caller_half(matmul, A, B, out)
            return matmul(A, B, out=out)

        S, lengths, W, U, b = lstm_split_case()
        w = np.ones((len(lengths), U.shape[1]))
        with nc.GradTape() as tape:
            leaves = [tape.leaf(x) for x in (S, W, U, b)]
            loss = nc.vsum(nc.elementwise_mul(
                nc.lstm_last_state(leaves[0], lengths, *leaves[1:]), w))
            self.monkeypatch.setattr(np, "matmul", spy)
            tape.backward(loss)


def test_lstm_backward_helper_failure_is_raised_after_the_callers_half(monkeypatch):
    import threading
    import time
    lstm_split(monkeypatch, True)

    def helper_half(matmul, A, B, out):
        spy.events.append("helper raises")
        raise HelperFailure("helper")

    def caller_half(matmul, A, B, out):
        time.sleep(0.05)            # the helper raises long before this ends
        matmul(A, B, out=out)
        spy.events.append("caller's half ends")
        return out

    spy = MatmulSpy(monkeypatch, helper_half, caller_half)
    before = threading.active_count()
    with pytest.raises(HelperFailure, match="helper"):
        spy.backward()
    assert spy.events == ["helper raises", "caller's half ends"]
    assert threading.active_count() == before


def test_lstm_backward_callers_failure_waits_for_the_helpers_half(monkeypatch):
    import threading
    import time
    lstm_split(monkeypatch, True)

    helping = threading.Event()

    def helper_half(matmul, A, B, out):
        helping.set()
        time.sleep(0.05)            # still running when the caller fails
        matmul(A, B, out=out)
        spy.events.append("helper's half ends")
        return out

    def caller_half(matmul, A, B, out):
        helping.wait(10)            # else the caller takes both halves
        raise HelperFailure("caller")

    spy = MatmulSpy(monkeypatch, helper_half, caller_half)
    before = threading.active_count()
    with pytest.raises(HelperFailure, match="caller"):
        spy.backward()
    assert spy.events == ["helper's half ends"]
    assert threading.active_count() == before


@pytest.mark.parametrize("case", ["one-cpu", "one-blocked-step", "split", "desk"])
def test_lstm_starts_a_thread_only_where_the_split_pays(monkeypatch, case):
    import threading
    from pairsim import threads
    started = []

    def no_thread(*args, **kwargs):
        started.append(kwargs.get("name"))
        raise HelperFailure("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(threads, "cpus", lambda: [0] if case == "one-cpu" else [0, 1])
    S, lengths, W, U, b = lstm_split_case()
    if case == "one-blocked-step":  # t = 1 over 3 sequences, then t = 2 over 1:
        S, lengths = S[:7], [3, 2, 2]   # 0.66 M multiply-adds, under _SPLIT_MIN
    if case == "desk":              # l = 16, batches of 60 sentences of 3-12 words
        rng = stream(28, "test")
        W, U, b = lstm_param_arrays(rng, 16, 16)
        lengths = [int(n) for n in rng.integers(3, 13, size=60)]
        S = rng.normal(size=(sum(lengths), 16))
    if case == "split":
        with pytest.raises(HelperFailure):
            nc.lstm_last_state(S, lengths, W, U, b)
        assert started == ["pairsim-lstm"]
    else:                           # neither the forward nor the backward pass
        lstm_grads(S, lengths, W, U, b, np.ones((len(lengths), U.shape[1])))
        assert started == []


# ---------------------------------------------------------------------------
# backward consistency against finite differences


def test_backward_linear():
    rng = stream(20, "test")
    x, W, b = rng.normal(size=4), rng.normal(size=(3, 4)), rng.normal(size=3)
    w = rng.normal(size=3)
    assert_grads_close(lambda x, W, b: nc.vsum(nc.elementwise_mul(nc.affine_rows(x, W, b), w)),
                       [x, W, b])


def test_backward_affine_rows():
    rng = stream(21, "test")
    M, W, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
    w = rng.normal(size=(4, 5))
    assert_grads_close(
        lambda M, W, b: nc.vsum(nc.elementwise_mul(nc.reshape(nc.affine_rows(M, W, b), (-1,)),
                                                   w.reshape(-1))),
        [M, W, b])
    # a (2, 2, 3) stack of rows
    M3, w3 = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 5))
    assert_grads_close(
        lambda M, W, b: nc.vsum(nc.elementwise_mul(nc.affine_rows(M, W, b), w3)), [M3, W, b])


def test_backward_elementwise_and_activations():
    rng = stream(22, "test")
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    w = rng.normal(size=6)
    assert_grads_close(lambda x: nc.vsum(nc.elementwise_mul(nc.sigmoid(x), w)), [x.copy()])
    assert_grads_close(lambda x, y: nc.vsum(nc.elementwise_mul(nc.elementwise_mul(x, y), w)),
                       [x.copy(), y.copy()])


def test_backward_abs_diff_off_ties():
    rng = stream(23, "test")
    a = rng.normal(size=6)
    b = a + np.where(rng.normal(size=6) > 0, 1.0, -1.0) * rng.uniform(0.1, 1.0, size=6)
    w = rng.normal(size=6)
    assert_grads_close(lambda a, b: nc.vsum(nc.elementwise_mul(nc.abs_diff(a, b), w)), [a, b])


def test_backward_concat_stack_pad_row_flatten():
    rng = stream(24, "test")
    a, b, c = rng.normal(size=2), rng.normal(size=3), rng.normal(size=1)
    w = rng.normal(size=6)
    assert_grads_close(lambda a, b, c: nc.vsum(nc.elementwise_mul(nc.concat(a, b, c), w)),
                       [a, b, c])
    M = rng.normal(size=(3, 4))
    w2 = rng.normal(size=8)
    assert_grads_close(
        lambda M: nc.vsum(nc.elementwise_mul(nc.reshape(nc.pad_rows(M, [3], 2), (-1,)), w2)),
        [M])
    w3 = rng.normal(size=(5 * 4,))
    assert_grads_close(
        lambda M: nc.vsum(nc.elementwise_mul(nc.reshape(nc.pad_rows(M, [3], 5), (-1,)), w3)),
        [M])
    # two segments, one truncated and one padded; rows of a (2, 3) batch
    w4 = rng.normal(size=(2, 2, 4))
    assert_grads_close(
        lambda M: nc.vsum(nc.elementwise_mul(nc.pad_rows(M, [2, 1], 2), w4)), [M])
    A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 3))
    w5 = rng.normal(size=(2, 5))
    assert_grads_close(lambda A, B: nc.vsum(nc.elementwise_mul(nc.concat(A, B), w5)), [A, B])


def test_backward_prepend_to_rows():
    """One vector joined to every row of a matrix, as the word-sentence
    rows do it: a (1, k) row broadcast-added to an (n, k) matrix, and
    the take and reshape that feed it."""
    rng = stream(25, "test")
    v, M = rng.normal(size=3), rng.normal(size=(4, 3))
    w = rng.normal(size=(4, 3))
    assert_grads_close(
        lambda v, M: nc.vsum(nc.elementwise_mul(nc.add(M, nc.reshape(v, (1, 3))), w)),
        [v, M])
    X = rng.normal(size=(6, 3))
    w2 = rng.normal(size=(3, 2))
    assert_grads_close(
        lambda X: nc.vsum(nc.elementwise_mul(nc.take(X, np.s_[1::2, :2]), w2)), [X])
    with pytest.raises(ShapeError):
        nc.add(np.zeros((4, 3)), np.zeros(2))


def test_backward_cosine_and_cosine_rows():
    rng = stream(26, "test")
    a, b = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
    assert_grads_close(lambda a, b: nc.vsum(nc.cosine_rows(a, b)), [a, b])
    A, B = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
    w = rng.normal(size=6)
    assert_grads_close(
        lambda A, B: nc.vsum(nc.elementwise_mul(nc.reshape(nc.cosine_rows(A, B), (-1,)), w)),
        [A, B])
    A3, B3 = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 2, 4))
    w3 = rng.normal(size=(2, 3, 2))
    assert_grads_close(
        lambda A, B: nc.vsum(nc.elementwise_mul(nc.cosine_rows(A, B), w3)), [A3, B3])


def test_backward_cosine_guard_contributes_zero():
    a = np.zeros(3)
    b = np.array([1.0, 2.0, 3.0])
    with nc.GradTape() as tape:
        an, bn = tape.leaf(a), tape.leaf(b)
        tape.backward(nc.vsum(nc.cosine_rows(nc.reshape(an, (1, 3)), nc.reshape(bn, (1, 3)))))
    np.testing.assert_array_equal(an.grad, np.zeros(3))
    np.testing.assert_array_equal(bn.grad, np.zeros(3))


def test_backward_max_over_time_off_ties():
    rng = stream(27, "test")
    M = rng.normal(size=(4, 3)) + np.arange(4)[:, None] * 0.5
    w = rng.normal(size=(1, 3))
    assert_grads_close(lambda M: nc.vsum(nc.elementwise_mul(nc.max_over_time(M, [4]), w)),
                       [M])
    w2 = rng.normal(size=(3, 3))
    assert_grads_close(
        lambda M: nc.vsum(nc.elementwise_mul(nc.max_over_time(M, [1, 2, 1]), w2)), [M])


def test_backward_dropout_mask_is_linear():
    rng = stream(28, "test")
    x = rng.normal(size=8)
    w = rng.normal(size=8)

    def loss(x):
        return nc.vsum(nc.elementwise_mul(
            nc.dropout(x, 0.5, training=True, rng=stream(5, "dropout")), w))

    assert_grads_close(loss, [x])


def test_backward_lstm_last_state():
    rng = stream(29, "test")
    W, U, b = lstm_param_arrays(rng, 3, 2)
    S = rng.normal(size=(4, 2))
    w = rng.normal(size=3)

    def loss(S, W_, U_, b_):
        return nc.vsum(nc.elementwise_mul(nc.lstm_last_state(S, [4], W_, U_, b_), w[None]))

    assert_grads_close(loss, [S, W, U, b])


def test_backward_losses():
    rng = stream(30, "test")
    z = rng.normal(size=5)
    p = np.array([0.0, 0.0, 0.6, 0.4, 0.0])
    assert_grads_close(lambda z: nc.kl_from_logits(p, z), [z.copy()])
    assert_grads_close(lambda z: nc.kl_from_logits(np.eye(5)[2], z), [z.copy()])   # one-hot
    # (B, K) rows give (B,) losses
    Z = rng.normal(size=(3, 5))
    P = np.array([p, [0.2, 0.8, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
    w = rng.normal(size=3)
    assert_grads_close(lambda Z: nc.vsum(nc.elementwise_mul(nc.kl_from_logits(P, Z), w)),
                       [Z.copy()])
    assert_grads_close(
        lambda Z: nc.vsum(nc.elementwise_mul(nc.kl_from_logits(np.eye(5)[[2, 0, 4]], Z), w)),
        [Z.copy()])


def test_losses_on_rows_equal_losses_on_each_row():
    rng = stream(32, "test")
    Z = rng.normal(size=(4, 5))
    P = rng.dirichlet(np.ones(5), size=4)
    P[1] = [0.0, 0.3, 0.7, 0.0, 0.0]
    onehot = np.eye(5)[[0, 4, 2, 2]]
    kl, ce = nc.kl_from_logits(P, Z), nc.kl_from_logits(onehot, Z)
    assert kl.shape == ce.shape == (4,)
    for i in range(4):
        assert abs(kl[i] - float(nc.kl_from_logits(P[i], Z[i]))) <= 1e-15
        assert abs(ce[i] - float(nc.kl_from_logits(onehot[i], Z[i]))) <= 1e-15
    with pytest.raises(ShapeError):
        nc.kl_from_logits(onehot[:3], Z)


def test_backward_shared_input_accumulates():
    x = np.array([1.5, -0.5])
    with nc.GradTape() as tape:
        n = tape.leaf(x)
        loss = nc.vsum(nc.elementwise_mul(n, n))  # sum of squares
        tape.backward(loss)
    np.testing.assert_allclose(n.grad, 2 * x)


def test_grad_made_on_first_use_and_freed_after_use():
    with nc.GradTape() as tape:
        a = tape.leaf(np.ones(2))
        b = tape.leaf(np.ones(2))
        dead = nc.sigmoid(b)  # computed but unused
        mid = nc.scale(a, 2.0)
        root = nc.vsum(mid)
        tape.backward(root)
    np.testing.assert_array_equal(a.grad, 2.0 * np.ones(2))
    assert b.grad is None and dead.grad is None     # no gradient reached them
    assert mid.grad is None and root.grad is None   # freed after their backward


def test_backward_holds_few_gradients_at_once():
    """A chain of 16 records over a 1 MiB leaf: each intermediate gradient
    is made when it is first reached and freed once its record has run,
    so backward never holds more than a few 1 MiB arrays at a time."""
    with nc.GradTape() as tape:
        x = tape.leaf(np.zeros(1 << 17))
        y = x
        for _ in range(16):
            y = nc.scale(y, 1.0)
        root = nc.vsum(y)
        tracemalloc.start()
        try:
            tape.backward(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5 << 20, f"backward peaked at {peak / 2 ** 20:.1f} MiB"
    np.testing.assert_array_equal(x.grad, np.ones(1 << 17))


def test_backward_drops_each_record_and_runs_once():
    """Each record, and the forward state its closure saved, is dropped as
    its backward runs, while the tape itself is still alive."""
    with nc.GradTape() as tape:
        x = tape.leaf(np.array([0.5, -1.0]))
        root = nc.vsum(nc.sigmoid(nc.scale(x, 3.0)))
        closures = [weakref.ref(backward) for _, backward in tape._records]
        assert len(closures) == 3
        tape.backward(root)
        assert [ref() for ref in closures] == [None, None, None]
        grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="already run its backward"):
            tape.backward(root)
    np.testing.assert_array_equal(x.grad, grad)      # the failed call added nothing


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_square():
    report = nc.grad_check(
        lambda p: nc.vsum(nc.elementwise_mul(p["theta"], p["theta"])),
        {"theta": np.array([3.0])})
    assert report.max_rel_err < 1e-9
    assert report.passed(1e-4)


def test_grad_check_constant_function():
    const = np.ones(3)
    report = nc.grad_check(
        lambda p: nc.vsum(nc.elementwise_mul(p["x"], np.zeros(3))),
        {"x": const.copy()})
    assert report.max_rel_err < 1e-9


def test_grad_check_catches_wrong_backward(monkeypatch):
    def bad_sigmoid(x):
        y = nc.expit(nc._value(x))

        def backward(g):
            nc._acc(x, g * (y * (1.0 - y)) * 1.01)  # corrupted jacobian
        return nc._finish(y, (x,), backward)

    rng = stream(31, "test")
    W = rng.normal(size=(3, 3))
    x = rng.normal(size=3)
    report = nc.grad_check(
        lambda p: nc.vsum(bad_sigmoid(nc.affine_rows(x, p["W"], None))), {"W": W})
    assert not report.passed(1e-4)
    assert report.failures(1e-4)[0].name == "W"

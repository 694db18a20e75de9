"""Dense float64 numeric core with reverse-mode gradients.

Matrices are C-order float64 numpy arrays (2-D, row-major); vectors are
1-D arrays; scalars are 0-D arrays.  Every primitive below works in two
modes:

* plain mode: inputs are numpy arrays (or untracked values), the result
  is a numpy array.  Used for inference and finite-difference probes.
* recording mode: a ``GradTape`` is active and at least one input is a
  ``Node``; the primitive records its output ``Node`` with one closure,
  ``backward(g)``, which alone does the work only gradients need.

``GradTape.backward`` replays the recorded primitives in exact reverse
execution order, accumulating gradients into ``Node.grad``, and drops
each record once it has run, so a tape runs backward once.  A node's
gradient is made, as zeros, when the first gradient reaches it; a node
none reaches keeps ``grad`` None, and each record output's gradient is
reset to None once its record's backward has run.  A leaf whose ``grad``
is already set (a view of an optimizer buffer) accumulates in place.

Batch layout.  The model runs a minibatch batch-major.  The words of
all sentences are one packed (N, k) matrix, sentence after sentence,
with a list of per-sentence row counts; ``max_over_time``, ``pad_rows``
and ``lstm_last_state`` take that pair and return one row (or one
padded (L, k) slot) per sentence.  Every other primitive works over
the last axis (``affine_rows``, ``concat``, the losses) or the last two
axes (``cosine_rows``), with any leading batch axes, so one call, and
one tape record, serves the whole batch; a single (k,) vector is a
batch of one row.

``lstm_last_state`` returns all final states as one (n_seq, l) array
with one tape record.  Its weights are three fused arrays, W (4l, k),
U (4l, l) and b (4l,), with the four gates as row blocks in i/f/o/u
order, so neither direction restacks or slices them.  A forward step
over 2-7 running sequences reads U once, in L2-sized row blocks, where
one GEMM would read it about twice (window and sizes from a sweep on
OpenBLAS 0.3.31; see ``lstm_last_state``).  Each large pass cuts its
blocks and its large products in two, by shape alone, and runs both
halves on a ``threads.Crew`` of the caller and one pinned helper; on
one CPU the caller computes both.  The train step and ``predict`` run
OpenBLAS at one thread (``threads.one_blas_thread``), so there the
results depend neither on the CPU count nor on the BLAS thread setting.

The logistic, ``expit``, is 0.5 * tanh(0.5 * x) + 0.5 in four in-place
ufuncs, so numpy alone serves it.  It never overflows (so it needs no
``errstate``), maps 0 to exactly 0.5 and +-inf to 1 and 0, and differs
from ``scipy.special.expit`` by at most 2.3e-16 absolute (one ulp of
1.0).  Its smallest positive result is 2^-54 (5.6e-17); logistic values
below about 3e-17 come out as 0.

This is deliberately not a general autodiff system: only the primitives
the sentence-pair model needs exist, and only scalar roots can be
differentiated.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from . import threads
from .errors import ConfigError, ShapeError

_NORM_GUARD = 1e-12


_F64 = np.dtype(np.float64)


def as_f64(x) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype == _F64:
        return x
    return np.asarray(x, dtype=np.float64)


class Node:
    """A value in the computation graph plus its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = as_f64(value)
        self.grad = None

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


_ACTIVE: "GradTape | None" = None


class GradTape:
    """Ordered record of primitive applications for one backward pass.

    Use as a context manager around the forward computation; primitives
    executed inside register themselves.  One tape is active at a time
    (one training step runs on one logical thread).
    """

    def __init__(self):
        self._records: list[tuple[Node, Callable]] = []

    def __enter__(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a GradTape is already active")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False

    def leaf(self, value) -> Node:
        """Wrap an array so gradients accumulate on it."""
        return Node(value)

    def record(self, out: Node, inputs: tuple, backward: Callable):
        """Append ``out`` and its ``backward``; ``inputs``, the values it
        was computed from, are not kept (backward reaches them itself)."""
        self._records.append((out, backward))

    def backward(self, root: Node):
        """Accumulate d(root)/d(leaf) into the .grad of every leaf it reaches.

        Each record is dropped as its backward runs, and with it the
        forward state its closure saved, so a tape runs backward once.
        """
        if not isinstance(root, Node):
            raise TypeError("backward root must be a Node")
        if root.value.shape != ():
            raise ShapeError(f"backward root must be scalar, got shape {root.value.shape}")
        records, self._records = self._records, None
        if records is None:
            raise RuntimeError("this GradTape has already run its backward pass")
        root.grad = np.ones_like(root.value)
        while records:
            out, backward = records.pop()
            if out.grad is not None:
                backward(out.grad)
                out.grad = None


def _value(x) -> np.ndarray:
    if type(x) is Node:
        return x.value
    if type(x) is np.ndarray and x.dtype == _F64:
        return x
    return as_f64(x)


def _finish(value, inputs, backward):
    """Return raw value, or record a Node and its backward(g) if a tape is listening."""
    tape = _ACTIVE
    if tape is None:
        return value
    if not any(isinstance(x, Node) for x in inputs):
        return value
    out = Node(value)
    tape.record(out, inputs, backward)
    return out


def _grad(n: Node) -> np.ndarray:
    """n's gradient, made as zeros when the first gradient reaches n."""
    if n.grad is None:
        n.grad = np.zeros_like(n.value)
    return n.grad


def _acc(n: Node, g):
    """n's gradient += g."""
    grad = _grad(n)
    grad += g


# ---------------------------------------------------------------------------
# affine map


def affine_rows(M, W, b=None):
    """M @ W.T (+ b) over the last axis: M (..., k), W (m, k), b (m,) give
    (..., m).  A vector M is one row; any leading axes are rows too."""
    Mv, Wv = _value(M), _value(W)
    if Mv.ndim < 1 or Wv.ndim != 2 or Mv.shape[-1] != Wv.shape[1]:
        raise ShapeError(f"affine_rows: M {Mv.shape} incompatible with W {Wv.shape}")
    m, k = Wv.shape
    Y = Mv @ Wv.T if Mv.ndim <= 2 else (Mv.reshape(-1, k) @ Wv.T).reshape(*Mv.shape[:-1], m)
    if b is not None:
        bv = _value(b)
        if bv.shape != (m,):
            raise ShapeError(f"affine_rows: b {bv.shape} incompatible with W {Wv.shape}")
        Y += bv

    def backward(G):
        G2 = G.reshape(-1, m)
        if isinstance(M, Node):
            _acc(M, (G2 @ Wv).reshape(Mv.shape))
        if isinstance(W, Node):
            _acc(W, G2.T @ Mv.reshape(-1, k))
        if isinstance(b, Node):
            _acc(b, G2.sum(axis=0))

    return _finish(Y, (M, W, b), backward)


# ---------------------------------------------------------------------------
# elementwise


def _unbroadcast(g, shape):
    """g summed down to shape, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


# A 0-d array operand spares each ufunc call the conversion of a Python
# float: about a third of expit's time on the small gate blocks of one pair.
_HALF = np.array(0.5)


def expit(x, out=None):
    """Logistic 1 / (1 + e^-x), as 0.5 * tanh(0.5 * x) + 0.5; out may alias x."""
    y = np.multiply(x, _HALF, out=out)
    if y.ndim == 0:                 # a ufunc turns a 0-d result into a scalar
        return np.tanh(y) * 0.5 + 0.5
    np.tanh(y, out=y)
    y *= _HALF
    y += _HALF
    return y


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x); saturates to {0, 1} for huge |x|."""
    y = expit(_value(x))

    def backward(g):
        _acc(x, g * (y * (1.0 - y)))

    return _finish(y, (x,), backward)


def add(a, b):
    """a + b, with numpy broadcasting."""
    av, bv = _value(a), _value(b)
    try:
        y = av + bv
    except ValueError:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} do not broadcast") from None

    def backward(g):
        if isinstance(a, Node):
            _acc(a, _unbroadcast(g, av.shape))
        if isinstance(b, Node):
            _acc(b, _unbroadcast(g, bv.shape))

    return _finish(y, (a, b), backward)


def scale(x, c: float):
    c = float(c)
    y = _value(x) * c

    def backward(g):
        _acc(x, g * c)

    return _finish(y, (x,), backward)


def elementwise_mul(a, b):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"elementwise_mul: shapes {av.shape} and {bv.shape} differ")
    y = av * bv

    def backward(g):
        if isinstance(a, Node):
            _acc(a, g * bv)
        if isinstance(b, Node):
            _acc(b, g * av)

    return _finish(y, (a, b), backward)


def abs_diff(a, b):
    """|a - b| with subgradient 0 at exact ties."""
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"abs_diff: shapes {av.shape} and {bv.shape} differ")
    d = av - bv
    y = np.abs(d)

    def backward(g):
        gs = g * np.sign(d)
        if isinstance(a, Node):
            _acc(a, gs)
        if isinstance(b, Node):
            _acc(b, -gs)            # y - x is y + (-x), bit for bit

    return _finish(y, (a, b), backward)


def vsum(x):
    """Sum of all entries, as a scalar."""
    xv = _value(x)
    y = as_f64(xv.sum())

    def backward(g):
        _acc(x, np.broadcast_to(g, xv.shape))

    return _finish(y, (x,), backward)


# ---------------------------------------------------------------------------
# structure


def concat(*parts):
    """Concatenate along the last axis; the leading axes must agree."""
    vals = [_value(p) for p in parts]
    try:
        y = np.concatenate(vals, axis=-1)
    except ValueError:
        raise ShapeError(f"concat: shapes {[v.shape for v in vals]} do not line up") from None

    def backward(g):
        lo = 0
        for p, v in zip(parts, vals):
            hi = lo + v.shape[-1]
            if isinstance(p, Node):
                _acc(p, g[..., lo:hi])
            lo = hi

    return _finish(y, parts, backward)


def reshape(x, shape):
    """The same entries in another shape (row-major order)."""
    xv = _value(x)
    y = xv.reshape(shape)

    def backward(g):
        _acc(x, g.reshape(xv.shape))

    return _finish(y, (x,), backward)


def take(x, key):
    """x[key] for a key that selects no entry twice: slices, or an index
    array without repeats.  The result may be a view of x."""
    y = _value(x)[key]

    def backward(g):
        _grad(x)[key] += g

    return _finish(y, (x,), backward)


def _segments(lengths, n_rows: int, name: str) -> list[int]:
    """Validated segment lengths, as a list, of a packed (n_rows, k) matrix."""
    ns = [int(n) for n in lengths]
    if not ns or min(ns) < 1 or sum(ns) != n_rows:
        raise ShapeError(f"{name}: lengths {ns} do not split {n_rows} rows "
                         f"into nonempty segments")
    return ns


def pad_rows(M, lengths, n_rows: int):
    """(S, n_rows, k) stack of the segments of a packed (N, k) matrix.

    M holds S consecutive segments, lengths[j] rows each.  Slot j of the
    result holds the first min(lengths[j], n_rows) rows of segment j,
    zero-padded up to n_rows rows.
    """
    Mv = _value(M)
    if Mv.ndim != 2:
        raise ShapeError(f"pad_rows: need a packed (N, k) matrix, got shape {Mv.shape}")
    ns = _segments(lengths, Mv.shape[0], "pad_rows")
    spans = []      # (slot, first row, rows kept)
    start = 0
    for j, n in enumerate(ns):
        spans.append((j, start, min(n, n_rows)))
        start += n
    Y = np.zeros((len(ns), n_rows, Mv.shape[1]))
    for j, s, n in spans:
        Y[j, :n] = Mv[s:s + n]

    def backward(G):
        gM = _grad(M)
        for j, s, n in spans:
            gM[s:s + n] += G[j, :n]

    return _finish(Y, (M,), backward)


# ---------------------------------------------------------------------------
# similarity and pooling


def _row_norms(Xv):
    """Euclidean norms of the rows of Xv, with 1 where a norm is below the
    guard, and the mask of the rows that pass it."""
    n = np.sqrt((Xv * Xv).sum(axis=-1))
    ok = n >= _NORM_GUARD
    return np.where(ok, n, 1.0), ok


def cosine_rows(A, B):
    """All-pairs row cosines C[..., i, j] = cosine(A[..., i, :], B[..., j, :])
    for A (..., n, k) and B (..., m, k) with equal leading axes; 0, with
    zero gradient, where either norm is below 1e-12."""
    Av, Bv = _value(A), _value(B)
    if Av.ndim < 2 or Bv.ndim != Av.ndim or Av.shape[:-2] != Bv.shape[:-2] \
            or Av.shape[-1] != Bv.shape[-1]:
        raise ShapeError(f"cosine_rows: shapes {Av.shape} and {Bv.shape} do not match")
    sa, ok_a = _row_norms(Av)
    sb, ok_b = (sa, ok_a) if Bv is Av else _row_norms(Bv)
    mask = ok_a[..., :, None] & ok_b[..., None, :]
    C = (Av @ np.swapaxes(Bv, -1, -2)) / (sa[..., :, None] * sb[..., None, :])
    C *= mask

    def backward(G):
        Gm = G * mask
        GC = Gm * C
        if isinstance(A, Node):
            _acc(A, (Gm / sb[..., None, :]) @ Bv / sa[..., :, None]
                 - Av * (GC.sum(axis=-1) / (sa * sa))[..., None])
        if isinstance(B, Node):
            GmT = np.swapaxes(Gm, -1, -2)
            _acc(B, (GmT / sa[..., None, :]) @ Av / sb[..., :, None]
                 - Bv * (GC.sum(axis=-2) / (sb * sb))[..., None])

    return _finish(C, (A, B), backward)


def max_over_time(M, lengths):
    """(S, k) per-column maxima of each segment of a packed (N, k) matrix.

    M holds S consecutive segments of lengths[j] rows.  The gradient of
    each maximum goes to the first row of its segment that attains it.
    """
    Mv = _value(M)
    if Mv.ndim != 2:
        raise ShapeError(f"max_over_time: need a packed (N, k) matrix, got shape {Mv.shape}")
    ns = _segments(lengths, Mv.shape[0], "max_over_time")
    starts = [0]
    for n in ns[:-1]:
        starts.append(starts[-1] + n)
    y = np.maximum.reduceat(Mv, starts, axis=0)

    def backward(g):
        # first winning row of each segment and column
        rows = np.minimum.reduceat(
            np.where(Mv == np.repeat(y, ns, axis=0), np.arange(Mv.shape[0])[:, None],
                     Mv.shape[0]), starts, axis=0)
        _grad(M)[rows, np.arange(Mv.shape[1])] += g

    return _finish(y, (M,), backward)


# ---------------------------------------------------------------------------
# regularization


def dropout(x, p: float, training: bool, rng: np.random.Generator | None):
    """Inverted dropout: scale survivors by 1/(1-p) in training, identity otherwise.

    The mask is one draw of x's shape, in row-major order: for a (B, n)
    batch that equals B draws of n in turn from the same stream.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    xv = _value(x)
    mask = (rng.random(xv.shape) >= p) / (1.0 - p)
    y = xv * mask

    def backward(g):
        _acc(x, g * mask)

    return _finish(y, (x,), backward)


# ---------------------------------------------------------------------------
# recurrent unit

# The bytes of U per row block, and the most running sequences, of the
# blocked recurrent product; both from the sweep ``lstm_last_state`` cites.
_STREAM_BLOCK_BYTES = 1 << 20
_STREAM_MAX_K = 7
# The fewest multiply-adds of a pass that cuts its products, and of a
# product that is cut: about 0.15 ms of one-thread GEMM here, near the
# 0.1 ms a helper takes to start and join (see ``lstm_last_state``).
_SPLIT_MIN = 1 << 22


def _row_blocks_into(U, h, rows: int, z) -> np.ndarray:
    """z = U @ h, rows of U at a time: the whole blocks as one stacked
    product (one call, which BLAS runs block by block), then the short
    block that ends U, if any."""
    n = U.shape[0] // rows * rows
    if n:
        np.matmul(U[:n].reshape(-1, rows, U.shape[1]), h,
                  out=z[:n].reshape(-1, rows, z.shape[1]))
    if n < U.shape[0]:
        np.matmul(U[n:], h, out=z[n:])
    return z


def _cut(m: int, k: int, n: int) -> int:
    """Where a pass with a helper cuts an (m, k) @ (k, n) product: a row
    index if m >= n, else a column index, at a multiple of 8 near the
    middle, which keeps OpenBLAS's register tiles whole; 0 under
    ``_SPLIT_MIN`` multiply-adds, for a product of one row or column (a
    GEMV) or where a half would have fewer than 8 rows or columns."""
    if m * k * n < _SPLIT_MIN or min(m, n) < 2 or max(m, n) < 16:
        return 0
    return (max(m, n) + 8) // 16 * 8


def _halves(crew, cut: int, job):
    """job(cut, None) and job(0, cut) as one ``crew.run``, or job(0, None)
    alone without a crew or a cut."""
    if crew is None or not cut:
        return job(0, None)
    crew.run([partial(job, cut, None), partial(job, 0, cut)])


def _split_matmul(A, B, crew, out) -> np.ndarray:
    """out = A @ B, cut where ``_cut`` says into rows (or columns) for the
    crew's caller and helper.  A cut product may differ from the uncut one
    in its last bits (OpenBLAS may sum a narrower product in another
    order), so a cut depends on the shape alone, never on the CPUs."""
    (m, k), n = A.shape, B.shape[1]
    cut = _cut(m, k, n) if crew is not None else 0
    if m >= n:
        _halves(crew, cut, lambda lo, hi: np.matmul(A[lo:hi], B, out=out[lo:hi]))
    else:
        _halves(crew, cut, lambda lo, hi: np.matmul(A, B[:, lo:hi], out=out[:, lo:hi]))
    return out


def lstm_last_state(S, lengths, W, U, b):
    """(n_seq, l) final hidden states of an LSTM run over each sequence.

    S (N, k) packs n_seq sequences one after another, lengths[j] >= 1
    rows each; a single sentence is a batch of one.  W (4l, k), U (4l, l)
    and b (4l,) hold the four gates as row blocks of l rows each, in the
    order input, forget, output, candidate: rows 0..l-1 of W are W_i,
    rows l..2l-1 are W_f, and so on.  The gates at step t of a sequence
    are

        i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)
        f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)
        o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)
        u_t = tanh(W_u x_t + U_u h_{t-1} + b_u)
        c_t = f_t * c_{t-1} + i_t * u_t
        h_t = o_t * tanh(c_t)

    with h_0 = c_0 = 0.  Row j of the result is h_{n_j} of sequence j.

    The batch runs as Appleyard et al. 2016 (arXiv:1604.01946) describe.
    The input projection of every row is one GEMM.  The sequences run
    longest-first, so step t is one (k_t, l) @ (l, 4l) GEMM over the k_t
    sequences with n_j > t.  Rows are packed time-major: step t owns
    packed rows off[t] .. off[t] + k_t - 1, in longest-first order.  The
    backward pass walks the steps in reverse the same way, then forms
    dW, dU and db as one GEMM each.  Recording mode appends one tape
    record.

    With few sequences running, one GEMM reads U (20.5 MB at l = 800)
    more than once per step: at k_t = 2 it took about 2.2x one pass.  So
    a forward step t >= 1 with 2 <= k_t <= 7, when U is larger than one
    block, multiplies U h_{t-1} as row blocks of about 1 MiB of U, each
    still in L2 while BLAS works on it (Diamos et al. 2016, *Persistent
    RNNs*, make the same point for reloading U at small batch).  The
    window comes from a sweep at l = 400-1600 on OpenBLAS 0.3.31 with one
    thread.  At l = 800, k = 2 ran at 2.2x and k = 3-7 at 1.5-2x the one
    GEMM; k = 1, a GEMV that already streams U once, ran at 0.9x, and
    k = 8-15 at 0.6-0.9x.  The blocked product differs from the one
    GEMM only in summation order: by at most 5.1e-15 absolute for a
    Glorot-scale U at l = 800.

    The whole blocks are one stacked matmul over a (blocks, rows, l)
    view of U, which BLAS runs block by block, then the short last
    block: one call per run of blocks, which releases the interpreter
    lock.

    The backward step t >= 1 forms U.T dz as one GEMM, (k_t, 4l) @
    (4l, l); step 0 passes no gradient back, since h_0 is the constant
    zero.

    Each pass, forward and backward, of at least ``_SPLIT_MIN`` (2^22)
    multiply-adds of GEMM work cuts its large products in two, whatever
    the BLAS thread setting.  The train step and ``predict`` run OpenBLAS
    at one thread (``threads.one_blas_thread``): two OpenBLAS threads
    sum some products in another order (a trained checkpoint's bytes
    differed, cut or not), and would contend with the helper.  Each
    blocked forward step is cut at its middle block boundary, and every
    other product of at least ``_SPLIT_MIN`` multiply-adds but a k = 1
    GEMV where ``_cut`` says: the input projection, the forward steps
    over k >= 8, the backward steps over k >= 2 and the dS, dW and dU
    products.  The two halves of each cut are one ``run`` of the pass's
    ``threads.Crew``: the caller and a helper thread on another CPU each
    take one, and on one CPU the caller takes both, through the same
    calls.  A cut
    product may differ from the uncut one in its last bits (at l = 300 a
    column cut of a k >= 12 step did), so the cuts depend on the shapes
    alone, and the results are bit-identical on any number of CPUs.  A
    helper takes about 0.1 ms to start and join.  At l = 800 on 2 vCPUs
    with one OpenBLAS thread, a blocked step over k = 2 took 0.44 ms
    instead of 0.76 ms, k = 4 0.43 instead of 0.79-0.81 ms and k = 7 0.48
    instead of 0.93-0.96 ms; a random batch of 60 sentences (1,044
    packed rows, k = 800) took 148-194 ms instead of 207-249 ms forward,
    and 426-518 ms instead of 609-693 ms forward and backward (medians of
    7, four runs each).

    The tape record keeps only what backward reads: per step the gate
    activations (4l, k_t), the cells and the states (l, k_t).  Backward
    recomputes tanh of a step's cells instead of keeping it, and gathers
    the packed inputs from S again for dW.  It allocates dZ once, as
    (4l, N), and copies each step's contiguous dz into its columns (a
    step's GEMM on a strided column slice of dZ ran slower).  It drops a
    step's activations and cells once that step has run, and the states
    once they are packed as dU's operand.  At the paper shape (batch 30,
    about 1,000 packed rows, l = 800) this took the tracemalloc peak of a
    train step from 125.6-135.0 to 99.5-108.9 MiB.
    """
    Sv = _value(S)
    if Sv.ndim != 2:
        raise ShapeError(f"lstm_last_state: need a packed (N, k) matrix, got shape {Sv.shape}")
    n_list = _segments(lengths, Sv.shape[0], "lstm_last_state")
    k_in = Sv.shape[1]
    Wv, Uv, bv = _value(W), _value(U), _value(b)
    l = Uv.shape[1] if Uv.ndim == 2 else 0
    if l < 1 or Wv.shape != (4 * l, k_in) or Uv.shape != (4 * l, l) or bv.shape != (4 * l,):
        raise ShapeError(
            f"lstm_last_state: W {Wv.shape}, U {Uv.shape}, b {bv.shape} are not "
            f"(4l, {k_in}), (4l, l), (4l,) for one l >= 1")

    # longest first; step t runs the first ks[t] of them (lists: cheap at small n_seq)
    order = sorted(range(len(n_list)), key=n_list.__getitem__, reverse=True)   # stable
    ks = [0] * n_list[order[0]]
    for n in n_list:
        ks[n - 1] += 1
    for t in range(len(ks) - 2, -1, -1):
        ks[t] += ks[t + 1]
    off = [0]
    for k in ks:
        off.append(off[-1] + k)
    ns = np.array(n_list)
    order = np.array(order)
    t_of, p_of = np.nonzero(np.arange(len(ks))[:, None] < ns[order])  # each packed row's
    perm = (np.cumsum(ns) - ns)[order][p_of] + t_of                   # step, slot, row in S

    N = off[-1]
    work = 4 * l * (N * k_in + (N - ks[0]) * l)     # multiply-adds of the forward GEMMs
    # what each pass cuts its products with: nothing under _SPLIT_MIN multiply-adds
    helper = threads.Crew(1, "pairsim-lstm") if work >= _SPLIT_MIN else nullcontext()

    # A step's GEMM yields (k, 4l) rows, the layout BLAS fills fastest;
    # one transposed copy makes it gate-major, so that the elementwise
    # work runs on contiguous (l, k) gate blocks, which matters at small l.
    # The blocked product (see above) is gate-major already.
    rows = max(1, _STREAM_BLOCK_BYTES // (8 * l))
    Z, C, H = [], [], []            # gate activations, cells, states
    out = np.empty((ns.size, l))
    with helper as crew:
        # (N, 4l) input projections, rows packed time-major
        X = _split_matmul(Sv[perm], Wv.T, crew, np.empty((N, 4 * l)))
        X += bv
        for t, k in enumerate(ks):
            if t and 2 <= k <= _STREAM_MAX_K and rows < 4 * l:
                h, z = H[-1][:, :k], np.empty((4 * l, k))
                _halves(crew, (-(-4 * l // rows) + 1) // 2 * rows,
                        lambda lo, hi: _row_blocks_into(Uv[lo:hi], h, rows, z[lo:hi]))
                z += X[off[t]:off[t + 1]].T
            else:
                zr = X[off[t]:off[t + 1]]
                if t:
                    zr = _split_matmul(H[-1][:, :k].T, Uv.T, crew, np.empty((k, 4 * l))) + zr
                z = np.ascontiguousarray(zr.T)
            expit(z[:3 * l], out=z[:3 * l])
            np.tanh(z[3 * l:], out=z[3 * l:])
            i, f, o, u = z[:l], z[l:2 * l], z[2 * l:3 * l], z[3 * l:]
            c = f * C[-1][:, :k] + i * u if t else i * u
            Z.append(z)
            C.append(c)
            H.append(o * np.tanh(c))
            done = ks[t + 1] if t + 1 < len(ks) else 0     # slots done..k-1 end at step t
            if done < k:
                out[order[done:k]] = H[-1][:, done:k].T

    def backward(G):
        G = G[order].T                                  # (l, n_seq), longest first
        dh = dc = np.zeros((l, 0))
        dZ = np.empty((4 * l, N))                       # (4l, N), packed
        with helper as crew:
            for t in range(len(ks) - 1, -1, -1):
                k = ks[t]
                if dh.shape[1] < k:     # the sequences whose last step is t join
                    dh = np.hstack([dh, G[:, dh.shape[1]:k]])
                    dc = np.hstack([dc, np.zeros((l, k - dc.shape[1]))])
                z = Z[t]
                i, f, o, u = z[:l], z[l:2 * l], z[2 * l:3 * l], z[3 * l:]
                tc = np.tanh(C[t])
                do = dh * tc
                dc = dc + dh * o * (1.0 - tc * tc)
                dz = np.empty((4 * l, k))   # contiguous for the GEMM; copied into dZ
                dz[:l] = (dc * u) * i * (1.0 - i)
                dz[l:2 * l] = (dc * C[t - 1][:, :k]) * f * (1.0 - f) if t else 0.0
                dz[2 * l:3 * l] = do * o * (1.0 - o)
                dz[3 * l:] = (dc * i) * (1.0 - u * u)
                dZ[:, off[t]:off[t + 1]] = dz
                Z[t] = C[t] = None          # step t read them last
                if t == 0:
                    break
                dh = np.ascontiguousarray(      # rows GEMM, as forward
                    _split_matmul(dz.T, Uv, crew, np.empty((k, l))).T)
                dc = dc * f
            if type(S) is Node:
                _grad(S)[perm] += _split_matmul(dZ.T, Wv, crew, np.empty((N, k_in)))
            if type(W) is Node:
                _acc(W, _split_matmul(dZ, Sv[perm], crew, np.empty((4 * l, k_in))))
            if type(U) is Node:
                # h_t of the sequences running at step t + 1, packed like dZ[:, ks[0]:]
                Hprev = np.hstack([np.zeros((l, 0)),
                                   *(H[t][:, :k] for t, k in enumerate(ks[1:]))])
                H.clear()
                _acc(U, _split_matmul(dZ[:, ks[0]:], Hprev.T, crew, np.empty((4 * l, l))))
        if type(b) is Node:
            _acc(b, dZ.sum(axis=1))

    return _finish(out, (S, W, U, b), backward)


# ---------------------------------------------------------------------------
# the loss on logits


def kl_from_logits(p, logits):
    """KL(p || softmax(logits)) over the last axis, with 0*ln(0) = 0: a
    scalar for one (K,) row, a (B,) vector for (B, K) rows.  Against a
    one-hot p it is the cross entropy -log softmax(logits)[class]."""
    pv = as_f64(p)
    zv = _value(logits)
    if pv.shape != zv.shape:
        raise ShapeError(f"kl_from_logits: shapes {pv.shape} and {zv.shape} differ")
    z = zv - zv.max(axis=-1, keepdims=True)
    logq = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    pos = pv > 0.0
    y = np.where(pos, pv * (np.log(np.where(pos, pv, 1.0)) - logq), 0.0).sum(axis=-1)

    def backward(g):
        _acc(logits, g[..., None] * (np.exp(logq) - pv))

    return _finish(y, (logits,), backward)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckGroup:
    name: str
    max_rel_err: float
    worst_index: int
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    groups: list[GradCheckGroup]
    h: float

    @property
    def max_rel_err(self) -> float:
        return max((g.max_rel_err for g in self.groups), default=0.0)

    def failures(self, threshold: float) -> list[GradCheckGroup]:
        return [g for g in self.groups if g.max_rel_err >= threshold]

    def passed(self, threshold: float) -> bool:
        return not self.failures(threshold)


def grad_check(f, params: Mapping[str, np.ndarray], h: float = 1e-5,
               rel_floor: float = 1e-8) -> GradCheckReport:
    """Compare analytic gradients of f against central differences.

    ``f`` maps a name->array mapping to a scalar loss; it must be
    deterministic (dropout off) and is evaluated many times with single
    entries of ``params`` perturbed in place by +-h.  The analytic side
    runs once under a GradTape with the same mapping wrapped in leaf
    nodes.  Relative error per entry is
    |ga - gn| / max(|ga|, |gn|, rel_floor).

    ``rel_floor`` damps the error where the true gradient is near zero;
    it must sit above the probe's own rounding noise (a few ULP of the
    loss's internal scale divided by 2h) for the report to be
    meaningful there.
    """
    with GradTape() as tape:
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        loss = f(leaves)
        if not isinstance(loss, Node):
            raise TypeError("grad_check: f must engage the tape and return a scalar Node")
        tape.backward(loss)
    analytic = {k: (n.grad if n.grad is not None else np.zeros_like(n.value))
                for k, n in leaves.items()}

    groups = []
    for name, arr in params.items():
        ga = analytic[name].reshape(-1)
        worst = (0.0, 0, 0.0, 0.0)
        flat = arr.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(_value(f(params)))
            flat[i] = orig - h
            fm = float(_value(f(params)))
            flat[i] = orig
            gn = (fp - fm) / (2.0 * h)
            rel = abs(ga[i] - gn) / max(abs(ga[i]), abs(gn), rel_floor)
            if rel > worst[0]:
                worst = (rel, i, float(ga[i]), gn)
        groups.append(GradCheckGroup(name, *worst))
    return GradCheckReport(groups, h)

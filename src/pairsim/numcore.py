"""Dense float64 numeric core with reverse-mode gradients.

Matrices are C-order float64 numpy arrays (2-D, row-major); vectors are
1-D arrays; scalars are 0-D arrays.  Every primitive below works in two
modes:

* plain mode: inputs are numpy arrays (or untracked values), the result
  is a numpy array.  Used for inference and finite-difference probes.
* recording mode: a ``GradTape`` is active and at least one input is a
  ``Node``; the primitive caches what its backward pass needs, appends
  itself to the tape, and returns a ``Node``.

``GradTape.backward`` replays the recorded primitives in exact reverse
execution order, accumulating gradients into ``Node.grad``.  Any node
read by a recorded primitive ends up with a gradient array (possibly
all zeros).

``lstm_last_state`` is batch-major: it takes a list of matrices and
returns one output per matrix, each with its own tape record.  Those
records share one batched backward, run by the record the reverse
replay reaches first (see its docstring).  Its weights are three fused
arrays, W (4l, k), U (4l, l) and b (4l,), with the four gates as row
blocks in i/f/o/u order, so neither direction restacks or slices them.

This is deliberately not a general autodiff system: only the primitives
the sentence-pair model needs exist, and only scalar roots can be
differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.special import expit

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
        self._records: list[tuple[Node, tuple[Node, ...], Callable]] = []

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

    def record(self, out: Node, inputs: tuple[Node, ...], backward: Callable):
        self._records.append((out, inputs, backward))

    def backward(self, root: Node):
        """Accumulate d(root)/d(node) into every recorded node's .grad."""
        if not isinstance(root, Node):
            raise TypeError("backward root must be a Node")
        if root.value.shape != ():
            raise ShapeError(f"backward root must be scalar, got shape {root.value.shape}")
        for out, inputs, _ in self._records:
            out.grad = np.zeros_like(out.value)
            for n in inputs:
                if n.grad is None or n.grad.shape != n.value.shape:
                    n.grad = np.zeros_like(n.value)
        root.grad = np.ones_like(root.value)
        for out, _, backward in reversed(self._records):
            g = out.grad
            if g is not None:
                backward(g)


def _value(x) -> np.ndarray:
    if type(x) is Node:
        return x.value
    if type(x) is np.ndarray and x.dtype == _F64:
        return x
    return as_f64(x)


def _nodes(*xs) -> tuple[Node, ...]:
    return tuple(x for x in xs if isinstance(x, Node))


def _finish(value, inputs, backward):
    """Return raw value, or record a Node if a tape is listening."""
    tape = _ACTIVE
    nodes = _nodes(*inputs)
    if tape is None or not nodes:
        return value
    out = Node(value)
    tape.record(out, nodes, backward(out))
    return out


# ---------------------------------------------------------------------------
# affine maps


def linear(x, W, b=None):
    """W @ x (+ b) for W (m, n), x (n,), optional b (m,)."""
    xv, Wv = _value(x), _value(W)
    if Wv.ndim != 2 or xv.ndim != 1 or Wv.shape[1] != xv.shape[0]:
        raise ShapeError(f"linear: W {Wv.shape} incompatible with x {xv.shape}")
    y = Wv @ xv
    if b is not None:
        bv = _value(b)
        if bv.shape != (Wv.shape[0],):
            raise ShapeError(f"linear: b {bv.shape} incompatible with W {Wv.shape}")
        y = y + bv

    def backward(out):
        def run(g):
            if isinstance(x, Node):
                x.grad += Wv.T @ g
            if isinstance(W, Node):
                W.grad += np.outer(g, xv)
            if b is not None and isinstance(b, Node):
                b.grad += g
        return run

    return _finish(y, (x, W, b), backward)


def affine_rows(M, W, b=None):
    """Row-wise affine map: M @ W.T (+ b) for M (n, k), W (m, k)."""
    Mv, Wv = _value(M), _value(W)
    if Mv.ndim != 2 or Wv.ndim != 2 or Mv.shape[1] != Wv.shape[1]:
        raise ShapeError(f"affine_rows: M {Mv.shape} incompatible with W {Wv.shape}")
    Y = Mv @ Wv.T
    if b is not None:
        bv = _value(b)
        if bv.shape != (Wv.shape[0],):
            raise ShapeError(f"affine_rows: b {bv.shape} incompatible with W {Wv.shape}")
        Y = Y + bv

    def backward(out):
        def run(G):
            if isinstance(M, Node):
                M.grad += G @ Wv
            if isinstance(W, Node):
                W.grad += G.T @ Mv
            if b is not None and isinstance(b, Node):
                b.grad += G.sum(axis=0)
        return run

    return _finish(Y, (M, W, b), backward)


# ---------------------------------------------------------------------------
# elementwise


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x); saturates to {0, 1} for huge |x|."""
    y = expit(_value(x))

    def backward(out):
        def run(g):
            x.grad += g * (y * (1.0 - y))
        return run

    return _finish(y, (x,), backward)


def add(a, b):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
    y = av + bv

    def backward(out):
        def run(g):
            if isinstance(a, Node):
                a.grad += g
            if isinstance(b, Node):
                b.grad += g
        return run

    return _finish(y, (a, b), backward)


def scale(x, c: float):
    c = float(c)
    y = _value(x) * c

    def backward(out):
        def run(g):
            x.grad += g * c
        return run

    return _finish(y, (x,), backward)


def elementwise_mul(a, b):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"elementwise_mul: shapes {av.shape} and {bv.shape} differ")
    y = av * bv

    def backward(out):
        def run(g):
            if isinstance(a, Node):
                a.grad += g * bv
            if isinstance(b, Node):
                b.grad += g * av
        return run

    return _finish(y, (a, b), backward)


def abs_diff(a, b):
    """|a - b| with subgradient 0 at exact ties."""
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"abs_diff: shapes {av.shape} and {bv.shape} differ")
    d = av - bv
    y = np.abs(d)

    def backward(out):
        s = np.sign(d)

        def run(g):
            if isinstance(a, Node):
                a.grad += g * s
            if isinstance(b, Node):
                b.grad -= g * s
        return run

    return _finish(y, (a, b), backward)


def vsum(x):
    """Sum of all entries, as a scalar."""
    xv = _value(x)
    y = as_f64(xv.sum())

    def backward(out):
        def run(g):
            x.grad += np.broadcast_to(g, xv.shape)
        return run

    return _finish(y, (x,), backward)


# ---------------------------------------------------------------------------
# structure


def concat(*parts):
    """Concatenate vectors (scalars are treated as length-1) in order."""
    vals = [np.atleast_1d(_value(p)) for p in parts]
    y = np.concatenate(vals)

    def backward(out):
        spans = []
        ofs = 0
        for p, v in zip(parts, vals):
            spans.append((p, ofs, ofs + v.shape[0]))
            ofs += v.shape[0]

        def run(g):
            for p, lo, hi in spans:
                if isinstance(p, Node):
                    p.grad += g[lo:hi].reshape(p.value.shape)
        return run

    return _finish(y, parts, backward)


def flatten(M):
    """Row-major flattening of a matrix into a vector."""
    Mv = _value(M)
    y = Mv.reshape(-1).copy()

    def backward(out):
        def run(g):
            M.grad += g.reshape(Mv.shape)
        return run

    return _finish(y, (M,), backward)


def pad_rows(M, n_rows: int):
    """First min(n, n_rows) rows of M, zero-padded up to n_rows rows."""
    Mv = _value(M)
    if Mv.ndim != 2 or Mv.shape[0] < 1:
        raise ShapeError(f"pad_rows: need a nonempty matrix, got shape {Mv.shape}")
    m = min(Mv.shape[0], n_rows)
    Y = np.zeros((n_rows, Mv.shape[1]))
    Y[:m] = Mv[:m]

    def backward(out):
        def run(G):
            M.grad[:m] += G[:m]
        return run

    return _finish(Y, (M,), backward)


def prepend_to_rows(v, M):
    """Rows [v ++ M[i]]: the same vector prefixed to every row of M."""
    vv, Mv = _value(v), _value(M)
    n, k = Mv.shape
    d = vv.shape[0]
    Y = np.empty((n, d + k))
    Y[:, :d] = vv
    Y[:, d:] = Mv

    def backward(out):
        def run(G):
            if isinstance(v, Node):
                v.grad += G[:, :d].sum(axis=0)
            if isinstance(M, Node):
                M.grad += G[:, d:]
        return run

    return _finish(Y, (v, M), backward)


# ---------------------------------------------------------------------------
# similarity and pooling


def cosine(a, b):
    """Cosine similarity; 0 (with zero gradient) if either norm < 1e-12."""
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"cosine: shapes {av.shape} and {bv.shape} differ")
    na = float(np.sqrt(av @ av))
    nb = float(np.sqrt(bv @ bv))
    if na < _NORM_GUARD or nb < _NORM_GUARD:
        def backward(out):
            def run(g):
                pass
            return run
        return _finish(as_f64(0.0), (a, b), backward)
    c = float(av @ bv) / (na * nb)
    y = as_f64(c)

    def backward(out):
        def run(g):
            if isinstance(a, Node):
                a.grad += g * (bv / (na * nb) - av * (c / (na * na)))
            if isinstance(b, Node):
                b.grad += g * (av / (na * nb) - bv * (c / (nb * nb)))
        return run

    return _finish(y, (a, b), backward)


def cosine_rows(A, B):
    """All-pairs row cosines: C[i, j] = cosine(A[i], B[j]), zero-norm guarded."""
    Av, Bv = _value(A), _value(B)
    if Av.ndim != 2 or Bv.ndim != 2 or Av.shape[1] != Bv.shape[1]:
        raise ShapeError(f"cosine_rows: shapes {Av.shape} and {Bv.shape} differ in width")
    na = np.sqrt((Av * Av).sum(axis=1))
    nb = np.sqrt((Bv * Bv).sum(axis=1))
    ok_a = na >= _NORM_GUARD
    ok_b = nb >= _NORM_GUARD
    sa = np.where(ok_a, na, 1.0)
    sb = np.where(ok_b, nb, 1.0)
    C = (Av @ Bv.T) / np.outer(sa, sb)
    C *= np.outer(ok_a, ok_b)

    def backward(out):
        def run(G):
            Gm = G * np.outer(ok_a, ok_b)
            if isinstance(A, Node):
                A.grad += (Gm / sb) @ Bv / sa[:, None] \
                    - Av * ((Gm * C).sum(axis=1) / (sa * sa))[:, None]
            if isinstance(B, Node):
                B.grad += (Gm.T / sa) @ Av / sb[:, None] \
                    - Bv * ((Gm * C).sum(axis=0) / (sb * sb))[:, None]
        return run

    return _finish(C, (A, B), backward)


def max_over_time(M):
    """Per-column maximum over rows; gradient goes to the first max row."""
    Mv = _value(M)
    if Mv.ndim != 2 or Mv.shape[0] < 1:
        raise ShapeError(f"max_over_time: need a nonempty matrix, got shape {Mv.shape}")
    winners = Mv.argmax(axis=0)
    y = Mv[winners, np.arange(Mv.shape[1])]

    def backward(out):
        cols = np.arange(Mv.shape[1])

        def run(g):
            np.add.at(M.grad, (winners, cols), g)
        return run

    return _finish(y, (M,), backward)


# ---------------------------------------------------------------------------
# regularization


def dropout(x, p: float, training: bool, rng: np.random.Generator | None):
    """Inverted dropout: scale survivors by 1/(1-p) in training, identity otherwise."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    xv = _value(x)
    mask = (rng.random(xv.shape) >= p) / (1.0 - p)
    y = xv * mask

    def backward(out):
        def run(g):
            x.grad += g * mask
        return run

    return _finish(y, (x,), backward)


# ---------------------------------------------------------------------------
# recurrent unit

def lstm_last_state(Ss, W, U, b):
    """Final hidden states of an LSTM run over each matrix of a batch.

    Ss is a nonempty list of (n_j, k) matrices, n_j >= 1, whose lengths
    may differ; a single sentence is a batch of one.  W (4l, k), U (4l, l)
    and b (4l,) hold the four gates as row blocks of l rows each, in the
    order input, forget, output, candidate: rows 0..l-1 of W are W_i,
    rows l..2l-1 are W_f, and so on.  The gates at step t of each matrix
    are

        i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)
        f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)
        o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)
        u_t = tanh(W_u x_t + U_u h_{t-1} + b_u)
        c_t = f_t * c_{t-1} + i_t * u_t
        h_t = o_t * tanh(c_t)

    with h_0 = c_0 = 0.  Returns a list holding h_{n_j} of every matrix,
    in input order.

    The batch runs as Appleyard et al. 2016 (arXiv:1604.01946) describe.
    The input projection of every row of every matrix is one GEMM.  The
    matrices run longest-first, so step t is one (k_t, l) @ (l, 4l) GEMM
    over the k_t matrices with n_j > t.  Rows are packed time-major:
    step t owns rows off[t] .. off[t] + k_t - 1, in longest-first order.
    The backward pass walks the steps in reverse the same way, then forms
    dW, dU and db as one GEMM each.

    Recording mode appends one tape record per output.  The records
    share one batched backward, which only the last of them runs; the
    others do nothing.  The reverse replay reaches that record first,
    after the record of every consumer of every output, since consumers
    are recorded after this call; so each output's gradient is complete
    when the shared backward reads it.
    """
    Svs = [_value(S) for S in Ss]
    if not Svs:
        raise ShapeError("lstm_last_state: need at least one matrix")
    k_in = Svs[0].shape[1] if Svs[0].ndim == 2 else None
    for Sv in Svs:
        if Sv.ndim != 2 or Sv.shape[0] < 1 or Sv.shape[1] != k_in:
            raise ShapeError(f"lstm_last_state: need nonempty (n, {k_in}) matrices, "
                             f"got shape {Sv.shape}")
    Wv, Uv, bv = _value(W), _value(U), _value(b)
    l = Uv.shape[1] if Uv.ndim == 2 else 0
    if l < 1 or Wv.shape != (4 * l, k_in) or Uv.shape != (4 * l, l) or bv.shape != (4 * l,):
        raise ShapeError(
            f"lstm_last_state: W {Wv.shape}, U {Uv.shape}, b {bv.shape} are not "
            f"(4l, {k_in}), (4l, l), (4l,) for one l >= 1")

    # longest first; step t runs the first ks[t] of them
    B = len(Svs)
    order = sorted(range(B), key=lambda j: -Svs[j].shape[0])
    ns = [Svs[j].shape[0] for j in order]
    ks = [sum(n > t for n in ns) for t in range(ns[0])]
    off = [0]
    for k in ks:
        off.append(off[-1] + k)
    rows = [np.array(off[:n]) + p for p, n in enumerate(ns)]   # packed rows of each

    P = np.empty((off[-1], k_in))   # the inputs, packed time-major
    for p, j in enumerate(order):
        P[rows[p]] = Svs[j]
    X = P @ Wv.T + bv               # (N, 4l)

    # A step's GEMM yields (k, 4l) rows, the layout BLAS fills fastest;
    # one transposed copy makes it gate-major, so that the elementwise
    # work runs on contiguous (l, k) gate blocks, which matters at small l.
    Z, C, Tc, H = [], [], [], []    # gate activations, cells, tanh(cells), states
    for t, k in enumerate(ks):
        zr = X[off[t]:off[t + 1]]
        if t:
            zr = zr + H[-1][:, :k].T @ Uv.T
        z = np.ascontiguousarray(zr.T)
        expit(z[:3 * l], out=z[:3 * l])
        np.tanh(z[3 * l:], out=z[3 * l:])
        i, f, o, u = z[:l], z[l:2 * l], z[2 * l:3 * l], z[3 * l:]
        c = f * C[-1][:, :k] + i * u if t else i * u
        tc = np.tanh(c)
        Z.append(z)
        C.append(c)
        Tc.append(tc)
        H.append(o * tc)

    hs = [None] * B
    for p, j in enumerate(order):
        hs[j] = H[ns[p] - 1][:, p].copy()

    tape = _ACTIVE
    params = _nodes(W, U, b)
    if tape is None or not (params or _nodes(*Ss)):
        return hs
    outs = [Node(h) for h in hs]

    def run(_g):
        G = np.array([outs[j].grad for j in order]).T     # (l, B)
        dh = dc = np.zeros((l, 0))
        dZ = [None] * len(ks)
        for t in range(len(ks) - 1, -1, -1):
            k = ks[t]
            if dh.shape[1] < k:     # the matrices whose last step is t join
                dh = np.hstack([dh, G[:, dh.shape[1]:k]])
                dc = np.hstack([dc, np.zeros((l, k - dc.shape[1]))])
            z = Z[t]
            i, f, o, u = z[:l], z[l:2 * l], z[2 * l:3 * l], z[3 * l:]
            tc = Tc[t]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            dz = dZ[t] = np.empty((4 * l, k))
            dz[:l] = (dc * u) * i * (1.0 - i)
            dz[l:2 * l] = (dc * C[t - 1][:, :k]) * f * (1.0 - f) if t else 0.0
            dz[2 * l:3 * l] = do * o * (1.0 - o)
            dz[3 * l:] = (dc * i) * (1.0 - u * u)
            dh = np.ascontiguousarray((dz.T @ Uv).T)       # rows GEMM, as above
            dc = dc * f
        dZ = np.hstack(dZ)                                  # (4l, N), packed
        if any(type(S) is Node for S in Ss):
            dP = dZ.T @ Wv
            for p, j in enumerate(order):
                if type(Ss[j]) is Node:
                    Ss[j].grad += dP[rows[p]]
        if type(W) is Node:
            W.grad += dZ @ P
        if type(U) is Node:
            # h_t of the matrices running at step t + 1, packed like dZ[:, ks[0]:]
            Hprev = np.hstack([np.zeros((l, 0)), *(H[t][:, :k] for t, k in enumerate(ks[1:]))])
            U.grad += dZ[:, ks[0]:] @ Hprev.T
        if type(b) is Node:
            b.grad += dZ.sum(axis=1)

    def skip(_g):
        pass

    for j, out in enumerate(outs):
        inputs = (Ss[j], *params) if type(Ss[j]) is Node else params
        tape.record(out, inputs, run if j == B - 1 else skip)
    return outs


# ---------------------------------------------------------------------------
# losses on logits


def kl_from_logits(p, logits):
    """KL(p || softmax(logits)) with the 0*ln(0) = 0 convention."""
    pv = as_f64(p)
    zv = _value(logits)
    if pv.shape != zv.shape:
        raise ShapeError(f"kl_from_logits: shapes {pv.shape} and {zv.shape} differ")
    z = zv - zv.max()
    logq = z - np.log(np.exp(z).sum())
    pos = pv > 0.0
    y = as_f64(np.sum(pv[pos] * (np.log(pv[pos]) - logq[pos])))

    def backward(out):
        q = np.exp(logq)

        def run(g):
            logits.grad += g * (q - pv)
        return run

    return _finish(y, (logits,), backward)


def ce_from_logits(gold: int, logits):
    """Cross entropy -log softmax(logits)[gold]."""
    zv = _value(logits)
    if not 0 <= gold < zv.shape[0]:
        raise ShapeError(f"ce_from_logits: class {gold} out of range for {zv.shape[0]} logits")
    z = zv - zv.max()
    logq = z - np.log(np.exp(z).sum())
    y = as_f64(-logq[gold])

    def backward(out):
        q = np.exp(logq)

        def run(g):
            d = q.copy()
            d[gold] -= 1.0
            logits.grad += g * d
        return run

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

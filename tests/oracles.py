"""Independent oracles used by the test suite.

Everything here is written with plain Python floats and explicit loops,
or with plain numpy on one array at a time, on purpose: these functions
must not share any code path with the library they are checking.
"""

import math
import string

import numpy as np


def scalar_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scalar_matvec(W, x):
    return [sum(W[i][j] * x[j] for j in range(len(x))) for i in range(len(W))]


def scalar_lstm_last(S, W, U, b):
    """Final hidden state of the gate recurrence, one scalar at a time.

    S: list of input rows; W, U, b: dicts keyed "i", "f", "o", "u" holding
    list-of-list matrices / list biases.  h_0 = c_0 = 0.
    """
    l = len(b["i"])
    h = [0.0] * l
    c = [0.0] * l
    for x in S:
        z = {}
        for g in ("i", "f", "o", "u"):
            wx = scalar_matvec(W[g], x)
            uh = scalar_matvec(U[g], h)
            z[g] = [wx[k] + uh[k] + b[g][k] for k in range(l)]
        i = [scalar_sigmoid(v) for v in z["i"]]
        f = [scalar_sigmoid(v) for v in z["f"]]
        o = [scalar_sigmoid(v) for v in z["o"]]
        u = [math.tanh(v) for v in z["u"]]
        c = [f[k] * c[k] + i[k] * u[k] for k in range(l)]
        h = [o[k] * math.tanh(c[k]) for k in range(l)]
    return h


def gate_dicts(W, U, b):
    """Fused (4l, .) LSTM arrays as scalar_lstm_last's per-gate dicts.

    Rows [j*l, (j+1)*l) of each array belong to gate j of i, f, o, u.
    """
    l = len(b) // 4
    return tuple({g: x[j * l:(j + 1) * l].tolist() for j, g in enumerate("ifou")}
                 for x in (W, U, b))


def scalar_adadelta_steps(grads, rho, eps):
    """Sequence of updates for one scalar parameter, per the accumulator rule."""
    eg2 = 0.0
    edx2 = 0.0
    deltas = []
    for g in grads:
        eg2 = rho * eg2 + (1.0 - rho) * g * g
        dx = -(math.sqrt(edx2 + eps) / math.sqrt(eg2 + eps)) * g
        edx2 = rho * edx2 + (1.0 - rho) * dx * dx
        deltas.append(dx)
    return deltas


def whole_array_adadelta_step(params, Eg2, Edx2, grads, rho, eps):
    """One in-place AdaDelta update of dicts of arrays, each array whole,
    with the library's ufuncs in the library's order: the reference its
    chunked sweep over flat buffers must match bit for bit."""
    for name, arr in params.items():
        g = grads[name]
        eg2, edx2 = Eg2[name], Edx2[name]
        a, b = np.empty_like(arr), np.empty_like(arr)
        eg2 *= rho
        np.multiply(1.0 - rho, g, out=a)
        a *= g
        eg2 += a
        np.add(edx2, eps, out=a)
        np.sqrt(a, out=a)
        np.negative(a, out=a)
        np.add(eg2, eps, out=b)
        np.sqrt(b, out=b)
        a /= b
        a *= g
        edx2 *= rho
        np.multiply(1.0 - rho, a, out=b)
        b *= a
        edx2 += b
        arr += a


def scalar_cosine(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def scalar_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def reference_tokenize(text):
    """The tokenizer as first written: edge punctuation peeled off one
    character at a time into lists."""
    punct = set(string.punctuation)
    tokens = []
    for chunk in text.lower().split():
        lead = []
        while chunk and chunk[0] in punct:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in punct:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def reference_cross_entropy(gold, Z):
    """-log softmax(Z)[gold] per row of (B, C) logits Z, and its gradient
    in Z under an upstream gradient of 1 per row: the separate softmax
    cross entropy classification trained on before it trained on the KL
    loss against one-hot targets, operation for operation."""
    z = Z - Z.max(axis=-1, keepdims=True)
    logq = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    onehot = np.arange(Z.shape[-1]) == gold[:, None]
    loss = -np.take_along_axis(logq, gold[:, None], axis=-1)[:, 0]
    return loss, np.ones(len(gold))[:, None] * (np.exp(logq) - onehot)

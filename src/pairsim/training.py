"""AdaDelta optimization, the mini-batch training loop, and checkpoints.

The update rule keeps two decayed accumulators per parameter entry,
mean squared gradient and mean squared update:

    Eg2  <- rho * Eg2  + (1 - rho) * g^2
    dx    = - sqrt(Edx2 + eps) / sqrt(Eg2 + eps) * g
    Edx2 <- rho * Edx2 + (1 - rho) * dx^2
    theta <- theta + dx

There is no learning rate.  Training is deterministic given (seed,
data, config): batch order comes from the "shuffle" stream, dropout
masks from the "dropout" stream, and initialization from "init".
Embedding tables are never updated.

Parameters, gradients and both accumulators each live in one flat
float64 buffer of the same layout: every parameter array in the
canonical order of ``model.parameter_shapes``, one after another
(``ModelParams.flat``, the two rows of ``AdaDeltaState.flat`` and
``AdaDeltaState.grad_flat``).  The tape accumulates each leaf's gradient
straight into its view of the gradient buffer, and an update is one
sweep over the four buffers in chunks of ``CHUNK`` elements, small
enough that a chunk of each stays in L2 across the rule's fifteen ufunc
passes.  Every element gets the same operations in the same order as
when each array was updated whole, so the results are bit-identical to
that.  The sweep is one contiguous range of whole chunks per CPU this
process may run on, swept by a ``threads.Crew``: the caller and one
helper thread per other CPU; a model of fewer than ``THREAD_MIN`` parameters (the desk shape's
49 K) is swept by the caller alone, as is any model on one CPU.  At the
paper shape's 6.17 M parameters a sweep takes 52-59 ms on one CPU and
30-34 ms on two (quartiles of 30 sweeps in 10 processes after two
warm-up sweeps each, one BLAS thread, 2 vCPUs).

A checkpoint is a ``store`` container, the file format of lexicon
caches too: magic ``PSIM``, format version 3, a JSON header (model
spec, parameter shapes, config echo, epoch, embedding hash), then the
section ``parameters`` (every parameter array as little-endian float64
in the canonical order of ``model.parameter_shapes``) and optionally
``accumulators`` (both accumulators in the same order).  Format 3 is
format 2's bytes plus the section table, which gives each section's
CRC-32: a load checks the sections it reads, and raises
CheckpointError naming a damaged one.  Format 2 files load unchecked.
The loader rejects any other version, and any header whose parameter
names, order or shapes differ from those of its spec, or whose file
size or sections differ from theirs.

A load maps the file copy-on-write: the parameters and accumulators are
views of the mapping, and a page is copied only when training first
writes it.  A payload that is not aligned (format 2 files written
before the header was padded) or not native-endian is copied instead.
A program that truncates or rewrites a checkpoint in place while a
process has it loaded can change that process's parameters or end it
with SIGBUS; ``save_checkpoint`` replaces the file instead.

``train`` leaves the caller's parameters, and the state it returns, at
the best epoch, kept with a validation set in one (3, n) buffer of
parameters and both accumulators, overwritten at each improvement;
without one nothing is copied.  At H = l = 400 over a 600-d lexicon
(rows of 12.3 MiB), 4 epochs peak at 7.6 rows traced (136 MB resident)
with a validation set and at 4.6 (99 MB) without, against 12.0 (175 MB)
for a new model and state kept at each improvement.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from . import model as md
from . import numcore as nc
from . import objectives as obj
from . import store, threads
from .config import RunConfig
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .evaldata import PairDataset
from .rng import stream

MAGIC = b"PSIM"
FORMAT_VERSION = 3


# elements per chunk of the update sweep: 192 KiB of each of the four
# buffers.  Over the 6.17 M parameters of the paper shape, one thread
# swept in 92 ms at 4K elements, 75 at 8K, 67-70 at 16K, 66-69 at 24K,
# 66-74 at 32K, 84 at 64K and 92 at 128K; two threads, each pinned to a
# CPU, in 130, 78, 46-50, 42, 41-42, 46 and 49 ms.  Each ufunc call
# hands the interpreter lock back, so small chunks starve the threads.
# (Medians of 12-22 interleaved sweeps, 2 vCPUs.)
CHUNK = 3 << 13

# a model of fewer parameters is swept inline.  On 2 vCPUs two threads
# took 0.8 ms against 0.3 inline at 49 K parameters (the desk shape),
# 5.0 against 4.1 ms at 512 K and 7.4 against 10.8 ms at 1 M.
THREAD_MIN = 1 << 20


@dataclass
class AdaDeltaState:
    """Decayed squared-gradient and squared-update accumulators, and the
    gradient buffer the tape fills.

    ``flat`` is (2, n): its rows are the Eg2 and Edx2 buffers, as a
    checkpoint stores them, and ``grad_flat`` the (n,) gradient buffer,
    each in the layout of ``ModelParams.flat``.  ``Eg2``, ``Edx2`` and
    ``grad`` map each parameter name to its view of its row.  The
    gradient row is all zero between steps.
    """

    rho: float
    epsilon: float
    flat: np.ndarray
    grad_flat: np.ndarray
    Eg2: dict[str, np.ndarray]
    Edx2: dict[str, np.ndarray]
    grad: dict[str, np.ndarray]

    @classmethod
    def over(cls, params: md.ModelParams, flat: np.ndarray, grad_flat: np.ndarray,
             rho: float, epsilon: float) -> "AdaDeltaState":
        """The state whose accumulator rows are ``flat`` and whose gradient
        row is ``grad_flat``."""
        shapes = [(name, arr.shape) for name, arr in params.w.items()]
        return cls(rho, epsilon, flat, grad_flat,
                   *(md.flat_views(shapes, row) for row in (*flat, grad_flat)))

    @classmethod
    def zeros(cls, params: md.ModelParams, rho: float = 0.95,
              epsilon: float = 1e-6) -> "AdaDeltaState":
        # np.zeros leaves the pages untouched until they are written
        buf = np.zeros((3, sum(arr.size for arr in params.w.values())))
        return cls.over(params, buf[:2], buf[2], rho, epsilon)


def adadelta_step(state: AdaDeltaState, params: md.ModelParams):
    """One in-place update of every parameter from the state's gradient
    row, which a tape (or the caller, through ``state.grad``) has filled.

    The parameters must be the views of ``params.flat`` (a model from
    ``build_model`` or ``load_checkpoint``); anything else raises
    ConfigError before any buffer changes.

    The four buffers are split into contiguous ranges of whole chunks,
    one per member of a ``threads.Crew``, the caller and one helper
    thread per other CPU this process may run on, which sweeps them.  A
    model of fewer than ``THREAD_MIN`` parameters, or a process on one
    CPU, is swept by the caller alone.  The rule is elementwise, so the
    result does not depend on the split.  A range that raises stops the
    sweep, and the failure is raised here once every helper has ended
    (``threads.Crew``).
    """
    if not md.is_flat(params):
        raise ConfigError("adadelta_step needs parameters that are views of "
                          "params.flat, as build_model and load_checkpoint make them")
    P, (E, D), G = params.flat, state.flat, state.grad_flat
    if E.size != P.size:
        raise ConfigError(f"optimizer state holds {E.size} entries, the model {P.size}")

    n = P.size
    chunks = -(-n // CHUNK)
    with threads.Crew(chunks - 1 if n >= THREAD_MIN else 0, "pairsim-adadelta") as crew:
        parts = len(crew.helpers) + 1
        bounds = [min(n, CHUNK * (chunks * j // parts)) for j in range(parts + 1)]
        crew.run([partial(_sweep, state.rho, state.epsilon, P[lo:hi], E[lo:hi], D[lo:hi],
                          G[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def _sweep(rho: float, eps: float, P, E, D, G):
    """The update rule over one range of the four buffers, CHUNK elements
    at a time.

    Two chunk-sized scratch arrays hold every intermediate; the
    operations and their order are exactly those of the update rule as
    written above, so the result is bit-identical to computing it with
    temporaries.  Instead of negating sqrt(Edx2 + eps) the step is
    subtracted, which is exact: (1 - rho) (-x) (-x) = (1 - rho) x x and
    theta + (-dx) = theta - dx in IEEE arithmetic.  Each gradient chunk
    is zeroed once it is used.
    """
    scratch_a, scratch_b = np.empty(CHUNK), np.empty(CHUNK)
    for lo in range(0, P.size, CHUNK):
        hi = min(lo + CHUNK, P.size)
        arr, Eg2, Edx2, g = P[lo:hi], E[lo:hi], D[lo:hi], G[lo:hi]
        a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
        Eg2 *= rho
        np.multiply(1.0 - rho, g, out=a)
        a *= g
        Eg2 += a                                  # Eg2 = rho Eg2 + (1 - rho) g g
        np.add(Edx2, eps, out=a)
        np.sqrt(a, out=a)
        np.add(Eg2, eps, out=b)
        np.sqrt(b, out=b)
        a /= b
        a *= g                                    # a = -dx = sqrt(Edx2 + eps) / sqrt(Eg2 + eps) g
        Edx2 *= rho
        np.multiply(1.0 - rho, a, out=b)
        b *= a
        Edx2 += b                                 # Edx2 = rho Edx2 + (1 - rho) dx dx
        arr -= a
        g.fill(0.0)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_metric: Optional[float]


@dataclass
class TrainResult:
    params: md.ModelParams          # the caller's parameters, at the best epoch
    state: AdaDeltaState            # the accumulators of the best epoch
    history: list[EpochRecord]
    best_epoch: int
    best_metric: Optional[float]


def train_step(params: md.ModelParams, state: AdaDeltaState, lex, batch,
               dropout_rng) -> float:
    """Forward, backward, and one AdaDelta update; returns the batch loss.

    Each tape leaf starts with its view of the state's zeroed gradient
    buffer as its gradient, so the backward pass accumulates there and
    the update reads it in place.  A step that raises leaves the
    parameters, the accumulators and the zeroed buffer as they were.
    The step runs OpenBLAS at one thread (``threads.one_blas_thread``).
    """
    with threads.one_blas_thread():
        try:
            with nc.GradTape() as tape:
                leaves = {}
                for name, arr in params.w.items():
                    leaves[name] = tape.leaf(arr)
                    leaves[name].grad = state.grad[name]
                loss = md.batch_loss(md.ModelParams(params.spec, leaves), lex, batch,
                                     training=True, rng=dropout_rng)
                loss_value = float(nc._value(loss))
                if np.isfinite(loss_value):
                    tape.backward(loss)
            if not np.isfinite(loss_value):
                raise NumericError(f"non-finite loss {loss_value}", batch_index=None)
            adadelta_step(state, params)
        except BaseException:
            state.grad_flat.fill(0.0)
            raise
    return loss_value


def check_valid(name, ds: PairDataset):
    """Refuse a validation or test set whose metric can never be defined:
    Pearson needs two distinct gold scores, accuracy one example.
    ``name``, a path or "validation set", starts the DataError's
    message."""
    n = len(ds.examples)
    if ds.task == "sts":
        distinct = len({ex.gold_score for ex in ds.examples})
        if distinct < 2:
            raise DataError(f"{name}: {n} usable examples with {distinct} "
                            f"distinct gold scores; pearson needs at least 2")
    elif n == 0:
        raise DataError(f"{name}: 0 usable examples; accuracy needs at least 1")


def train(params: md.ModelParams, lex, data: PairDataset, cfg: RunConfig,
          valid: Optional[PairDataset] = None, on_epoch=None) -> TrainResult:
    """Mini-batch loop with validation-based selection and early stopping.

    ``cfg`` is validated, then supplies batch_size, epochs, patience,
    rho, epsilon, seed and shuffle.  The best checkpoint is the epoch
    with the highest validation metric (Pearson for sts, accuracy
    otherwise; an epoch whose Pearson is undefined reports nan, which
    any defined metric beats); without a validation set the final epoch
    wins.  Training
    stops early after ``patience`` consecutive epochs without
    improvement.  ``on_epoch`` is called with each EpochRecord as it
    completes.  Before the first step, DataError refuses an empty
    training set, a validation set ``check_valid`` refuses, and an sts
    gold outside the spec's raw range in either set.  ``params`` is
    trained in place and returned; it and the state returned end at the
    best epoch.
    """
    cfg.validate()
    if not data.examples:
        raise DataError("training set is empty")
    named = [("training set", data)]
    if valid is not None:
        check_valid("validation set", valid)
        named.append(("validation set", valid))
    if params.spec.task == "sts":
        lo, hi = params.spec.score.raw_min, params.spec.score.raw_max
        for name, ds in named:
            for i, ex in enumerate(ds.examples):
                if not lo <= ex.gold_score <= hi:
                    raise DataError(f"{name} example {i}: gold score {ex.gold_score} "
                                    f"outside [{lo}, {hi}]")
    state = AdaDeltaState.zeros(params, cfg.rho, cfg.epsilon)
    dropout_rng = stream(cfg.seed, "dropout")
    shuffle_rng = stream(cfg.seed, "shuffle")

    history: list[EpochRecord] = []
    best = None  # (metric, epoch)
    # with a validation set, the best epoch's parameters, Eg2 and Edx2
    kept = None if valid is None else np.empty((3, state.flat.shape[1]))
    stale = 0
    n = len(data.examples)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        losses = []
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            batch = [data.examples[i] for i in order[lo:lo + cfg.batch_size]]
            try:
                losses.append(train_step(params, state, lex, batch, dropout_rng))
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {bi}: {exc}",
                                   batch_index=bi) from None
        mean_loss = float(np.mean(losses))
        metric = (md.dataset_metric(params, lex, valid, cfg.batch_size)
                  if valid is not None else None)
        record = EpochRecord(epoch, mean_loss, metric)
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)

        if valid is None or best is None or metric > best[0] or (
                math.isnan(best[0]) and not math.isnan(metric)):
            best = (metric, epoch)
            stale = 0
            if kept is not None:
                kept[0], kept[1:] = params.flat, state.flat
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if kept is not None:
        params.flat[...], state.flat[...] = kept[0], kept[1:]
    metric, epoch = best
    return TrainResult(params=params, state=state, history=history,
                       best_epoch=epoch, best_metric=metric)


# ---------------------------------------------------------------------------
# checkpoint io


def _fields_of(cls, block: dict) -> dict:
    """The field values of dataclass ``cls`` from its ``asdict`` form: a
    missing field raises KeyError, other keys are ignored."""
    return {f.name: block[f.name] for f in fields(cls)}


def save_checkpoint(path, params: md.ModelParams,
                    state: Optional[AdaDeltaState] = None,
                    meta: Optional[dict] = None):
    """Write a deterministic, bit-reproducible checkpoint file, one write
    per section, atomically: into a temporary file beside ``path``, which
    then replaces it (``store.write``).

    Parameters that are not the views of ``params.flat``, or a state of
    another size, raise ConfigError before any write.  A failed write
    raises CheckpointError and leaves ``path`` as it was and no
    temporary file.  The file gets the mode ``open(path, "wb")`` gives:
    the old file's, else 0o666 less the umask.
    """
    if not md.is_flat(params):
        raise ConfigError("save_checkpoint needs parameters that are views of "
                          "params.flat, as build_model and load_checkpoint make them")
    if state is not None and state.flat.shape[1] != params.flat.size:
        raise ConfigError(f"optimizer state holds {state.flat.shape[1]} entries, "
                          f"the model {params.flat.size}")
    w = params.w
    spec = asdict(params.spec)
    if spec["score"] is None:
        del spec["score"]
    header = {
        "format_version": FORMAT_VERSION,
        "spec": spec,
        "param_order": list(w),
        "param_shapes": {n: list(a.shape) for n, a in w.items()},
        "has_state": state is not None,
    }
    if state is not None:
        header["rho"] = state.rho
        header["epsilon"] = state.epsilon
    header.update(meta or {})
    sections = [("parameters", params.flat)]
    if state is not None:
        sections.append(("accumulators", state.flat))
    try:
        try:
            mode = os.stat(path).st_mode & 0o7777
        except FileNotFoundError:
            mode = None
        store.write(path, MAGIC, FORMAT_VERSION, header,
                    [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in sections],
                    mode)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path, with_state: bool = True):
    """Read (params, state, meta); bit-exact round trip of save_checkpoint.

    The header, the file size and, in format 3, the section table are
    checked first; then the CRC-32 of each section read (the parameters,
    and with ``with_state`` the accumulators), and a damaged section
    raises CheckpointError naming it.  The parameters, and the
    accumulators, are views of a copy-on-write mapping of the file
    (copies of it when the payload is not aligned or not native-endian);
    the gradient row is a new zeroed buffer.  With ``with_state`` False
    the accumulators are neither checked nor used and state is None.
    """
    try:
        return _read_checkpoint(store.load(path, MAGIC, (2, FORMAT_VERSION), copy=True),
                                path, with_state)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except store.FormatError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _read_checkpoint(ckpt: store.Container, path, with_state: bool):
    meta = ckpt.header
    try:
        block = dict(meta["spec"])
        if block.setdefault("score", None) is not None:
            block["score"] = obj.ScoreSpec(**_fields_of(obj.ScoreSpec, block["score"]))
        spec = md.ModelSpec(**_fields_of(md.ModelSpec, block))
        shapes = md.parameter_shapes(spec)
        want = [(name, list(shape)) for name, shape in shapes]
        stored = meta["param_shapes"]
        have = [(name, stored.get(name)) for name in meta["param_order"]]
        has_state = bool(meta.get("has_state"))
        rho, epsilon = (meta["rho"], meta["epsilon"]) if has_state else (None, None)
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed metadata ({exc})") from None
    # the stored names and shapes must be exactly those of the spec's
    # model, and the file size theirs, before any section is read
    if have != want:
        i = next(i for i in range(max(len(have), len(want)))
                 if have[i:i + 1] != want[i:i + 1])
        got = f"{have[i][0]} {have[i][1]}" if i < len(have) else "missing"
        need = f"{want[i][0]} {want[i][1]}" if i < len(want) else "nothing"
        raise CheckpointError(f"{path}: parameter {i} is {got}, the model spec needs {need}")

    n = sum(math.prod(shape) for _, shape in shapes)
    layout = [("parameters", 8 * n)] + ([("accumulators", 16 * n)] if has_state else [])
    size, expected = len(ckpt.buf), ckpt.start + sum(nbytes for _, nbytes in layout)
    if size < expected:
        raise CheckpointError(f"{path}: truncated parameter data")
    if size > expected:
        raise CheckpointError(f"{path}: {size - expected} trailing bytes")
    if ckpt.version == 2:               # written without a section table: unchecked
        ckpt.assume(layout)
    else:
        ckpt.expect(layout)
    names = [name for name, _ in layout][:2 if with_state else 1]
    ckpt.check(names)                   # both sections in one batch
    # each a view of the mapping where it is aligned and native-endian, else a copy
    flat, *rows = [np.require(np.frombuffer(ckpt.section(name), "<f8"), np.float64,
                              ["ALIGNED", "WRITEABLE"]) for name in names]
    params = md.ModelParams(spec, md.flat_views(shapes, flat), flat)
    if not rows:
        return params, None, meta
    return params, AdaDeltaState.over(params, rows[0].reshape(2, n), np.zeros(n),
                                      rho, epsilon), meta

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
(``ModelParams.flat``; the rows of ``AdaDeltaState.flat``).  The tape
accumulates each leaf's gradient straight into its view of the
gradient buffer, and an update is one sweep over the four buffers in
chunks of ``CHUNK`` elements, small enough that a chunk of each stays in
L2 across the rule's sixteen ufunc passes.  Every element gets the same
operations in the same order as when each array was updated whole, so
the results are bit-identical to that.

Checkpoints are a versioned binary format: magic ``PSIM``, a uint32
format version, a uint64-length-prefixed canonical JSON metadata block
(model spec, parameter shapes, config echo, epoch, embedding hash), then
every parameter array as little-endian float64 in the canonical order
of ``model.parameter_shapes``, then optionally the two optimizer
accumulators per parameter in the same order.  Format version 2 stores
the LSTM as the fused ``encoder.W_lstm``/``U_lstm``/``b_lstm`` arrays;
the loader rejects any other version, and any header whose parameter
names, order or shapes differ from those of its spec, before it
allocates the model.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model as md
from . import numcore as nc
from . import objectives as obj
from .config import RunConfig
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .evaldata import PairDataset
from .rng import stream

MAGIC = b"PSIM"
FORMAT_VERSION = 2


# elements per chunk of the update sweep: 128 KiB of each of the four
# buffers.  Over the 6.17 M parameters of the paper shape a sweep took
# 98 ms at 4K elements, 84 at 8K, 75 at 16K, 79 at 32K, 100 at 128K and
# 118 at 1M, against 117-134 ms for whole-array passes (medians of 12
# interleaved steps, 2 vCPUs).
CHUNK = 1 << 14


@dataclass
class AdaDeltaState:
    """Decayed squared-gradient and squared-update accumulators, and the
    gradient buffer the tape fills.

    ``flat`` is (3, n): its rows are the Eg2, Edx2 and gradient buffers,
    each in the layout of ``ModelParams.flat``.  ``Eg2``, ``Edx2`` and
    ``grad`` map each parameter name to its view of the row.  The
    gradient row is all zero between steps.
    """

    rho: float
    epsilon: float
    flat: np.ndarray
    Eg2: dict[str, np.ndarray]
    Edx2: dict[str, np.ndarray]
    grad: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: md.ModelParams, rho: float = 0.95,
              epsilon: float = 1e-6) -> "AdaDeltaState":
        shapes = [(name, arr.shape) for name, arr in params.w.items()]
        # np.zeros leaves the pages untouched until they are written
        flat = np.zeros((3, sum(arr.size for arr in params.w.values())))
        return cls(rho, epsilon, flat, *(md.flat_views(shapes, row) for row in flat))


def adadelta_step(state: AdaDeltaState, params: md.ModelParams):
    """One in-place update of every parameter from the state's gradient
    row, which a tape (or the caller, through ``state.grad``) has filled.

    The parameters must be the views of ``params.flat`` (a model from
    ``build_model`` or ``load_checkpoint``); anything else raises
    ConfigError before any buffer changes.

    The sweep runs over CHUNK elements of the four buffers at a time.
    Two chunk-sized scratch arrays hold every intermediate; the
    operations and their order are exactly those of the update rule as
    written above, so the result is bit-identical to computing it with
    temporaries.  Each gradient chunk is zeroed once it is used.
    """
    if not md.is_flat(params):
        raise ConfigError("adadelta_step needs parameters that are views of "
                          "params.flat, as build_model and load_checkpoint make them")
    P, (E, D, G) = params.flat, state.flat
    if E.size != P.size:
        raise ConfigError(f"optimizer state holds {E.size} entries, the model {P.size}")

    rho, eps = state.rho, state.epsilon
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
        np.negative(a, out=a)
        np.add(Eg2, eps, out=b)
        np.sqrt(b, out=b)
        a /= b
        a *= g                                    # dx = -sqrt(Edx2 + eps) / sqrt(Eg2 + eps) g
        Edx2 *= rho
        np.multiply(1.0 - rho, a, out=b)
        b *= a
        Edx2 += b                                 # Edx2 = rho Edx2 + (1 - rho) dx dx
        arr += a
        g.fill(0.0)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_metric: Optional[float]


@dataclass
class TrainResult:
    params: md.ModelParams          # best checkpointed parameters
    state: AdaDeltaState
    history: list[EpochRecord]
    best_epoch: int
    best_metric: Optional[float]


def _snapshot_params(params: md.ModelParams) -> md.ModelParams:
    snap = md.build_model(params.spec, seed=None)
    snap.flat[...] = params.flat
    return snap


def _snapshot_state(state: AdaDeltaState, params: md.ModelParams) -> AdaDeltaState:
    snap = AdaDeltaState.zeros(params, state.rho, state.epsilon)
    snap.flat[:2] = state.flat[:2]          # the gradient row stays zero and untouched
    return snap


def train_step(params: md.ModelParams, state: AdaDeltaState, lex, batch,
               dropout_rng) -> float:
    """Forward, backward, and one AdaDelta update; returns the batch loss.

    Each tape leaf starts with its view of the state's zeroed gradient
    buffer as its gradient, so the backward pass accumulates there and
    the update reads it in place.  A step that raises leaves the
    parameters, the accumulators and the zeroed buffer as they were.
    """
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
        state.flat[2].fill(0.0)
        raise
    return loss_value


def train(params: md.ModelParams, lex, data: PairDataset, cfg: RunConfig,
          valid: Optional[PairDataset] = None, on_epoch=None) -> TrainResult:
    """Mini-batch loop with validation-based selection and early stopping.

    ``cfg`` is validated, then supplies batch_size, epochs, patience,
    rho, epsilon, seed and shuffle.  The best checkpoint is the epoch
    with the highest validation metric (Pearson for sts, accuracy
    otherwise); without a validation set the final epoch wins.  Training
    stops early after ``patience`` consecutive epochs without
    improvement.  ``on_epoch`` is called with each EpochRecord as it
    completes.
    """
    cfg.validate()
    if not data.examples:
        raise DataError("training set is empty")
    state = AdaDeltaState.zeros(params, cfg.rho, cfg.epsilon)
    dropout_rng = stream(cfg.seed, "dropout")
    shuffle_rng = stream(cfg.seed, "shuffle")

    history: list[EpochRecord] = []
    best = None  # (metric, epoch, params, state)
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

        if valid is None or best is None or metric > best[0]:
            best = (metric, epoch, _snapshot_params(params),
                    _snapshot_state(state, params))
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    metric, epoch, best_params, best_state = best
    return TrainResult(params=best_params, state=best_state, history=history,
                       best_epoch=epoch, best_metric=metric)


# ---------------------------------------------------------------------------
# checkpoint io


def _spec_to_meta(spec: md.ModelSpec) -> dict:
    meta = {"task": spec.task, "encoder": spec.encoder,
            "comparison": spec.comparison, "total_dim": spec.total_dim,
            "H": spec.H, "l": spec.l, "L": spec.L, "d_neu": spec.d_neu,
            "C": spec.C, "dropout_p": spec.dropout_p,
            "label_names": spec.label_names}
    if spec.score is not None:
        meta["score"] = {"K": spec.score.K, "raw_min": spec.score.raw_min,
                         "raw_max": spec.score.raw_max}
    return meta


def _spec_from_meta(meta: dict) -> md.ModelSpec:
    score = None
    if "score" in meta:
        s = meta["score"]
        score = obj.ScoreSpec(K=s["K"], raw_min=s["raw_min"], raw_max=s["raw_max"])
    return md.ModelSpec(task=meta["task"], encoder=meta["encoder"],
                        comparison=meta["comparison"], total_dim=meta["total_dim"],
                        H=meta["H"], l=meta["l"], L=meta["L"], d_neu=meta["d_neu"],
                        C=meta["C"], dropout_p=meta["dropout_p"], score=score,
                        label_names=meta["label_names"])


def _canonical_json(obj_) -> bytes:
    return json.dumps(obj_, sort_keys=True, separators=(",", ":"),
                      default=_json_default).encode("utf-8")


def _json_default(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer, np.floating)):
        return x.item()
    raise TypeError(f"not serializable: {type(x)}")


def save_checkpoint(path, params: md.ModelParams,
                    state: Optional[AdaDeltaState] = None,
                    meta: Optional[dict] = None):
    """Write a deterministic, bit-reproducible checkpoint file."""
    w = params.w
    header = {
        "format_version": FORMAT_VERSION,
        "spec": _spec_to_meta(params.spec),
        "param_order": list(w),
        "param_shapes": {n: list(a.shape) for n, a in w.items()},
        "has_state": state is not None,
    }
    if state is not None:
        header["rho"] = state.rho
        header["epsilon"] = state.epsilon
    header.update(meta or {})
    blob = _canonical_json(header)
    arrays = list(w.values())
    if state is not None:
        arrays += [group[name] for group in (state.Eg2, state.Edx2) for name in w]
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob)
        for arr in arrays:
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))


def _config_mismatch(meta_spec: dict, cfg) -> Optional[str]:
    pairs = [("filters", "H"), ("lstm_dim", "l"), ("max_len", "L"),
             ("d_neu", "d_neu"), ("task", "task"), ("encoder", "encoder"),
             ("comparison", "comparison")]
    for key, field_ in pairs:
        have = meta_spec[field_]
        want = getattr(cfg, key, None)
        if want is not None and want != have:
            return (f"checkpoint has {key} = {have}, configuration says {want}")
    return None


def load_checkpoint(path, cfg=None, with_state: bool = True):
    """Read (params, state, meta); bit-exact round trip of save_checkpoint.

    The file size must equal the size the header implies; that is
    checked before any array is read.  The parameter section is then
    read straight into the model's flat buffer, and the accumulator
    section into the first two rows of the state's, one read each.
    With ``with_state`` False the AdaDelta accumulators are not read and
    state is None.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, path, cfg, with_state)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_into(fh, arr: np.ndarray, path):
    """Fill a C-contiguous float64 array with the file's next bytes, in
    one read."""
    if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
        raise CheckpointError(f"{path}: truncated parameter data")
    if not np.little_endian:
        arr.byteswap(inplace=True)
    return arr


def _read_checkpoint(fh, path, cfg, with_state: bool):
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(16)
    if len(prefix) < 16 or prefix[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = struct.unpack("<I", prefix[4:8])[0]
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, this build reads {FORMAT_VERSION}")
    (meta_len,) = struct.unpack("<Q", prefix[8:16])
    if size < 16 + meta_len:
        raise CheckpointError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt metadata ({exc})") from exc

    try:
        spec = _spec_from_meta(meta["spec"])
        want = [(name, list(shape)) for name, shape in md.parameter_shapes(spec)]
        shapes = meta["param_shapes"]
        have = [(name, shapes.get(name)) for name in meta["param_order"]]
        has_state = bool(meta.get("has_state"))
        rho, epsilon = (meta["rho"], meta["epsilon"]) if has_state else (None, None)
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed metadata ({exc})") from None
    if cfg is not None:
        problem = _config_mismatch(meta["spec"], cfg)
        if problem:
            raise CheckpointError(f"{path}: {problem}")
    # the stored names and shapes must be exactly those of the spec's
    # model, and the file size theirs, before the model is allocated
    if have != want:
        i = next(i for i in range(max(len(have), len(want)))
                 if have[i:i + 1] != want[i:i + 1])
        got = f"{have[i][0]} {have[i][1]}" if i < len(have) else "missing"
        need = f"{want[i][0]} {want[i][1]}" if i < len(want) else "nothing"
        raise CheckpointError(f"{path}: parameter {i} is {got}, the model spec needs {need}")

    sections = 3 if has_state else 1          # parameters, then Eg2 and Edx2
    expected = 16 + meta_len + sections * 8 * sum(math.prod(shape) for _, shape in want)
    if size < expected:
        raise CheckpointError(f"{path}: truncated parameter data")
    if size > expected:
        raise CheckpointError(f"{path}: {size - expected} trailing bytes")
    # fill the undrawn buffers in place: no second copy of the model
    params = md.build_model(spec, seed=None)
    _read_into(fh, params.flat, path)
    if not (has_state and with_state):
        return params, None, meta
    state = AdaDeltaState.zeros(params, rho, epsilon)
    _read_into(fh, state.flat[:2], path)
    return params, state, meta

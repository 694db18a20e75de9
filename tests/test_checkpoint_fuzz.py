"""Byte-level fuzzing of checkpoint loading.

A damaged checkpoint must give a CheckpointError (exit 1 from the CLI),
never a numpy, JSON or key error, and never a silently wrong model.
The toy checkpoint is the smallest model the spec allows (about 17 KB
of parameters), so every truncation offset can be tried.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import model as md
from pairsim import objectives as obj
from pairsim import training as tr
from pairsim.cli import main
from pairsim.errors import CheckpointError

from toys import edit_checkpoint_header

FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def toy_checkpoint(path, with_state: bool) -> bytes:
    """Write the toy checkpoint to path; returns its bytes."""
    spec = md.ModelSpec(task="sts", encoder="word_avg", comparison="sent", total_dim=2,
                        H=1, l=1, L=1, d_neu=1, C=2, dropout_p=0.0,
                        score=obj.ScoreSpec(2, 0.0, 5.0))
    params = md.build_model(spec, seed=1)
    state = tr.AdaDeltaState.zeros(params) if with_state else None
    if state is not None:
        for name, arr in params.w.items():
            state.Eg2[name] += 0.5
            state.Edx2[name] += arr * arr
    tr.save_checkpoint(path, params, state, {"config": {"seed": 1}})
    return path.read_bytes()


def header_end(raw: bytes) -> int:
    """Offset of the first parameter byte: the prefix plus the JSON block."""
    return 16 + int.from_bytes(raw[8:16], "little")


@pytest.mark.parametrize("with_state", [False, True], ids=["params", "with-state"])
def test_every_truncation_raises_checkpoint_error(tmp_path, with_state):
    path = tmp_path / "cut.ckpt"
    raw = toy_checkpoint(path, with_state)
    tr.load_checkpoint(path)          # whole, it loads
    for cut in range(len(raw) - 1, -1, -1):
        os.truncate(path, cut)
        with pytest.raises(CheckpointError):
            tr.load_checkpoint(path)


@pytest.mark.parametrize("with_state", [False, True], ids=["params", "with-state"])
def test_byte_flips_in_the_header_raise_checkpoint_error_or_load(tmp_path, with_state):
    path = tmp_path / "flip.ckpt"
    raw = toy_checkpoint(path, with_state)

    @FUZZ
    @given(offset=st.integers(0, header_end(raw) - 1), xor=st.integers(1, 255))
    def flip(offset, xor):
        bad = bytearray(raw)
        bad[offset] ^= xor
        path.write_bytes(bytes(bad))
        try:
            params, _, _ = tr.load_checkpoint(path)
        except CheckpointError:
            return
        for _, arr in params.w.items():    # a clean load is a whole model
            assert np.all(np.isfinite(arr))

    flip()


def test_checkpoint_with_state_can_skip_the_accumulators(tmp_path):
    path = tmp_path / "state.ckpt"
    raw = toy_checkpoint(path, True)
    params, state, meta = tr.load_checkpoint(path)
    bare, none, meta2 = tr.load_checkpoint(path, with_state=False)
    assert state is not None and none is None and meta == meta2
    for (n1, a1), (n2, a2) in zip(params.w.items(), bare.w.items()):
        assert n1 == n2 and a1.tobytes() == a2.tobytes()
    # the size check still covers the accumulators it does not read
    path.write_bytes(raw[:-1])
    with pytest.raises(CheckpointError, match="truncated parameter data"):
        tr.load_checkpoint(path, with_state=False)
    path.write_bytes(raw + b"\0" * 3)
    with pytest.raises(CheckpointError, match="3 trailing bytes"):
        tr.load_checkpoint(path, with_state=False)


def test_truncated_checkpoint_through_score_exits_1(tmp_path, capsys):
    path = tmp_path / "score.ckpt"
    raw = toy_checkpoint(path, True)
    path.write_bytes(raw[:header_end(raw) + 100])
    assert main(["score", str(path), "a b", "c d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated parameter data" in err


def huge_spec(meta):
    meta["spec"].update(encoder="proj_avg", total_dim=200000)    # a 298 GiB W_proj


def huge_spec_and_shapes(meta):
    huge_spec(meta)
    meta["param_order"] = ["encoder.W_proj", "encoder.b_proj"] + meta["param_order"]
    meta["param_shapes"].update({"encoder.W_proj": [200000, 200000],
                                 "encoder.b_proj": [200000],
                                 "comparison.W_neu": [1, 400000],
                                 "comparison.W_sent": [5, 400002]})


@pytest.mark.parametrize("edit, message", [
    (huge_spec, "parameter 0 is comparison.W_neu [1, 4], the model spec needs "
                "encoder.W_proj [200000, 200000]"),
    (huge_spec_and_shapes, "truncated parameter data"),
], ids=["spec", "spec-and-shapes"])
def test_a_header_declaring_huge_dimensions_is_refused_before_allocating(tmp_path, edit,
                                                                         message):
    path = tmp_path / "huge.ckpt"
    toy_checkpoint(tmp_path / "toy.ckpt", True)
    edit_checkpoint_header(tmp_path / "toy.ckpt", path, edit)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=message.replace("[", r"\[")):
            tr.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_huge_header_through_score_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.ckpt"
    toy_checkpoint(tmp_path / "toy.ckpt", True)
    edit_checkpoint_header(tmp_path / "toy.ckpt", path, huge_spec)
    assert main(["score", str(path), "a b", "c d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "parameter 0 is" in err

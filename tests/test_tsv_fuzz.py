"""Byte-level fuzzing of the pair-file surface through ``cli.main``.

``pairsim eval`` on a damaged TSV must exit 0, or exit 2 with a
``data error`` line that names the file and a line number; no exception
may escape ``main``.  The checkpoint is a toy word-average model, so
each run takes a few milliseconds.
"""

import re
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import model as md
from pairsim import training as tr
from pairsim.cli import main
from pairsim.config import RunConfig

from toys import toy_lexicon, write_lexicon_files

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)

PAIRS = ("Bob likes Mary.\tMary likes Bob!\t4.5\n"
         "the cat sat\ta dog ran\t1.25\n"
         "\"don't stop\"\t(cats) -- dogs\t3.0\n"
         "big dog\tsmall dog\t2.5\n"
         "café au lait\tthe café\t0.5\n"
         "x y z\tz y x\t5.0\n").encode("utf-8")

# bytes that separate or end fields and lines, start or break UTF-8
# sequences, or make a number
BYTES = st.one_of(st.sampled_from(b"\t\n\r \x00\x0c\x80\xc3\xe9\xff.-+eE019\"'"),
                  st.integers(0, 255))
EDIT = st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                 st.integers(0, len(PAIRS)), BYTES)


def mutated(edits) -> bytes:
    bad = bytearray(PAIRS)
    for kind, pos, byte in edits:
        i = min(pos, len(bad))
        if kind == "insert":
            bad.insert(i, byte)
        elif i < len(bad):
            if kind == "flip":
                bad[i] ^= byte or 0x20
            else:
                del bad[i]
    return bytes(bad)


def test_eval_on_a_damaged_pair_file_exits_0_or_2_naming_file_and_line(tmp_path, capsys):
    tables = write_lexicon_files(toy_lexicon(seed=7, dims=(5, 3)), tmp_path)
    cfg = RunConfig(embeddings=",".join(str(p) for p in tables), encoder="word_avg",
                    comparison="sent", filters=4, lstm_dim=4, max_len=4, d_neu=3,
                    dropout=0.0, score_k=5).validate()
    ckpt = tmp_path / "toy.ckpt"
    tr.save_checkpoint(ckpt, md.build_model(md.spec_from_config(cfg, 8), seed=1), None,
                       {"config": asdict(cfg)})
    data = tmp_path / "pairs.tsv"
    data.write_bytes(PAIRS)
    assert main(["eval", str(ckpt), str(data)]) == 0
    capsys.readouterr()

    @FUZZ
    @given(edits=st.lists(EDIT, min_size=1, max_size=3))
    def damage(edits):
        data.write_bytes(mutated(edits))
        code = main(["eval", str(ckpt), str(data)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith(f"data error: {data} line ")
            assert re.match(r"data error: .* line [1-9][0-9]*: ", err), err

    damage()

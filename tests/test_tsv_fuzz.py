"""Byte-level fuzzing of the pair-file surface through ``cli.main``.

``pairsim eval`` on a damaged TSV, and ``pairsim train`` on a damaged
training or validation TSV, must exit 0, or exit 2 with a ``data error``
line that names the file and a line number (or, for ``train``, one of
its whole-file messages); no exception may escape ``main``.  The model
is a toy word-average one, so each run takes a few milliseconds.
"""

import re
from dataclasses import asdict

from hypothesis import example, given, settings
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


# what ``train`` says of a whole file rather than of one of its lines
WHOLE_FILE = (r"no usable examples",
              r"\d+ usable examples with \d+ distinct gold scores; "
              r"pearson needs at least 2")


def test_train_on_a_damaged_pair_file_exits_0_or_2_naming_file_and_line(tmp_path, capsys):
    tables = write_lexicon_files(toy_lexicon(seed=7, dims=(5, 3)), tmp_path)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"embeddings = {','.join(str(p) for p in tables)}\n"
                   "encoder = word_avg\ncomparison = sent\nfilters = 4\nlstm_dim = 4\n"
                   "max_len = 4\nd_neu = 3\ndropout = 0.0\nscore_k = 5\n"
                   "raw_min = 0\nraw_max = 5\nbatch_size = 4\nepochs = 1\n", encoding="utf-8")
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "toy.ckpt"
    good.write_bytes(PAIRS)
    assert main(["train", str(good), "--valid", str(good), "--config", str(cfg),
                 "--out", str(out)]) == 0
    capsys.readouterr()

    @FUZZ
    @given(text=st.lists(EDIT, min_size=1, max_size=3).map(mutated),
           damaged=st.sampled_from(["train", "valid"]))
    # one pair twice with two golds: Pearson is undefined on its predictions
    @example(text=b"the cat\ta cat\t1.0\nthe cat\ta cat\t4.0\n", damaged="valid")
    def damage(text, damaged):
        bad.write_bytes(text)
        train, valid = (bad, good) if damaged == "train" else (good, bad)
        code = main(["train", str(train), "--valid", str(valid), "--config", str(cfg),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert (re.match(rf"data error: {re.escape(str(bad))} line [1-9][0-9]*: ", err)
                    or re.fullmatch(rf"data error: {re.escape(str(bad))}: "
                                    rf"({'|'.join(WHOLE_FILE)})\n", err)), err

    damage()

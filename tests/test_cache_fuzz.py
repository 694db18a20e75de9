"""Byte-level fuzzing of the lexicon cache through ``cli.main``.

A damaged ``.pairsim-cache`` beside a table must never change a result:
``pairsim score`` falls back to parsing the text and prints the same
bytes as with the cache intact, exits 0, and lets no exception escape.
The checkpoint is a toy word-average model over two toy tables, so each
run takes a few milliseconds.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import embeddings as emb
from pairsim import model as md
from pairsim import training as tr
from pairsim.cli import main
from pairsim.config import RunConfig

from toys import toy_lexicon, write_lexicon_files

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)

PAIR = ["bob likes zebra", "mary likes bob"]

# bytes that are JSON syntax, whitespace or digits, or flip a high bit
BYTES = st.one_of(st.sampled_from(b' \t\n"{}[],:.-0179eE\x00\x80\xff'), st.integers(1, 255))


def damaged(raw: bytes, edits) -> bytes:
    bad = bytearray(raw)
    for kind, where, byte in edits:
        i = where % (len(bad) + 1)
        if kind == "insert":
            bad.insert(i, byte)
        elif kind == "truncate":
            del bad[i:]
        elif i < len(bad):
            bad[i] ^= byte
    return bytes(bad)


EDIT = st.tuples(st.sampled_from(["flip", "insert", "truncate"]),
                 st.integers(0, 1 << 16), BYTES)


def test_score_with_a_damaged_cache_prints_what_it_prints_with_an_intact_one(tmp_path,
                                                                             capsys):
    tables = write_lexicon_files(toy_lexicon(seed=7, dims=(5, 3)), tmp_path)
    cfg = RunConfig(embeddings=",".join(str(p) for p in tables), encoder="word_avg",
                    comparison="sent", filters=4, lstm_dim=4, max_len=4, d_neu=3,
                    dropout=0.0, score_k=5).validate()
    ckpt = tmp_path / "toy.ckpt"
    tr.save_checkpoint(ckpt, md.build_model(md.spec_from_config(cfg, 8), seed=1), None,
                       {"config": asdict(cfg)})
    argv = ["score", str(ckpt), *PAIR]
    assert main(argv) == 0          # parses both tables and writes their caches
    parsed = capsys.readouterr()
    assert main(argv) == 0          # loads both from their caches
    want = capsys.readouterr()
    assert want.out == parsed.out and want.err == ""

    @FUZZ
    @given(table=st.sampled_from(tables), edits=st.lists(EDIT, min_size=1, max_size=3))
    def damage(table, edits):
        cache = emb.cache_path(table)
        intact = cache.read_bytes()
        try:
            cache.write_bytes(damaged(intact, edits))
            code = main(argv)
            got = capsys.readouterr()
            assert code == 0, got.err
            assert got.out == want.out
            assert "Traceback" not in got.err
        finally:
            cache.write_bytes(intact)

    damage()

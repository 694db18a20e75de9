"""Byte-level fuzzing of the config and table-text surfaces through ``cli.main``.

``pairsim coverage`` reads a config file, the embedding tables it names
and a pair file.  With the config and the first table's text damaged,
it must exit 0; or exit 1 with an ``error:`` line that names the config
and a line of it that holds text, or a byte offset; or exit 2 with a
``data error:`` line that names a file it read.  No exception may escape
``main``.  The tables are toy-sized, so each run takes a few
milliseconds.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsim.cli import main
from pairsim.config import load_config

from toys import toy_lexicon, write_lexicon_files

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)

CONFIG = ("# toy tables\n"
          "embeddings = toy0.txt,toy1.txt\n"
          "seed = 13\nencoder = word_avg\ncomparison = sent\n"
          "filters = 4\nd_neu = 3\ndropout = 0.0  # off\n"
          "task = sts\nscore_k = 5\nraw_min = 0\nraw_max = 5\n").encode("utf-8")

PAIRS = "bob likes mary\tmary likes bob\t4.5\nthe red car\ta blue bird\t1.0\n"

# bytes that end or separate lines, settings, values and file names,
# start or break UTF-8 sequences, or make a number; and U+2028, which
# str.splitlines would take for a line end
CHUNKS = st.one_of(st.sampled_from([bytes([b]) for b in b"\t\n\r =#,.\x00\x0c\x80\xc3\xe9\xff-+e019"]
                                   + ["\u2028".encode("utf-8")]),
                   st.binary(min_size=1, max_size=1))


def edits(size):
    return st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                              st.integers(0, size), CHUNKS), max_size=3)


def mutated(raw: bytes, changes) -> bytes:
    bad = bytearray(raw)
    for kind, pos, chunk in changes:
        i = min(pos, len(bad))
        if kind == "insert":
            bad[i:i] = chunk
        elif kind == "replace":
            bad[i:i + 1] = chunk
        else:
            del bad[i:i + 1]
    return bytes(bad)


def test_coverage_on_a_damaged_config_or_table_exits_0_1_or_2_naming_the_file(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    table = write_lexicon_files(toy_lexicon(seed=7, dims=(5, 3)), tmp_path)[0]
    text = table.read_bytes()
    (tmp_path / "pairs.tsv").write_text(PAIRS, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    argv = ["coverage", "pairs.tsv", "--config", "run.cfg"]
    cfg.write_bytes(CONFIG)
    assert main(argv) == 0
    capsys.readouterr()

    @FUZZ
    @given(config_edits=edits(len(CONFIG)), table_edits=edits(len(text)))
    # a U+2028 in the value of "embeddings", and in that of "raw_max" on the last line
    @example(config_edits=[("insert", CONFIG.index(b"\nseed"), "\u2028x".encode("utf-8"))],
             table_edits=[])
    @example(config_edits=[("insert", len(CONFIG) - 1, "\u2028x".encode("utf-8"))],
             table_edits=[])
    def damage(config_edits, table_edits):
        config = mutated(CONFIG, config_edits)
        cfg.write_bytes(config)
        table.write_bytes(mutated(text, table_edits))
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code == 1:
            named = re.match(r"error: run\.cfg line ([1-9][0-9]*): ", err)
            if named:
                # lines are counted in line feeds, and the one named holds a setting
                lines = config.split(b"\n")
                assert int(named[1]) <= len(lines), err
                assert lines[int(named[1]) - 1].split(b"#")[0].strip(), err
            else:
                assert (re.match(r"error: config run\.cfg is not UTF-8 at byte offset \d+: ", err)
                        # a config that sets no table has no line to name
                        or err.startswith("error: no embedding tables configured in config "
                                          "run.cfg; ")
                        # the tables it names share a name
                        or re.match(r"error: embedding tables \S+ and \S+ share the name", err)), err
        elif code == 2:
            read = load_config("run.cfg").embedding_paths() + ["pairs.tsv"]
            assert err.startswith("data error: ") and any(p in err for p in read), err

    damage()

import numpy as np
import pytest

from pairsim.embeddings import FusedLexicon, load_lexicon, load_table
from pairsim.errors import DataError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_table_basic(tmp_path):
    p = write(tmp_path, "t.txt",
              "cat 1 2 3 4\ndog 5 6 7 8\nbird -1 -2 -3 -4\n")
    t = load_table(p)
    assert t.dim == 4
    assert len(t) == 3
    np.testing.assert_array_equal(t.vectors["dog"], [5, 6, 7, 8])


def test_load_table_with_header(tmp_path):
    p = write(tmp_path, "t.txt", "3 4\na 1 2 3 4\nb 1 2 3 4\nc 1 2 3 4\n")
    t = load_table(p)
    assert t.dim == 4 and len(t) == 3
    assert "3" not in t.vectors


def test_load_table_wrong_width_names_line(tmp_path):
    p = write(tmp_path, "t.txt", "a 1 2 3 4\nb 1 2 3 4 5\n")
    with pytest.raises(DataError, match="line 2"):
        load_table(p)


def test_load_table_non_numeric(tmp_path):
    p = write(tmp_path, "t.txt", "a 1 x 3\n")
    with pytest.raises(DataError, match="line 1"):
        load_table(p)


def test_load_table_keeps_finite_values_whose_sum_overflows(tmp_path):
    p = write(tmp_path, "t.txt", "a 1e308 1e308\n")
    np.testing.assert_array_equal(load_table(p).vectors["a"], [1e308, 1e308])


def test_load_table_expected_dim(tmp_path):
    p = write(tmp_path, "t.txt", "a 1 2 3\n")
    with pytest.raises(DataError):
        load_table(p, expected_dim=4)


def test_load_table_duplicates_keep_first(tmp_path, caplog):
    p = write(tmp_path, "t.txt", "a 1 2\nA 9 9\n")
    with caplog.at_level("WARNING"):
        t = load_table(p)
    np.testing.assert_array_equal(t.vectors["a"], [1, 2])
    assert "duplicate" in caplog.text


def test_load_table_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_table(tmp_path / "absent.txt")


@pytest.fixture
def lex(tmp_path):
    a = write(tmp_path, "a.txt", "red 1 2\nblue 3 4\nboth 5 6\n")
    b = write(tmp_path, "b.txt", "green 1 2 3\nboth 4 5 6\n")
    return load_lexicon([a, b], oov_scale=0.1, seed=99)


def test_fuse_lookup_concat_order(lex):
    v = lex.lookup("both")
    assert v.shape == (5,)
    np.testing.assert_array_equal(v, [5, 6, 4, 5, 6])


def test_fuse_lookup_in_vocab_slices_bit_identical(lex):
    v = lex.lookup("red")
    np.testing.assert_array_equal(v[:2], lex.tables[0].vectors["red"])
    # second table misses "red": random slice, bounded by oov_scale
    assert np.all(np.abs(v[2:]) <= 0.1)


def test_fuse_lookup_oov_stable_within_run(lex):
    v1 = lex.lookup("zebra")
    v2 = lex.lookup("zebra")
    assert v1.shape == (5,)
    np.testing.assert_array_equal(v1, v2)


def test_fuse_lookup_oov_stable_across_runs_and_orders(lex, tmp_path):
    v = lex.lookup("zebra")
    # a fresh lexicon with the same seed, after unrelated lookups
    other = FusedLexicon(tables=lex.tables, oov_scale=0.1, seed=99)
    other.lookup("first")
    other.lookup("second")
    np.testing.assert_array_equal(other.lookup("zebra"), v)
    # a different seed changes the fill
    changed = FusedLexicon(tables=lex.tables, oov_scale=0.1, seed=100)
    assert np.any(changed.lookup("zebra") != v)


def test_fuse_lookup_single_table_is_plain_lookup(lex, tmp_path):
    solo = FusedLexicon(tables=[lex.tables[0]], seed=1)
    np.testing.assert_array_equal(solo.lookup("red"), lex.tables[0].vectors["red"])


def test_lookup_length_constant_over_vocab(lex):
    for w in ["red", "blue", "green", "both", "nope", "Zebra"]:
        assert lex.lookup(w).shape == (lex.total_dim,)


def test_coverage_fractions(lex):
    rep = lex.coverage({"red", "blue", "green", "nope"})
    assert rep.vocab_size == 4
    frac = dict(rep.per_table)
    assert frac["a"] == 0.5
    assert frac["b"] == 0.25
    assert rep.union == 0.75
    assert rep.union >= max(frac.values())


def test_coverage_all_present(lex):
    rep = lex.coverage({"both"})
    assert rep.union == 1.0
    assert all(f == 1.0 for _, f in rep.per_table)


def test_coverage_union_monotone(lex):
    vocab = {"red", "green", "nope"}
    one = FusedLexicon(tables=[lex.tables[0]], seed=99).coverage(vocab)
    assert lex.coverage(vocab).union >= one.union


def test_coverage_empty_vocab(lex):
    with pytest.raises(DataError):
        lex.coverage(set())


def test_oov_identical_across_processes(lex, tmp_path):
    import subprocess
    import sys
    prog = (
        "from pairsim.embeddings import load_lexicon\n"
        f"lex = load_lexicon([{str(lex.tables[0].source_path)!r}], seed=99)\n"
        "print(lex.lookup('zebra').tobytes().hex())\n"
    )
    outs = {subprocess.run([sys.executable, "-c", prog], check=True,
                           capture_output=True, text=True).stdout
            for _ in range(2)}
    assert len(outs) == 1


def test_content_hash_changes_with_data(lex):
    h = lex.content_hash()
    assert h == lex.content_hash()
    solo = FusedLexicon(tables=[lex.tables[0]], seed=99)
    assert solo.content_hash() != h

import hashlib
import json
import mmap
import os
import re
import shutil
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from pairsim import embeddings as emb
from pairsim import store
from pairsim.embeddings import FusedLexicon, cache_path, load_lexicon, load_table
from pairsim.errors import ConfigError, DataError
from pairsim.rng import stream

from toys import toy_lexicon


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
    np.testing.assert_array_equal(t.matrix[t.index["dog"]], [5, 6, 7, 8])


def test_load_table_with_header(tmp_path):
    p = write(tmp_path, "t.txt", "3 4\na 1 2 3 4\nb 1 2 3 4\nc 1 2 3 4\n")
    t = load_table(p)
    assert t.dim == 4 and len(t) == 3
    assert "3" not in t.index


def test_load_table_1d_numeric_first_word_is_data(tmp_path):
    # "1 2" is word "1" with value 2: the next line has 2 fields, not 3
    t = load_table(write(tmp_path, "t.txt", "1 2\nb 3\n"))
    assert t.dim == 1 and len(t) == 2
    np.testing.assert_array_equal(t.matrix[t.index["1"]], [2])
    np.testing.assert_array_equal(t.matrix[t.index["b"]], [3])


def test_load_table_header_needs_matching_next_line(tmp_path):
    t = load_table(write(tmp_path, "t.txt", "3 4\n\na 1 2 3 4\n"))
    assert t.dim == 4 and list(t.index) == ["a"]


def test_load_table_one_line_file_is_data(tmp_path):
    t = load_table(write(tmp_path, "t.txt", "3 4\n\n"))
    assert t.dim == 1 and list(t.index) == ["3"]
    np.testing.assert_array_equal(t.matrix[t.index["3"]], [4])


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
    t = load_table(p)
    np.testing.assert_array_equal(t.matrix[t.index["a"]], [1e308, 1e308])


@pytest.mark.parametrize("text, dim", [("the 1 2\ncat 3 4\n", 2),
                                       ("2 3\nthe 1 2 3\ncat 4 5 6\n", 3)],
                         ids=["no-header", "header"])
def test_a_byte_order_mark_is_not_part_of_the_first_word(tmp_path, text, dim):
    p = tmp_path / "t.txt"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for _ in range(2):                  # the parse, then the cache
        t = load_table(p)
        assert list(t.index) == ["the", "cat"] and t.dim == dim


def test_a_byte_order_mark_keeps_line_numbers_and_byte_offsets(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"\xef\xbb\xbfthe 1 2\ncat 3\n")
    with pytest.raises(DataError, match="line 2: expected 2 values, found 1"):
        load_table(p)
    p.write_bytes(b"\xef\xbb\xbfthe 1 2\nc\xff 3 4\n")
    with pytest.raises(DataError, match="position 12"):     # the byte's offset in the file
        load_table(p)


def test_a_cache_of_the_version_that_kept_the_byte_order_mark_is_parsed_again(tmp_path):
    # version 1 parsed a leading byte-order mark into the first word, and
    # the cache is keyed by the SHA-256 of the raw bytes, which keeps it
    p = tmp_path / "t.txt"
    raw = b"\xef\xbb\xbfthe 1 2\n"
    p.write_bytes(raw)
    store.write(cache_path(p), b"PSLX", 1,
                {"source_sha256": hashlib.sha256(raw).hexdigest(), "dim": 2, "rows": 1,
                 "duplicates": []},
                [("matrix", np.array([[1.0, 2.0]])), ("words", "\ufeffthe".encode())])
    assert list(load_table(p).index) == ["the"]


def test_load_table_duplicates_keep_first(tmp_path, caplog):
    p = write(tmp_path, "t.txt", "a 1 2\nA 9 9\n")
    with caplog.at_level("WARNING"):
        t = load_table(p)
    np.testing.assert_array_equal(t.matrix[t.index["a"]], [1, 2])
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
    v = lex.lookup_all(["both"])[0]
    assert v.shape == (5,)
    np.testing.assert_array_equal(v, [5, 6, 4, 5, 6])


def test_fuse_lookup_in_vocab_slices_bit_identical(lex):
    v = lex.lookup_all(["red"])[0]
    t = lex.tables[0]
    np.testing.assert_array_equal(v[:2], t.matrix[t.index["red"]])
    # second table misses "red": random slice, bounded by oov_scale
    assert np.all(np.abs(v[2:]) <= 0.1)


def test_fuse_lookup_oov_stable_within_run(lex):
    v1 = lex.lookup_all(["zebra"])[0]
    v2 = lex.lookup_all(["zebra"])[0]
    assert v1.shape == (5,)
    np.testing.assert_array_equal(v1, v2)


def test_fuse_lookup_oov_stable_across_runs_and_orders(lex, tmp_path):
    v = lex.lookup_all(["zebra"])[0]
    # a fresh lexicon with the same seed, after unrelated lookups
    other = FusedLexicon(tables=lex.tables, oov_scale=0.1, seed=99)
    other.lookup_all(["first"])
    other.lookup_all(["second"])
    np.testing.assert_array_equal(other.lookup_all(["zebra"])[0], v)
    # a different seed changes the fill
    changed = FusedLexicon(tables=lex.tables, oov_scale=0.1, seed=100)
    assert np.any(changed.lookup_all(["zebra"])[0] != v)


def test_tables_sharing_a_name_are_refused(tmp_path):
    """A table's name, its file stem, keys its OOV stream, so two tables
    named alike would give every OOV word the same slice in both."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = write(tmp_path / "a", "vec.txt", "red 1 2 3\n")
    b = write(tmp_path / "b", "vec.txt", "blue 4 5 6\n")
    for paths in ([a, b], [a, a]):
        with pytest.raises(ConfigError) as err:
            load_lexicon(paths, seed=3)
        assert f"{paths[0]} and {paths[1]} share the name 'vec'" in str(err.value)
    c = write(tmp_path / "b", "vec2.txt", "blue 4 5 6\n")
    assert load_lexicon([a, c], seed=3).total_dim == 6


def test_fuse_lookup_single_table_is_plain_lookup(lex, tmp_path):
    t = lex.tables[0]
    solo = FusedLexicon(tables=[t], seed=1)
    np.testing.assert_array_equal(solo.lookup_all(["red"])[0], t.matrix[t.index["red"]])


def test_lookup_length_constant_over_vocab(lex):
    for w in ["red", "blue", "green", "both", "nope", "Zebra"]:
        assert lex.lookup_all([w])[0].shape == (lex.total_dim,)


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
        "print(lex.lookup_all(['zebra'])[0].tobytes().hex())\n"
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


def test_toy_lexicon_content_hash_pinned():
    # the hash goes into every checkpoint header, so a change must be explained
    assert toy_lexicon().content_hash() == (
        "57cff3eec6f00432fcfc073d8fa9f8608e34404c4548879fc5ff9bd47839cd78")


def test_lexicon_memory_is_bounded_by_words_seen(lex):
    vocab = ["red", "blue", "green", "both"] + [f"w{i}" for i in range(46)]
    rng = np.random.default_rng(0)
    seen, sentences = set(), []
    while len(sentences) < 20_000:
        s = tuple(vocab[i] for i in rng.integers(0, len(vocab), size=8))
        if s not in seen:
            seen.add(s)
            sentences.append(s)
    tracemalloc.start()
    try:
        for s in sentences[:1000]:
            lex.lookup_all(s)
        early, _ = tracemalloc.get_traced_memory()
        for s in sentences[1000:]:
            lex.lookup_all(s)
        late, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert late - early < 64 * 1024


# ---------------------------------------------------------------------------
# the parsed-table cache

TABLE = "3 4\ncat 1 2 3 4\nDog 5 6 7 8.5\ncat 9 9 9 9\nbird -1 -2 -3 -4e-3\n"


def parsed(path):
    """The table as a parse reads it, with no cache before or after."""
    cache_path(path).unlink(missing_ok=True)
    table = load_table(path)
    cache_path(path).unlink(missing_ok=True)
    return table


def assert_same_table(got, want):
    assert (got.name, got.dim, got.source_path) == (want.name, want.dim, want.source_path)
    assert list(got.index.items()) == list(want.index.items())
    assert got.matrix.dtype == want.matrix.dtype
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert not got.matrix.flags.writeable


def test_cache_hit_equals_parse_bit_for_bit(tmp_path, caplog, monkeypatch):
    p = write(tmp_path, "t.txt", TABLE)
    with caplog.at_level("WARNING"):
        first = load_table(p)
    parse_log = caplog.messages[:]
    assert cache_path(p).is_file()
    caplog.clear()

    def no_parse(*args):
        raise AssertionError("a cache hit must not parse")
    monkeypatch.setattr(emb, "_parse", no_parse)
    with caplog.at_level("WARNING"):
        hit = load_table(p)
    assert caplog.messages == parse_log and "duplicate" in parse_log[0]
    assert_same_table(hit, first)
    a = FusedLexicon(tables=[first], seed=5)
    b = FusedLexicon(tables=[hit], seed=5)
    assert a.content_hash() == b.content_hash()
    for w in ("cat", "DOG", "zebra"):
        assert a.lookup_all([w])[0].tobytes() == b.lookup_all([w])[0].tobytes()


def test_only_ascii_spaces_and_tabs_split_a_line_and_only_line_feeds_end_one(
        tmp_path, monkeypatch):
    # str.splitlines ends a line at U+2028, U+0085 and \x1c, and str.split
    # splits a word at each of these and at U+00A0 too
    words = ["a\u2028b", "c\x85d", "e\xa0f", "g\x1ch"]
    p = write(tmp_path, "t.txt", "".join(f"{w} {i}\t{-i} \r\n" for i, w in enumerate(words)))
    first = load_table(p)
    assert list(first.index) == words
    assert first.matrix.tolist() == [[i, -i] for i in range(len(words))]
    monkeypatch.setattr(emb, "_parse", no_parse)
    assert_same_table(load_table(p), first)


def test_a_cache_in_the_format_before_store_is_ignored_and_rewritten(tmp_path, monkeypatch):
    p = write(tmp_path, "t.txt", TABLE)
    want = parsed(p)
    # the PSIMLEX1 layout: magic, the SHA-256 of every byte after it, a
    # uint64 length, a JSON block, the words, zero padding to a multiple
    # of 8 bytes and the matrix; a valid cache of the text
    meta = json.dumps({"dim": 4, "duplicates": [[4, "cat"]], "rows": 3, "words_bytes": 12,
                       "source_sha256": hashlib.sha256(TABLE.encode()).hexdigest()},
                      sort_keys=True, separators=(",", ":")).encode()
    head = struct.pack("<Q", len(meta)) + meta + b"cat\ndog\nbird"
    body = head + bytes(-(40 + len(head)) % 8) + want.matrix.astype("<f8").tobytes()
    cache_path(p).write_bytes(b"PSIMLEX1" + hashlib.sha256(body).digest() + body)
    parses = []
    parse = emb._parse
    monkeypatch.setattr(emb, "_parse", lambda *args: parses.append(args) or parse(*args))
    assert_same_table(load_table(p), want)
    assert len(parses) == 1 and cache_path(p).read_bytes()[:4] == emb._CACHE_MAGIC
    assert_same_table(load_table(p), want)
    assert len(parses) == 1


def _flip_last_byte(cache, other):
    data = bytearray(cache.read_bytes())
    data[-1] ^= 0x01
    cache.write_bytes(bytes(data))


def _flip_word_byte(cache, other):
    data = bytearray(cache.read_bytes())
    i = data.index(b"dog")
    data[i] = ord("h")
    cache.write_bytes(bytes(data))


def _truncate(cache, other):
    cache.write_bytes(cache.read_bytes()[:-8])


def _garbage_header(cache, other):
    data = bytearray(cache.read_bytes())
    data[48:64] = b"\xff" * 16
    cache.write_bytes(bytes(data))


def _forge(cache, meta_edit=lambda meta: None, words=None, tail=b""):
    """Rewrite the cache with its layout changed and its section table
    recomputed, so that only the layout checks can refuse it."""
    data = cache.read_bytes()
    old = store.load(cache, emb._CACHE_MAGIC, (emb._CACHE_VERSION,))
    meta, matrix, old_words = old.header, bytes(old.section("matrix")), bytes(old.section("words"))
    old.buf.close()
    store.write(cache, emb._CACHE_MAGIC, emb._CACHE_VERSION, meta,
                [("matrix", matrix), ("words", old_words)])
    assert cache.read_bytes() == data
    meta_edit(meta)
    store.write(cache, emb._CACHE_MAGIC, emb._CACHE_VERSION, meta,
                [("matrix", matrix), ("words", old_words if words is None else words)])
    with open(cache, "ab") as fh:
        fh.write(tail)


def _fewer_words_than_rows(cache, other):
    _forge(cache, words=b"cat\ndog")


def _repeated_word(cache, other):
    _forge(cache, words=b"cat\ncat\nbird")


def _a_row_missing_from_the_matrix(cache, other):
    _forge(cache, lambda meta: meta.update(rows=4), words=b"cat\ndog\nbird\nfish")


def _wrong_dim(cache, other):
    _forge(cache, lambda meta: meta.update(dim=3))


def _trailing_bytes(cache, other):
    _forge(cache, tail=bytes(8))


def _other_files_cache(cache, other):
    load_table(other)
    shutil.copy(cache_path(other), cache)


def _earlier_version(cache, other):
    # the cache of an earlier text at the same path
    text = cache.with_name("t.txt")
    current = text.read_text(encoding="utf-8")
    text.write_text(current.replace("8.5", "8.25"), encoding="utf-8")
    load_table(text)
    text.write_text(current, encoding="utf-8")


@pytest.mark.parametrize("spoil", [_flip_last_byte, _flip_word_byte, _truncate,
                                   _garbage_header, _other_files_cache,
                                   _earlier_version, _fewer_words_than_rows,
                                   _repeated_word, _a_row_missing_from_the_matrix,
                                   _wrong_dim, _trailing_bytes])
def test_spoiled_cache_is_never_used(tmp_path, spoil):
    p = write(tmp_path, "t.txt", TABLE)
    other = write(tmp_path, "u.txt", TABLE.replace("cat", "cow"))
    want = parsed(p)
    load_table(p)
    clean = cache_path(p).read_bytes()
    spoil(cache_path(p), other)
    assert_same_table(load_table(p), want)
    # the load rewrote the cache, and the next load is a hit on it
    assert cache_path(p).read_bytes() == clean
    assert_same_table(load_table(p), want)


@pytest.mark.parametrize("bad_line, message", [
    ("dog 5 x 7 8", "line 3: non-numeric"),
    ("dog 5 6 7", "line 3: expected 4 values, found 3"),
    ("dog 5 nan 7 8", "line 3: non-finite"),
])
def test_bad_line_raises_despite_a_cache_of_the_old_text(tmp_path, bad_line, message):
    p = write(tmp_path, "t.txt", TABLE)
    load_table(p)
    lines = TABLE.splitlines()
    lines[2] = bad_line
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_table(p)
    with pytest.raises(DataError, match=message):
        load_table(p)


def test_emptied_text_raises_despite_a_cache_of_the_old_text(tmp_path):
    p = write(tmp_path, "t.txt", TABLE)
    load_table(p)
    p.write_bytes(b"")              # an empty file cannot be memory-mapped
    for _ in range(2):
        with pytest.raises(DataError, match="no word vectors found"):
            load_table(p)


def test_windowed_hash_equals_one_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "WINDOW", mmap.PAGESIZE)
    data = stream(3, "test").bytes(7 * mmap.PAGESIZE // 2)
    p = tmp_path / "blob"
    p.write_bytes(data)
    assert store.sha256(p).digest() == hashlib.sha256(data).digest()
    with open(p, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as buf:
        for lo, hi in ((0, len(data)), (40, len(data)), (mmap.PAGESIZE + 1, len(data) - 3),
                       (5, 9), (7, 7)):
            assert store.crc32(buf, lo, hi) == zlib.crc32(data[lo:hi])
        assert buf[:] == data        # pages dropped after hashing read back the same


def _rss_file_kb():
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return int(fields["RssFile"].split()[0])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_cached_load_does_not_keep_the_files_resident(tmp_path):
    rng = stream(4, "test")
    rows = [f"w{i} " + " ".join("%.6f" % v for v in rng.normal(size=256)) for i in range(2000)]
    p = write(tmp_path, "big.txt", "\n".join(rows) + "\n")       # 4 MB of cache
    load_table(p)
    before = _rss_file_kb()
    table = load_table(p)
    assert _rss_file_kb() - before < 1024
    np.testing.assert_array_equal(table.matrix[1999], parsed(p).matrix[1999])


def test_cache_dim_mismatch_raises_the_parse_error(tmp_path):
    p = write(tmp_path, "t.txt", "a 1 2 3\n")
    load_table(p)
    write(tmp_path, "t.txt", "a 1 2 3\nb 1 2 3 4\n")   # the cached dim fits no longer
    with pytest.raises(DataError, match="line 2: expected 3 values, found 4"):
        load_table(p)


def test_unwritable_directory_loads_and_leaves_no_temp_file(tmp_path, monkeypatch, caplog):
    d = tmp_path / "ro"
    d.mkdir()
    p = write(d, "t.txt", TABLE)
    want = parsed(p)
    # permission bits do not stop root, so make the final rename fail too

    def refuse(*args):
        raise PermissionError("read-only directory")
    monkeypatch.setattr(os, "replace", refuse)
    d.chmod(0o555)
    try:
        with caplog.at_level("WARNING"):
            assert_same_table(load_table(p), want)
            assert_same_table(load_table(p), want)
        assert sorted(os.listdir(d)) == ["t.txt"]
        # each load says once that the cache could not be written, and why;
        # an unprivileged user fails at the temporary file, root at the rename
        warning = re.compile(rf"cannot write embedding cache {re.escape(str(cache_path(p)))} "
                             r"\((.*Permission denied.*|read-only directory)\); "
                             r"the table will be parsed again on every load")
        cache_msgs = [m for m in caplog.messages if "cache" in m]
        assert len(cache_msgs) == 2 and all(warning.fullmatch(m) for m in cache_msgs)
    finally:
        d.chmod(0o755)


# ---------------------------------------------------------------------------
# digests computed on threads

def _filler(tmp_path, name, rows=60, dim=8):
    """A table whose text and cache are each about one page."""
    values = stream(6, "filler", name).normal(size=(rows, dim))
    return write(tmp_path, f"{name}.txt", "".join(
        f"{name}{i} " + " ".join("%.5f" % v for v in row) + "\n" for i, row in enumerate(values)))


@pytest.fixture
def threads_started(monkeypatch):
    """A one-page window and two CPUs, so that toy lexicons are checked
    on threads; lists the name of each thread started."""
    monkeypatch.setattr(store, "WINDOW", mmap.PAGESIZE)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def no_parse(*args):
    raise AssertionError("a cache hit must not parse")


def test_lexicon_hashed_on_threads_equals_parse_bit_for_bit(tmp_path, threads_started,
                                                            monkeypatch):
    paths = [write(tmp_path, "t.txt", TABLE), _filler(tmp_path, "f"), _filler(tmp_path, "g")]
    want = [parsed(p) for p in paths]
    load_lexicon(paths)
    monkeypatch.setattr(emb, "_parse", no_parse)
    threads_started.clear()
    before = threading.active_count()
    got = load_lexicon(paths)
    assert threads_started == ["pairsim-digest"]        # beside the caller
    assert threading.active_count() == before
    for table, parse in zip(got.tables, want):
        assert_same_table(table, parse)


@pytest.mark.parametrize("spoil", [_flip_last_byte, _flip_word_byte, _truncate,
                                   _garbage_header, _other_files_cache,
                                   _earlier_version, _fewer_words_than_rows,
                                   _repeated_word, _a_row_missing_from_the_matrix,
                                   _wrong_dim, _trailing_bytes])
def test_spoiled_cache_is_never_used_when_hashed_on_threads(tmp_path, threads_started, spoil):
    p = write(tmp_path, "t.txt", TABLE)
    other = write(tmp_path, "u.txt", TABLE.replace("cat", "cow"))
    paths = [_filler(tmp_path, "f"), p]
    want = parsed(p)
    load_lexicon(paths)
    clean = cache_path(p).read_bytes()
    spoil(cache_path(p), other)
    threads_started.clear()
    assert_same_table(load_lexicon(paths).tables[1], want)
    assert threads_started
    # the load rewrote the cache, and the next load is a hit on it
    assert cache_path(p).read_bytes() == clean
    assert_same_table(load_lexicon(paths).tables[1], want)


def test_a_hashing_job_that_raises_falls_back_to_a_parse(tmp_path, threads_started,
                                                         monkeypatch):
    paths = [_filler(tmp_path, "f"), write(tmp_path, "t.txt", TABLE), _filler(tmp_path, "g")]
    want = [parsed(p) for p in paths]
    load_lexicon(paths)
    clean = cache_path(paths[1]).read_bytes()
    sha256, parse = store.sha256, emb._parse

    def failing(path):
        if path == paths[1]:
            raise OSError("read error")
        return sha256(path)

    parses = []

    def counted(path, *args):
        parses.append(path)
        return parse(path, *args)
    monkeypatch.setattr(store, "sha256", failing)
    monkeypatch.setattr(emb, "_parse", counted)
    threads_started.clear()
    before = threading.active_count()
    got = load_lexicon(paths)
    assert threads_started and threading.active_count() == before
    assert parses == [paths[1]]
    for table, parse in zip(got.tables, want):
        assert_same_table(table, parse)
    assert cache_path(paths[1]).read_bytes() == clean


def test_a_text_emptied_after_caching_raises_its_parse_error(tmp_path, threads_started,
                                                              monkeypatch):
    # its digest job finds an empty file, which cannot be mapped, and
    # returns no digest; only that table is parsed, the others are hits
    paths = [_filler(tmp_path, "f"), _filler(tmp_path, "g"), write(tmp_path, "t.txt", TABLE)]
    want = [parsed(p) for p in paths[:2]]
    load_lexicon(paths)
    paths[2].write_bytes(b"")
    parse, parses = emb._parse, []
    monkeypatch.setattr(emb, "_parse", lambda path, *args: parses.append(path)
                        or parse(path, *args))
    threads_started.clear()
    with pytest.raises(DataError, match="no word vectors found"):
        load_lexicon(paths)
    assert threads_started and parses == [paths[2]]
    for table, parse in zip(load_lexicon(paths[:2]).tables, want):
        assert_same_table(table, parse)
    assert parses == [paths[2]]


def _desk_sized(tmp_path):
    """Two tables the size of the desk benchmark's: 800 words of 24 and 16 values."""
    paths = []
    for name, dim in (("d24", 24), ("d16", 16)):
        rows = stream(8, "desk", name).normal(size=(800, dim))
        paths.append(write(tmp_path, f"{name}.txt", "".join(
            f"w{i} " + " ".join("%.5f" % v for v in row) + "\n" for i, row in enumerate(rows))))
    return paths


@pytest.mark.parametrize("case", ["one CPU", "one window"])
def test_one_cpu_or_a_lexicon_of_one_window_is_hashed_inline(tmp_path, monkeypatch, case):
    if case == "one CPU":
        monkeypatch.setattr(store, "WINDOW", mmap.PAGESIZE)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        paths = [_filler(tmp_path, "f"), _filler(tmp_path, "g")]
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        paths = _desk_sized(tmp_path)
    want = [parsed(p) for p in paths]
    load_lexicon(paths)
    if case == "one window":
        size = sum(os.path.getsize(p) + os.path.getsize(cache_path(p)) for p in paths)
        assert mmap.PAGESIZE < size <= store.WINDOW

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(emb, "_parse", no_parse)
    for table, parse in zip(load_lexicon(paths).tables, want):
        assert_same_table(table, parse)

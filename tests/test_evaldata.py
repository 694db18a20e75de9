import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import evaldata as ed
from pairsim.errors import DataError

from oracles import scalar_pearson


def test_tokenize_sentence_with_period():
    assert ed.tokenize("Bob likes Mary.") == ["bob", "likes", "mary", "."]


def test_tokenize_whitespace_only():
    assert ed.tokenize("  ") == []
    assert ed.tokenize("") == []


def test_tokenize_internal_apostrophe():
    assert ed.tokenize("don't stop") == ["don't", "stop"]


def test_tokenize_edge_punctuation_order():
    assert ed.tokenize('"hello!?"') == ['"', "hello", "!", "?", '"']
    assert ed.tokenize("--") == ["-", "-"]


def test_tokenize_idempotent_on_joined_output():
    samples = ["Bob likes Mary.", "don't -- stop!", '"a!?" (b) c...', "  x  "]
    for s in samples:
        once = ed.tokenize(s)
        assert ed.tokenize(" ".join(once)) == once


def write(tmp_path, text, name="data.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_sts_scores_exact(tmp_path):
    p = write(tmp_path, "a cat\tthe cat\t0.0\nbig dog\tsmall dog\t2.5\nx y\tx y\t5.0\n")
    ds = ed.load_pairs(p, "sts")
    assert len(ds) == 3
    assert [ex.gold_score for ex in ds.examples] == [0.0, 2.5, 5.0]
    assert ds.vocab == {"a", "cat", "the", "big", "dog", "small", "x", "y"}


def test_load_missing_field_names_line(tmp_path):
    p = write(tmp_path, "only two\tfields\n")
    with pytest.raises(DataError, match="line 1"):
        ed.load_pairs(p, "sts")


def test_load_label_case_insensitive(tmp_path):
    p = write(tmp_path, "a\tb\tENTAILMENT\nc\td\tNeutral\n")
    ds = ed.load_pairs(p, "entailment")
    assert [ex.gold_label for ex in ds.examples] == [0, 2]
    assert ds.label_names == ["entailment", "contradiction", "neutral"]


def test_load_unknown_label(tmp_path):
    p = write(tmp_path, "a\tb\tmaybe\n")
    with pytest.raises(DataError, match="line 1"):
        ed.load_pairs(p, "entailment")


def test_load_paraphrase_labels(tmp_path):
    p = write(tmp_path, "a\tb\t1\nc\td\t0\n")
    ds = ed.load_pairs(p, "paraphrase")
    assert [ex.gold_label for ex in ds.examples] == [1, 0]


def test_load_empty_sentence(tmp_path):
    p = write(tmp_path, "a\t \t3.0\n")
    with pytest.raises(DataError, match="line 1"):
        ed.load_pairs(p, "sts")


def test_lenient_skips_and_logs(tmp_path, caplog):
    p = write(tmp_path, "a\tb\t1.0\nbroken line\nc\td\t2.0\n")
    with caplog.at_level("WARNING"):
        ds = ed.load_pairs(p, "sts", lenient=True)
    assert len(ds) == 2
    assert "line 2" in caplog.text
    with pytest.raises(DataError):
        ed.load_pairs(p, "sts")


@pytest.mark.parametrize("gold", ["nan", "inf", "-Infinity", "NaN"])
def test_non_finite_score_names_its_line_or_is_skipped(tmp_path, gold):
    p = write(tmp_path, f"a\tb\t1.0\nc\td\t{gold}\n")
    with pytest.raises(DataError, match=r"line 2: non-finite score"):
        ed.load_pairs(p, "sts")
    assert [ex.gold_score for ex in ed.load_pairs(p, "sts", lenient=True).examples] == [1.0]


def test_score_range_refuses_golds_outside_it(tmp_path):
    p = write(tmp_path, "a\tb\t0.0\nc\td\t5.0\ne\tf\t7.5\n")
    assert len(ed.load_pairs(p, "sts")) == 3          # no range, no check
    with pytest.raises(DataError, match=r"line 3: score 7.5 outside \[0.0, 5.0\]"):
        ed.load_pairs(p, "sts", score_range=(0.0, 5.0))
    ds = ed.load_pairs(p, "sts", lenient=True, score_range=(0.0, 5.0))
    assert [ex.gold_score for ex in ds.examples] == [0.0, 5.0]


def test_serialize_roundtrip(tmp_path):
    p = write(tmp_path, "A cat sits.\tThe mat!\t3.5\nDogs run\tCats nap\t1.0\n")
    ds = ed.load_pairs(p, "sts")
    p2 = write(tmp_path, ed.serialize_pairs(ds), name="round.tsv")
    ds2 = ed.load_pairs(p2, "sts")
    for a, b in zip(ds.examples, ds2.examples):
        assert a.tokens1 == b.tokens1
        assert a.tokens2 == b.tokens2
        assert a.gold_score == b.gold_score


def test_pearson_exact_lines():
    assert abs(ed.pearson([1, 2, 3], [3, 5, 7]) - 1.0) < 1e-12
    assert abs(ed.pearson([1, 2, 3], [-1, -2, -3]) + 1.0) < 1e-12


def test_pearson_hand_value():
    assert abs(ed.pearson([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12


def test_pearson_matches_scalar_oracle_and_numpy():
    rng = np.random.default_rng(50)
    for _ in range(25):
        x = rng.normal(size=8).tolist()
        y = rng.normal(size=8).tolist()
        r = ed.pearson(x, y)
        assert abs(r - scalar_pearson(x, y)) < 1e-12
        assert abs(r - float(np.corrcoef(x, y)[0, 1])) < 1e-10


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(51)
    x = rng.normal(size=10).tolist()
    y = rng.normal(size=10).tolist()
    r = ed.pearson(x, y)
    assert abs(ed.pearson(y, x) - r) < 1e-12
    assert abs(ed.pearson([3.5 * v + 2 for v in x], y) - r) < 1e-12


def test_pearson_errors():
    with pytest.raises(DataError):
        ed.pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DataError):
        ed.pearson([1], [2])
    with pytest.raises(DataError):
        ed.pearson([1, 2], [1, 2, 3])


def test_classification_perfect_and_degenerate():
    m = ed.classification_metrics([1, 0, 1], [1, 0, 1])
    assert m.accuracy == 1.0 and m.f1 == 1.0
    m = ed.classification_metrics([1, 1, 0], [0, 0, 0])
    assert m.f1 == 0.0


def test_classification_hand_count():
    m = ed.classification_metrics([1, 1, 0, 0], [1, 0, 0, 1])
    assert m.accuracy == 0.5
    assert m.f1 == 0.5


def test_classification_multiclass_has_no_f1():
    m = ed.classification_metrics([0, 1, 2], [0, 2, 2])
    assert abs(m.accuracy - 2 / 3) < 1e-12
    assert m.f1 is None


# any text without surrogates (they cannot be written as UTF-8)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def pair_datasets(draw):
    """(task, PairDataset) whose sentences are tokenizer output."""
    task = draw(st.sampled_from(ed.TASKS))
    n = draw(st.integers(1, 5))
    examples = []
    for _ in range(n):
        t1 = draw(TEXT.map(ed.tokenize).filter(bool))
        t2 = draw(TEXT.map(ed.tokenize).filter(bool))
        if task == "sts":
            gold = dict(gold_score=draw(st.floats(allow_nan=False, allow_infinity=False)))
        else:
            gold = dict(gold_label=draw(st.integers(0, len(ed.LABEL_NAMES[task]) - 1)))
        examples.append(ed.SentencePairExample(t1, t2, **gold))
    return ed.PairDataset(examples=examples, task=task,
                          label_names=ed.LABEL_NAMES.get(task))


def test_serialize_load_roundtrip_property(tmp_path):
    path = tmp_path / "round.tsv"

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(pair_datasets())
    def roundtrip(ds):
        path.write_text(ed.serialize_pairs(ds), encoding="utf-8")
        back = ed.load_pairs(path, ds.task)
        assert len(back.examples) == len(ds.examples)
        for a, b in zip(ds.examples, back.examples):
            assert (b.tokens1, b.tokens2) == (a.tokens1, a.tokens2)
            assert (b.gold_score, b.gold_label) == (a.gold_score, a.gold_label)

    roundtrip()

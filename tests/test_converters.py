"""The dataset converters in scripts/, run on small fakes of each release
written in the format their docstrings describe, and their output read
back with ``load_pairs`` under the task and score range the docstrings
name."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from pairsim.evaldata import load_pairs

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def convert(script, source, *args):
    """Run ``script`` on ``source``; (stdout, stderr lines) of a run that exits 0."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), str(source), *args],
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout, proc.stderr.splitlines()


def read_back(tmp_path, out, task, score_range=None):
    path = tmp_path / "out.tsv"
    path.write_text(out, encoding="utf-8")
    return load_pairs(path, task, score_range=score_range)


# genre, file, year, index, score, sentence1, sentence2 [, provenance ...]
STSB = "".join("\t".join(row) + "\n" for row in [
    ["main-captions", "MSRvid", "2012test", "0001", "5.000",
     "A plane is taking off.", "An air plane is taking off."],
    ["main-news", "headlines", "2013", "0002", "3.800",
     "A man is playing a flute.", "A man plays a flute.", "source-a", "source-b"],
    ["main-forums", "deft-forum", "2014", "0003", "n/a", "A bad score.", "Is skipped."],
    ["main-forums", "deft-forum", "2014", "0004", "0.250",
     "Three dogs run.", "A cat sleeps."],
    ["main-forums", "deft-forum", "2014", "0005", "5.000", "Too few fields."],
])


def test_stsb_keeps_rows_with_provenance_columns_and_skips_bad_ones(tmp_path):
    source = tmp_path / "sts-train.csv"
    source.write_text(STSB, encoding="utf-8")
    out, err = convert("convert_stsb.py", source)
    data = read_back(tmp_path, out, "sts", score_range=(0, 5))
    assert [ex.gold_score for ex in data.examples] == [5.0, 3.8, 0.25]
    assert data.examples[1].tokens1 == ["a", "man", "is", "playing", "a", "flute", "."]
    assert err == ["line 3: bad score 'n/a', skipped", "line 5: 6 fields, skipped",
                   "3 pairs written, 2 skipped"]


@pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_stsb_skips_a_score_that_is_not_finite(tmp_path, score):
    assert not math.isfinite(float(score))
    source = tmp_path / "sts-dev.csv"
    source.write_text(STSB.replace("\t0.250\t", f"\t{score}\t"), encoding="utf-8")
    out, err = convert("convert_stsb.py", source)
    data = read_back(tmp_path, out, "sts", score_range=(0, 5))
    assert [ex.gold_score for ex in data.examples] == [5.0, 3.8]
    assert f"line 4: bad score {score!r}, skipped" in err


SICK_HEADER = ["pair_ID", "sentence_A", "sentence_B", "entailment_label",
               "relatedness_score", "entailment_AB", "entailment_BA",
               "sentence_A_original", "sentence_B_original", "sentence_A_dataset",
               "sentence_B_dataset", "SemEval_set"]


def sick_row(pair_id, a, b, label, score, split):
    return [pair_id, a, b, label, score, "A_neutral_B", "B_neutral_A", a, b,
            "FLICKR", "FLICKR", split]


SICK = "".join("\t".join(row) + "\n" for row in [
    SICK_HEADER,
    sick_row("1", "A group of kids is playing.", "A group of boys is playing.",
             "NEUTRAL", "4.5", "TRAIN"),
    sick_row("2", "A man is cutting a tomato.", "A man is not cutting a tomato.",
             "CONTRADICTION", "2.9", "TEST"),
    sick_row("3", "A woman is dancing.", "A woman dances.", "ENTAILMENT", "4.9", "TRAIN"),
    sick_row("4", "A dog runs.", "A cat sleeps.", "NEUTRAL", "1.0", "TRIAL"),
    [],                                             # a blank line
    sick_row("5", "A truncated row", "is skipped", "NEUTRAL", "3.0", "TRAIN")[:5],
    sick_row("6", "Two men talk.", "Two people are talking.", "ENTAILMENT", "4.2", "TEST"),
])


@pytest.mark.parametrize("task, split, want", [
    ("sts", "TRAIN", [4.5, 4.9]),
    ("sts", "TEST", [2.9, 4.2]),
    ("entailment", "TRAIN", ["neutral", "entailment"]),
    ("entailment", "TEST", ["contradiction", "entailment"]),
], ids=["sts-TRAIN", "sts-TEST", "entailment-TRAIN", "entailment-TEST"])
def test_sick_extracts_one_split_of_one_task(tmp_path, task, split, want):
    source = tmp_path / "SICK.txt"
    source.write_text(SICK, encoding="utf-8")
    out, err = convert("convert_sick.py", source, "--task", task, "--split", split)
    if task == "sts":
        data = read_back(tmp_path, out, "sts", score_range=(1, 5))
        assert [ex.gold_score for ex in data.examples] == want
    else:
        assert [line.split("\t")[2] for line in out.splitlines()] == want   # lowercased
        data = read_back(tmp_path, out, "entailment")
        assert [data.label_names[ex.gold_label] for ex in data.examples] == want
    assert err == ["line 6: malformed, skipped", "line 7: malformed, skipped",
                   f"2 pairs written for split {split}, 2 skipped"]


# Quality, #1 ID, #2 ID, #1 String, #2 String, after a byte-order mark
MRPC = "\ufeff" + "".join("\t".join(row) + "\n" for row in [
    ["Quality", "#1 ID", "#2 ID", "#1 String", "#2 String"],
    ["1", "702876", "702977", "Amrozi accused his brother.", "His brother was accused."],
    ["0", "2108705", "2108831", "Yucaipa owned Dominick's.", "Yucaipa bought Chicago."],
    ["x", "1", "2", "A bad quality.", "Is skipped."],
    ["1", "3", "4", "Only four fields."],
    ["1", "5", "6", "Shares rose.", "Stocks went up."],
])


def test_mrpc_reads_past_a_byte_order_mark_and_skips_malformed_rows(tmp_path):
    source = tmp_path / "msr_paraphrase_train.txt"
    source.write_text(MRPC, encoding="utf-8")
    assert source.read_bytes().startswith(b"\xef\xbb\xbf")
    out, err = convert("convert_mrpc.py", source)
    data = read_back(tmp_path, out, "paraphrase")
    assert [data.label_names[ex.gold_label] for ex in data.examples] == ["1", "0", "1"]
    assert data.examples[0].tokens1 == ["amrozi", "accused", "his", "brother", "."]
    assert err == ["line 4: malformed, skipped", "line 5: malformed, skipped",
                   "3 pairs written, 2 skipped"]


@pytest.mark.parametrize("script", ["convert_stsb.py", "convert_sick.py", "convert_mrpc.py"])
@pytest.mark.parametrize("case", ["missing", "not-utf8"])
def test_a_source_that_cannot_be_read_exits_1_with_one_line(tmp_path, script, case):
    source = tmp_path / "release.txt"
    if case == "not-utf8":
        source.write_bytes(b"Quality\tsentence_A\n\xff\xfe\tbad\n")
    args = ["--task", "sts", "--split", "TRAIN"] if script == "convert_sick.py" else []
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), str(source), *args],
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    reason = ("No such file or directory" if case == "missing"
              else "not UTF-8 (invalid start byte)")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"cannot read {source}: {reason}\n"

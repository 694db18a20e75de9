import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairsim
from pairsim import evaldata as ed
from pairsim.cli import main
from pairsim.config import fingerprint, load_config
from pairsim.errors import ConfigError

from toys import (cls3_dataset, edit_checkpoint_header, sts_overfit_dataset,
                  toy_lexicon, write_lexicon_files)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Embedding files, datasets, and a desk-scale config on disk."""
    root = tmp_path_factory.mktemp("cli")
    lex = toy_lexicon(seed=7, dims=(5, 3))
    paths = write_lexicon_files(lex, root)
    (root / "sts.tsv").write_text(ed.serialize_pairs(sts_overfit_dataset()),
                                  encoding="utf-8")
    (root / "cls.tsv").write_text(ed.serialize_pairs(cls3_dataset()),
                                  encoding="utf-8")
    (root / "desk.cfg").write_text(
        "embeddings = {}\n".format(",".join(str(p) for p in paths))
        + "seed = 13\nencoder = maxlstm\ncomparison = multi\n"
        + "filters = 6\nlstm_dim = 6\nmax_len = 4\nd_neu = 4\ndropout = 0.0\n"
        + "task = sts\nscore_k = 5\nraw_min = 0\nraw_max = 5\n"
        + "batch_size = 8\nepochs = 3\npatience = 10\n",
        encoding="utf-8")
    return root


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# config machinery


def test_config_defaults_and_overrides(workdir):
    cfg = load_config(workdir / "desk.cfg", {"epochs": "7", "shuffle": "false"})
    assert cfg.epochs == 7
    assert cfg.shuffle is False
    assert cfg.filters == 6


def test_config_unknown_key_fatal(workdir):
    with pytest.raises(ConfigError, match="unknown configuration key"):
        load_config(workdir / "desk.cfg", {"filtrs": "6"})
    bad = workdir / "bad.cfg"
    bad.write_text("nonsense = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad)


def test_config_env_default(workdir, monkeypatch):
    monkeypatch.setenv("PAIRSIM_CONFIG", str(workdir / "desk.cfg"))
    cfg = load_config()
    assert cfg.filters == 6


def test_config_fingerprint_tracks_content(workdir):
    a = load_config(workdir / "desk.cfg")
    b = load_config(workdir / "desk.cfg", {"epochs": "99"})
    assert fingerprint(a) != fingerprint(b)
    assert fingerprint(a) == fingerprint(load_config(workdir / "desk.cfg"))


def test_shipped_presets_parse():
    import pathlib
    here = pathlib.Path(__file__).resolve().parents[1] / "configs"
    desk = load_config(here / "desk.cfg")
    assert desk.filters == 16
    paper = load_config(here / "paper.cfg")
    assert paper.filters == 1600 and paper.lstm_dim == 1600
    assert paper.batch_size == 30 and paper.dropout == 0.5
    assert len(paper.embedding_paths()) == 5


# ---------------------------------------------------------------------------
# train / eval / score


def test_train_writes_checkpoint_and_history(workdir, capsys, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run(capsys, "train", workdir / "sts.tsv",
                         "--config", workdir / "desk.cfg",
                         "--valid", workdir / "sts.tsv", "--out", ckpt,
                         "--epochs", "2")
    assert code == 0
    assert ckpt.exists()
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0].split("\t") == ["epoch", "train_loss", "valid_metric"]
    assert len(rows) == 3  # header + 2 epochs
    assert "# seed = 13" in out


def test_train_missing_embeddings_names_key(workdir, capsys, tmp_path):
    cfg = tmp_path / "noemb.cfg"
    cfg.write_text("task = sts\nfilters = 6\nlstm_dim = 6\n", encoding="utf-8")
    code, out, err = run(capsys, "train", workdir / "sts.tsv",
                         "--config", cfg, "--out", tmp_path / "x.ckpt")
    assert code == 1
    assert "embeddings" in err


def test_train_missing_data_exits_2(workdir, capsys, tmp_path):
    code, out, err = run(capsys, "train", workdir / "absent.tsv",
                         "--config", workdir / "desk.cfg",
                         "--out", tmp_path / "x.ckpt")
    assert code == 2


@pytest.mark.parametrize("task, rows, lenient, count", [
    ("sts", ["bob likes mary\tmary likes bob\t3.0"], "false", 1),
    ("sts", ["bob likes mary\tmary likes bob\tnot-a-score"], "true", 0),
    ("sts", ["bob likes mary\tmary likes bob\t3.0", "dogs eats food\tthe red car\t3.0"],
     "false", 2),
    ("entailment", ["bob likes mary\tmary likes bob\tmaybe"], "true", 0),
])
def test_train_refuses_a_too_small_valid_set_before_any_epoch(workdir, capsys, tmp_path,
                                                             task, rows, lenient, count):
    valid = tmp_path / "valid.tsv"
    valid.write_text("\n".join(rows) + "\n", encoding="utf-8")
    train = workdir / ("sts.tsv" if task == "sts" else "cls.tsv")
    code, out, err = run(capsys, "train", train, "--config", workdir / "desk.cfg",
                         "--valid", valid, "--out", tmp_path / "x.ckpt",
                         "--task", task, "--lenient", lenient)
    assert code == 2
    assert f"{valid}: {count} usable validation examples" in err
    assert "epoch\t" not in out
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("gold, message", [
    ("nan", "line 2: non-finite score 'nan'"),
    ("7.5", "line 2: score 7.5 outside [0.0, 5.0]"),
    ("-0.5", "line 2: score -0.5 outside [0.0, 5.0]"),
])
@pytest.mark.parametrize("role", ["train", "valid"])
def test_train_refuses_bad_golds_before_any_epoch(workdir, capsys, tmp_path, gold,
                                                  message, role):
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"bob likes mary\tmary likes bob\t3.0\ndogs eats food\tthe red car"
                   f"\t{gold}\n", encoding="utf-8")
    train, valid = (bad, workdir / "sts.tsv") if role == "train" else (workdir / "sts.tsv", bad)
    code, out, err = run(capsys, "train", train, "--config", workdir / "desk.cfg",
                         "--valid", valid, "--out", tmp_path / "x.ckpt")
    assert code == 2 and "Traceback" not in err
    assert f"{bad} {message}" in err
    assert "epoch\t" not in out
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_train_nan_exits_3(workdir, capsys, tmp_path):
    code, out, err = run(capsys, "train", workdir / "sts.tsv",
                         "--config", workdir / "desk.cfg",
                         "--out", tmp_path / "x.ckpt",
                         "--encoder", "word_avg", "--comparison", "sent",
                         "--oov_scale", "1e200", "--seed", "99")
    # the toy vocabulary is fully covered, so force an OOV token
    if code == 0:  # no OOV word in the training file: craft one
        bad = tmp_path / "oov.tsv"
        bad.write_text("qqq www\teee rrr\t3.0\n", encoding="utf-8")
        code, out, err = run(capsys, "train", bad,
                             "--config", workdir / "desk.cfg",
                             "--out", tmp_path / "x.ckpt",
                             "--encoder", "word_avg", "--comparison", "sent",
                             "--oov_scale", "1e200")
    assert code == 3
    assert "batch" in err


@pytest.mark.parametrize("bad", ["-0.1", "nan", "inf", "1e308"])
def test_train_rejects_bad_oov_scale(workdir, capsys, tmp_path, bad):
    # an OOV word, so that a bad scale would reach the first OOV draw
    data = tmp_path / "oov.tsv"
    data.write_text("qqq www\teee rrr\t3.0\n", encoding="utf-8")
    code, out, err = run(capsys, "train", data, "--config", workdir / "desk.cfg",
                         "--out", tmp_path / "x.ckpt", "--oov_scale", bad)
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: oov_scale must be a finite number >= 0, got {float(bad)}")
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1e-6"])
def test_train_rejects_bad_epsilon(workdir, capsys, tmp_path, bad):
    # a nan epsilon once trained to an all-nan checkpoint and exited 0
    code, out, err = run(capsys, "train", workdir / "sts.tsv", "--config",
                         workdir / "desk.cfg", "--out", tmp_path / "x.ckpt",
                         "--epsilon", bad, "--epochs", "1")
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: epsilon must be a finite number > 0, got {float(bad)}")
    assert not (tmp_path / "x.ckpt").exists()


@pytest.fixture(scope="module")
def trained_ckpt(workdir, tmp_path_factory):
    """A checkpoint overfit on the toy training set."""
    out = tmp_path_factory.mktemp("ckpt") / "sts.ckpt"
    code = main(["train", str(workdir / "sts.tsv"),
                 "--config", str(workdir / "desk.cfg"),
                 "--out", str(out), "--epochs", "500", "--patience", "600",
                 "--filters", "16", "--lstm_dim", "16"])
    assert code == 0
    return out


def test_eval_overfit_model_on_train_set(workdir, trained_ckpt, capsys):
    code, out, err = run(capsys, "eval", trained_ckpt, workdir / "sts.tsv")
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("pearson_x100")][0]
    value = float(row.split("\t")[1])
    assert value >= 99.0
    assert row.split("\t")[1] == f"{value:.2f}"


def test_eval_task_mismatch_exits_1(workdir, trained_ckpt, capsys):
    code, out, err = run(capsys, "eval", trained_ckpt, workdir / "cls.tsv",
                         "--task", "entailment")
    assert code == 1


def test_eval_overrides_parse_like_config_values(workdir, trained_ckpt, capsys):
    code, out, err = run(capsys, "eval", trained_ckpt, workdir / "sts.tsv",
                         "--lenient", "treu")
    assert code == 1
    assert "error: bad value for lenient" in err and out == ""
    code, out, err = run(capsys, "eval", trained_ckpt, workdir / "sts.tsv",
                         "--lenient", "Yes")
    assert code == 0 and "# lenient = True" in out.splitlines()
    code, out, err = run(capsys, "eval", trained_ckpt, workdir / "sts.tsv",
                         "--epochs", "3")
    assert code == 1 and "only --embeddings/--lenient" in err


def test_score_deterministic_output(workdir, trained_ckpt, capsys):
    code1, out1, _ = run(capsys, "score", trained_ckpt,
                         "Bob likes Mary", "Bob likes Mary")
    code2, out2, _ = run(capsys, "score", trained_ckpt,
                         "Bob likes Mary", "Bob likes Mary")
    assert code1 == code2 == 0
    assert out1 == out2
    score = float(out1.splitlines()[-1])
    assert score >= 4.0  # identical sentences through an overfit model


def test_score_empty_sentence_exits_2(workdir, trained_ckpt, capsys):
    code, out, err = run(capsys, "score", trained_ckpt, "bob", "   ")
    assert code == 2


def test_score_applies_embeddings_override(workdir, trained_ckpt, capsys, tmp_path):
    other = ",".join(str(p) for p in write_lexicon_files(toy_lexicon(seed=8, dims=(5, 3)),
                                                         tmp_path))
    pair = ("bob likes mary", "cats eats food")
    code1, out1, _ = run(capsys, "score", trained_ckpt, *pair)
    code2, out2, _ = run(capsys, "score", trained_ckpt, *pair, "--embeddings", other)
    assert code1 == code2 == 0
    assert f"# embeddings = {other!r}" in out2.splitlines()
    assert out1.splitlines()[-1] != out2.splitlines()[-1]
    # tables of another width exit 1 from both inference commands
    (tmp_path / "narrow").mkdir()
    narrow = ",".join(str(p) for p in write_lexicon_files(toy_lexicon(seed=8, dims=(4, 3)),
                                                          tmp_path / "narrow"))
    for argv in (("score", trained_ckpt, *pair), ("eval", trained_ckpt, workdir / "sts.tsv")):
        code, out, err = run(capsys, *argv, "--embeddings", narrow)
        assert code == 1 and "Traceback" not in err
        assert err.startswith("error: the embedding tables fuse to 7-d vectors; "
                              "the checkpoint was trained on 8-d")


def test_score_rejects_other_overrides(workdir, trained_ckpt, capsys):
    code, out, err = run(capsys, "score", trained_ckpt, "bob", "mary",
                         "--epochs", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: score accepts only --embeddings overrides, got --epochs")


def test_cli_import_loads_no_scipy():
    src = str(Path(pairsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pairsim.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_paraphrase_end_to_end(workdir, capsys, tmp_path):
    rows = ["the cat sat\ta cat was sitting\t1",
            "dogs bark loudly\tbirds fly south\t0",
            "bob likes mary\tbob likes mary a lot\t1",
            "the red car\tcats runs slow\t0",
            "mary runs fast\tmary runs quickly\t1",
            "a blue bird\tthe slow food\t0"]
    data = tmp_path / "para.tsv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    ckpt = tmp_path / "para.ckpt"
    code, out, err = run(capsys, "train", data, "--config", workdir / "desk.cfg",
                         "--out", ckpt, "--task", "paraphrase", "--epochs", "30")
    assert code == 0
    code, out, err = run(capsys, "eval", ckpt, data)
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("accuracy\t") for l in lines)
    assert any(l.startswith("f1\t") for l in lines)
    code, out, err = run(capsys, "score", ckpt, "the cat sat", "a cat was sitting")
    assert code == 0
    assert out.splitlines()[-1] in ("0", "1")


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_train_nonfinite_embedding_exits_2(workdir, capsys, tmp_path, value):
    table = tmp_path / "bad.txt"
    table.write_text(f"bob 0.5 1.0\nmary 0.25 {value}\n", encoding="utf-8")
    code, out, err = run(capsys, "train", workdir / "sts.tsv",
                         "--config", workdir / "desk.cfg", "--out", tmp_path / "x.ckpt",
                         "--embeddings", table)
    assert code == 2
    assert f"{table} line 2" in err


def test_train_non_utf8_inputs_exit_2(workdir, capsys, tmp_path):
    table = tmp_path / "latin1.txt"
    table.write_bytes("bob 0.5 1.0\ncaf\u00e9 0.25 0.75\n".encode("latin-1"))
    code, out, err = run(capsys, "train", workdir / "sts.tsv",
                         "--config", workdir / "desk.cfg", "--out", tmp_path / "x.ckpt",
                         "--embeddings", table)
    assert code == 2
    assert str(table) in err and "position 15" in err
    data = tmp_path / "latin1.tsv"
    data.write_bytes("caf\u00e9 au lait\tbob likes mary\t3.0\n".encode("latin-1"))
    code, out, err = run(capsys, "train", data,
                         "--config", workdir / "desk.cfg", "--out", tmp_path / "x.ckpt")
    assert code == 2
    assert str(data) in err and "position 3" in err


def test_nonfinite_logits_exit_3(workdir, trained_ckpt, capsys, tmp_path):
    from pairsim import training as tr
    params, state, meta = tr.load_checkpoint(trained_ckpt)
    params.w["head.W_l2"][0, 0] = float("nan")
    ckpt = tmp_path / "nan.ckpt"
    tr.save_checkpoint(ckpt, params, state, meta)
    code, out, err = run(capsys, "score", ckpt, "bob likes mary", "bob likes mary")
    assert code == 3
    assert "nan" not in out and "non-finite" in err
    code, out, err = run(capsys, "eval", ckpt, workdir / "sts.tsv")
    assert code == 3
    assert "pearson" not in out


def test_eval_refuses_a_nan_gold(workdir, trained_ckpt, capsys, tmp_path):
    data = tmp_path / "nan.tsv"
    data.write_text("bob likes mary\tmary likes bob\t3.0\ncats runs\tdogs eats\tnan\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "eval", trained_ckpt, data)
    assert code == 2 and f"{data} line 2: non-finite score" in err
    assert "pearson" not in out


@pytest.mark.parametrize("edit, version, message", [
    (lambda m: m["spec"].pop("d_neu"), None, "metadata lacks key 'd_neu'"),
    (lambda m: m["config"].update(weight_decay=0.0), None, "weight_decay"),
    (lambda m: m.update(spec=[1, 2]), None, "malformed metadata"),
    (lambda m: m.update(param_order=m["param_order"][::-1]), None, "parameter 0 is head.b_l2"),
    (None, 1, "format version 1"),
], ids=["spec-key", "config-key", "spec-type", "param-order", "version-1"])
def test_malformed_checkpoint_exits_1(trained_ckpt, capsys, tmp_path, edit, version,
                                      message):
    bad = tmp_path / "bad.ckpt"
    edit_checkpoint_header(trained_ckpt, bad, edit, version)
    code, out, err = run(capsys, "score", bad, "bob likes mary", "bob likes mary")
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out == ""


# ---------------------------------------------------------------------------
# coverage


def test_coverage_report_shape(workdir, capsys, tmp_path):
    data = tmp_path / "cov.tsv"
    data.write_text("red blue\tgreen nope\t1.0\n", encoding="utf-8")
    # tables: a.txt has red/blue/both, b.txt has green/both (from toys)
    emb = ",".join([str(workdir / "toy0.txt"), str(workdir / "toy1.txt")])
    code, out, err = run(capsys, "coverage", data,
                         "--config", workdir / "desk.cfg", "--embeddings", emb)
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 3  # two tables + union
    assert rows[-1].startswith("union\t")
    for row in rows:
        value = float(row.split("\t")[1])
        assert 0.0 <= value <= 100.0


def test_coverage_fixture_75(capsys, tmp_path):
    (tmp_path / "t.txt").write_text("a 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
    (tmp_path / "d.tsv").write_text("a b\tc d\t1.0\n", encoding="utf-8")
    code, out, err = run(capsys, "coverage", tmp_path / "d.tsv",
                         "--embeddings", str(tmp_path / "t.txt"))
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0].split("\t")[1] == "75.00"
    assert rows[1] == "union\t75.00"


# ---------------------------------------------------------------------------
# identical echoes -> identical outputs


def test_identical_echo_identical_output(workdir, capsys, tmp_path):
    args = ["train", workdir / "sts.tsv", "--config", workdir / "desk.cfg",
            "--out", tmp_path / "a.ckpt", "--epochs", "2"]
    code1, out1, _ = run(capsys, *args)
    args[5] = tmp_path / "b.ckpt"
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

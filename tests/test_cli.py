import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairsim
from pairsim import evaldata as ed
from pairsim import training as tr
from pairsim.cli import main
from pairsim.config import RunConfig, fingerprint, load_config
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


def test_a_config_that_is_not_utf8_exits_1_naming_the_file_and_byte(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"task = sts\n# caf\xe9\n")
    code, out, err = run(capsys, "gradcheck", "--config", cfg)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == (f"error: config {cfg} is not UTF-8 at byte offset 16: "
                   "invalid continuation byte\n")


def test_a_byte_order_mark_does_not_start_the_first_key(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 5\ntask = sts\n")
    assert load_config(cfg).seed == 5
    # byte offsets still count the mark
    cfg.write_bytes(b"\xef\xbb\xbfseed = 5\n# caf\xe9\n")
    code, out, err = run(capsys, "gradcheck", "--config", cfg)
    assert code == 1 and out == ""
    assert err == (f"error: config {cfg} is not UTF-8 at byte offset 17: "
                   "invalid continuation byte\n")


def test_a_line_separator_in_a_config_value_does_not_end_its_line(tmp_path):
    cfg = tmp_path / "sep.cfg"
    cfg.write_text("embeddings = a.txt\u2028seed = 14\nnot a setting\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"sep.cfg line 2: expected key = value"):
        load_config(cfg)
    cfg.write_text("embeddings = a.txt\u2028seed = 14\n", encoding="utf-8")
    loaded = load_config(cfg)
    assert (loaded.embeddings, loaded.seed) == ("a.txt\u2028seed = 14", 13)


def test_a_config_that_does_not_validate_names_the_line_it_stops_validating_at(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # line 2 alone does not validate (comparison is still multi), line 3 mends it
    head = "# tiny\nencoder = word_avg\ncomparison = sent\n"
    cfg.write_text(head + "raw_min = 9\nraw_max = 5\nepochs = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad.cfg line 4: raw score range is empty"):
        load_config(cfg)
    cfg.write_text(head + "encoder = wor_avg\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad.cfg line 4: unknown encoder 'wor_avg'"):
        load_config(cfg)
    # a file that validates without the overrides is not blamed for them
    cfg.write_text(head, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^dropout must be in \[0, 1\), got 2.0$"):
        load_config(cfg, {"dropout": "2"})


@pytest.mark.parametrize("value", ["", " , ", "a.txt,b\0.txt"])
def test_an_embeddings_value_must_name_files_without_nul_bytes(tmp_path, value):
    cfg = tmp_path / "tables.cfg"
    cfg.write_text(f"seed = 1\nembeddings = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="tables.cfg line 2: bad value for embeddings"):
        load_config(cfg)


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


@pytest.mark.parametrize("source", ["--config", "PAIRSIM_CONFIG", "none", "checkpoint"])
def test_no_embedding_tables_names_where_the_configuration_came_from(
        workdir, capsys, tmp_path, monkeypatch, source):
    cfg = tmp_path / "noemb.cfg"
    cfg.write_text("task = sts\nfilters = 6\nlstm_dim = 6\n", encoding="utf-8")
    monkeypatch.delenv("PAIRSIM_CONFIG", raising=False)
    argv = ["coverage", workdir / "sts.tsv"]
    where = {"--config": f"in config {cfg}",
             "PAIRSIM_CONFIG": f"in config {cfg}, named by $PAIRSIM_CONFIG",
             "none": "and no config file"}.get(source)
    if source == "--config":
        argv += ["--config", cfg]
    elif source == "PAIRSIM_CONFIG":
        monkeypatch.setenv("PAIRSIM_CONFIG", str(cfg))
    elif source == "checkpoint":
        ckpt = tmp_path / "noemb.ckpt"
        edit_checkpoint_header(FIXTURES / "sts.ckpt", ckpt,
                               lambda m: m["config"].update(embeddings=""))
        argv, where = ["score", ckpt, "a b", "c d"], f"in checkpoint {ckpt}"
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == (f"error: no embedding tables configured {where}; set 'embeddings' "
                   f"to a comma-separated list of word-vector files\n")


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


def test_train_reports_nan_for_an_undefined_validation_pearson(workdir, capsys, tmp_path):
    # check_valid accepts two golds, but one pair twice gets one
    # prediction twice, on which Pearson is undefined
    valid = tmp_path / "valid.tsv"
    valid.write_text("bob likes mary\tmary likes bob\t1.0\n"
                     "bob likes mary\tmary likes bob\t4.0\n", encoding="utf-8")
    code, out, err = run(capsys, "train", workdir / "sts.tsv", "--config", workdir / "desk.cfg",
                         "--valid", valid, "--out", tmp_path / "x.ckpt", "--epochs", "2")
    assert code == 0, err
    rows = [line.split("\t") for line in out.splitlines()[out.splitlines().index(
        "epoch\ttrain_loss\tvalid_metric") + 1:]]
    assert [(epoch, metric) for epoch, _, metric in rows] == [("1", "nan"), ("2", "nan")]
    assert "(best epoch 1)" in err and (tmp_path / "x.ckpt").exists()


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


def test_train_refuses_tables_that_share_a_name(workdir, capsys, tmp_path):
    # two files named toy0.txt: their OOV vectors would be drawn alike
    first = sorted(workdir.glob("toy*.txt"))[0]
    (tmp_path / "copy").mkdir()
    second = tmp_path / "copy" / first.name
    second.write_bytes(first.read_bytes())
    code, out, err = run(capsys, "train", workdir / "sts.tsv", "--config",
                         workdir / "desk.cfg", "--out", tmp_path / "x.ckpt",
                         "--embeddings", f"{first},{second}")
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: embedding tables {first} and {second} share the name "
                          f"{first.stem!r}")
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


@pytest.mark.parametrize("key, value, message", [
    ("task", "rating", "unknown task 'rating'; choose from ('sts', "),
    ("encoder", "cnn", "unknown encoder 'cnn'; choose from ('word_avg', "),
    ("comparison", "word", "unknown comparison mode 'word'; choose from ('multi', "),
    ("filters", "0", "filters must be a positive integer, got 0"),
    ("lstm_dim", "0", "lstm_dim must be a positive integer, got 0"),
    ("max_len", "-1", "max_len must be a positive integer, got -1"),
    ("d_neu", "0", "d_neu must be a positive integer, got 0"),
    ("score_k", "1", "score_k must be >= 2, got 1"),
    ("raw_min", "5", "raw score range is empty: [5.0, 5.0]"),
    ("encoder", "word_avg", "multi-level comparison needs per-word features; "
                            "encoder 'word_avg' only supports comparison=sent"),
], ids=["task", "encoder", "comparison", "filters", "lstm_dim", "max_len", "d_neu",
        "score_k", "raw_range", "multi-needs-word-features"])
def test_each_architecture_error_exits_1_before_any_file_is_read(
        capsys, tmp_path, monkeypatch, key, value, message):
    # none of the files named exists, so an exit of 2 would mean one was read
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PAIRSIM_CONFIG", raising=False)
    code, out, err = run(capsys, "train", "absent.tsv", "--out", "x.ckpt",
                         "--embeddings", "absent.txt", f"--{key}", value)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")
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


def test_cli_import_reads_no_memory_map_and_opens_no_library():
    """Importing ``pairsim.cli`` neither reads ``/proc/self/maps`` nor
    opens a library through ctypes (ctypes' own handle on the program,
    which numpy's import opens, has no name); the BLAS lookup waits for
    the first pin, where the hook sees it."""
    src = str(Path(pairsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    prog = ("import sys\n"
            "seen = []\n"
            "sys.addaudithook(lambda event, args: seen.append(str(args[0])) if\n"
            "    event == 'ctypes.dlopen' and args[0] is not None or\n"
            "    event == 'open' and str(args[0]).endswith('/maps') else None)\n"
            "import pairsim.cli\n"
            "print(seen)\n"
            "with pairsim.threads.one_blas_thread():\n"
            "    print(any(name.endswith('/maps') for name in seen))\n")
    proc = subprocess.run([sys.executable, "-c", prog], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


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
    (lambda m: m["spec"].update(task="rating"), None, "unknown task 'rating'"),
    (lambda m: m.update(param_order=m["param_order"][::-1]), None, "parameter 0 is head.b_l2"),
    (None, 1, "format version 1"),
], ids=["spec-key", "config-key", "spec-type", "spec-task", "param-order", "version-1"])
def test_malformed_checkpoint_exits_1(trained_ckpt, capsys, tmp_path, edit, version,
                                      message):
    bad = tmp_path / "bad.ckpt"
    edit_checkpoint_header(trained_ckpt, bad, edit, version)
    code, out, err = run(capsys, "score", bad, "bob likes mary", "bob likes mary")
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out == ""


FIXTURES = Path(__file__).parent / "data"


@pytest.mark.parametrize("task", ["sts", "entailment", "paraphrase"])
def test_committed_checkpoints_score(workdir, capsys, task):
    # format 2 files, without a section table: they load unchecked, and
    # score as they did before format 3
    emb = ",".join(str(workdir / f"toy{i}.txt") for i in range(2))
    code, out, err = run(capsys, "score", FIXTURES / f"{task}.ckpt", "bob likes mary",
                         "mary likes bob", "--embeddings", emb)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == {"sts": "2.6693", "entailment": "contradiction",
                                    "paraphrase": "0"}[task]


def test_a_config_block_that_describes_another_model_exits_1(workdir, capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    edit_checkpoint_header(FIXTURES / "sts.ckpt", bad,
                           lambda m: m["config"].update(encoder="maxcnn_only", filters=99))
    emb = ",".join(str(workdir / f"toy{i}.txt") for i in range(2))
    for argv in (["score", bad, "bob likes mary", "mary likes bob"],
                 ["eval", bad, workdir / "sts.tsv"]):
        code, out, err = run(capsys, *argv, "--embeddings", emb)
        assert code == 1 and out == ""
        assert err == (f"error: {bad}: the configuration block gives encoder = "
                       f"'maxcnn_only', the model spec 'maxlstm'\n")


def test_a_config_block_that_fails_its_fingerprint_exits_1(workdir, capsys, tmp_path):
    # a container header has no checksum: in a format 3 re-save of the
    # fixture, oov_scale 0.1 -> 0.7 describes the same model, scores a pair
    # with an OOV word differently, and is caught by the stored fingerprint
    params, state, meta = tr.load_checkpoint(FIXTURES / "sts.ckpt")
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    tr.save_checkpoint(good, params, state, {key: meta[key] for key in (
        "config", "config_fingerprint", "epoch", "embedding_hash")})
    raw = good.read_bytes()
    assert raw.count(b'"oov_scale":0.1,') == 1
    bad.write_bytes(raw.replace(b'"oov_scale":0.1,', b'"oov_scale":0.7,'))
    edited = fingerprint(RunConfig(**dict(meta["config"], oov_scale=0.7)))
    emb = ",".join(str(workdir / f"toy{i}.txt") for i in range(2))
    code, out, err = run(capsys, "score", good, "bob likes zebra", "mary likes bob",
                         "--embeddings", emb)
    assert code == 0 and err == ""
    for argv in (["score", bad, "bob likes zebra", "mary likes bob"],
                 ["eval", bad, workdir / "sts.tsv"]):
        code, out, err = run(capsys, *argv, "--embeddings", emb)
        assert code == 1 and out == ""
        assert err == (f"error: {bad}: the configuration block's fingerprint is {edited}, "
                       f"the checkpoint stores {meta['config_fingerprint']} "
                       f"(the header is damaged)\n")


@pytest.mark.parametrize("out", ["missing/model.ckpt", "."], ids=["missing-dir", "a-dir"])
def test_train_refuses_an_out_path_it_could_not_write_before_epoch_1(workdir, capsys,
                                                                     tmp_path, out):
    code, stdout, err = run(capsys, "train", workdir / "sts.tsv",
                            "--config", workdir / "desk.cfg", "--out", tmp_path / out)
    assert code == 1 and stdout == ""
    assert err.startswith("error: --out ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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

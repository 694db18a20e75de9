"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Toy dimensions throughout: two embedding tables of
dims 5 and 3 (total 8), 16 filters, 16 LSTM units, comparison length 4,
neural-difference width 8.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from pairsim import evaldata as ed
from pairsim import model as md
from pairsim import numcore as nc
from pairsim import objectives as obj
from pairsim import training as tr
from pairsim.cli import main
from pairsim.config import RunConfig
from pairsim.encoder import encode
from pairsim.rng import stream

from oracles import gate_dicts, scalar_adadelta_steps, scalar_lstm_last
from toys import (cls3_dataset, encoder_weights, order_probe_dataset,
                  sts_overfit_dataset, toy_lexicon, write_lexicon_files)

TOY = dict(H=16, l=16, L=4, d_neu=8)
SEED = 13


def check(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def lex():
    return toy_lexicon(seed=7, dims=(5, 3))


@pytest.fixture(scope="module")
def lexdir(tmp_path_factory, lex):
    root = tmp_path_factory.mktemp("acceptance")
    paths = write_lexicon_files(lex, root)
    root.joinpath("emb_paths.txt").write_text(",".join(str(p) for p in paths))
    return root


def sts_spec():
    return md.ModelSpec(task="sts", encoder="maxlstm", comparison="multi",
                        total_dim=8, C=6, dropout_p=0.0,
                        score=obj.ScoreSpec(6, 0.0, 5.0), **TOY)


@pytest.fixture(scope="module")
def overfit_runs(lex):
    """Criterion 6's training run, executed twice for criterion 9."""
    ds = sts_overfit_dataset()
    cfg = RunConfig(batch_size=30, epochs=500, rho=0.95, epsilon=1e-6, seed=SEED)
    out = []
    for _ in range(2):
        t0 = time.perf_counter()
        params = md.build_model(sts_spec(), seed=SEED)
        result = tr.train(params, lex, ds, cfg)
        out.append((result, time.perf_counter() - t0))
    return ds, out


# ---------------------------------------------------------------------------


def test_01_gradient_oracle(tmp_path):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("filters = 16\nlstm_dim = 16\nmax_len = 4\nd_neu = 8\n"
                   "dropout = 0.0\nscore_k = 5\nseed = 13\n", encoding="utf-8")
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = main(["gradcheck", "--config", str(cfg)])
    dt = time.perf_counter() - t0
    rows = [l.split("\t") for l in buf.getvalue().splitlines()
            if l and not l.startswith("#")]
    groups = [r for r in rows[1:] if r[1] != "ALL"]
    worst = max(float(r[2]) for r in groups)
    tasks = {r[0] for r in groups}
    check(1, "gradient-oracle",
          code == 0 and worst < 1e-4 and tasks == {"sts", "entailment"}
          and dt < 60.0,
          f"(max_rel={worst:.2e}, groups={len(groups)}, {dt:.1f}s)")


def test_02_sparse_target_invariants():
    worst = 0.0
    ok = True
    for K in (5, 6):
        rng = stream(40, "acc", str(K))
        r = np.arange(1, K + 1)
        for _ in range(1000):
            y = float(rng.uniform(1.0, K))
            p = obj.sparse_target(y, K)
            nz = np.nonzero(p)[0]
            ok &= bool(np.all(p >= 0))
            ok &= abs(float(p.sum()) - 1.0) < 1e-12
            ok &= len(nz) <= 2 and (len(nz) < 2 or nz[1] == nz[0] + 1)
            worst = max(worst, abs(float(r @ p) - y))
    check(2, "sparse-target-invariants", ok and worst < 1e-12,
          f"(max |r.p - y| = {worst:.2e})")


def test_03_kl_properties():
    rng = stream(41, "acc")
    neg = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        neg = min(neg, float(obj.kl_loss(p, rng.normal(size=k))))
    rng2 = stream(42, "acc")
    worst_zero = 0.0
    for _ in range(100):
        k = int(rng2.integers(2, 8))
        p = rng2.dirichlet(np.ones(k))
        worst_zero = max(worst_zero, float(obj.kl_loss(p, np.log(p))))
    check(3, "kl-properties", neg >= -1e-15 and worst_zero < 1e-12,
          f"(min={neg:.1e}, kl at p=phat {worst_zero:.1e})")


def test_04_lstm_oracle_equivalence(lex):
    w = encoder_weights("maxlstm", lex.total_dim, 2, 2, seed=5)
    out = encode("maxlstm", w, lex, [["bob", "likes", "mary"]])
    W, U, b = gate_dicts(w["encoder.W_lstm"], w["encoder.U_lstm"], w["encoder.b_lstm"])
    want = scalar_lstm_last(np.asarray(out.words).tolist(), W, U, b)
    err = float(np.max(np.abs(np.asarray(out.e_lstm[0]) - np.asarray(want))))
    check(4, "lstm-oracle-equivalence", err < 1e-10, f"(max err {err:.2e})")


def test_05_order_properties(lex):
    w = encoder_weights("maxlstm", lex.total_dim, TOY["H"], TOY["l"], seed=33)
    tokens = ["bob", "likes", "mary"]
    base = encode("maxlstm", w, lex, [tokens])
    rng = stream(3, "perm")
    invariant = True
    for _ in range(100):
        order = rng.permutation(len(tokens))
        shuffled = [tokens[i] for i in order]
        invariant &= bool(np.array_equal(
            encode("maxlstm", w, lex, [shuffled]).e_max, base.e_max))
    other = encode("maxlstm", w, lex, [["mary", "likes", "bob"]])
    gap = float(np.max(np.abs(np.asarray(base.e_s) - np.asarray(other.e_s))))
    check(5, "order-properties", invariant and gap > 1e-6,
          f"(e_max invariant, L_inf(e_s diff) = {gap:.2e})")


def test_06_overfit_sts(lex, overfit_runs):
    ds, runs = overfit_runs
    result, dt = runs[0]
    r = md.dataset_metric(result.params, lex, ds, 30)
    check(6, "overfit-sts", r >= 0.99 and dt < 120.0,
          f"(train pearson {r:.4f}, {dt:.1f}s, {len(result.history)} epochs)")


def test_07_overfit_classification(lex):
    ds = cls3_dataset()
    spec = md.ModelSpec(task="entailment", encoder="maxlstm", comparison="multi",
                        total_dim=8, C=3, dropout_p=0.0,
                        label_names=ed.LABEL_NAMES["entailment"], **TOY)
    params = md.build_model(spec, seed=SEED)
    cfg = RunConfig(batch_size=30, epochs=500, seed=SEED, patience=10 ** 9)
    result = tr.train(params, lex, ds, cfg, valid=ds)
    best = max(rec.valid_metric for rec in result.history)
    first = next((rec.epoch for rec in result.history if rec.valid_metric == 1.0),
                 None)
    check(7, "overfit-classification", best == 1.0,
          f"(100% accuracy at epoch {first})")


def test_08_embedding_immutability(lex, overfit_runs):
    # hash taken before any training at module setup time
    fresh = toy_lexicon(seed=7, dims=(5, 3)).content_hash()
    check(8, "embedding-immutability", lex.content_hash() == fresh,
          "(byte hash unchanged by training)")


def test_09_determinism(tmp_path, overfit_runs):
    ds, runs = overfit_runs
    files = []
    for i, (result, _) in enumerate(runs):
        path = tmp_path / f"run{i}.ckpt"
        tr.save_checkpoint(path, result.params, result.state)
        files.append(path.read_bytes())
    check(9, "determinism", files[0] == files[1],
          f"(checkpoints byte-identical, {len(files[0])} bytes)")


def test_10_adadelta_first_step():
    delta = scalar_adadelta_steps([1.0], rho=0.95, eps=1e-6)[0]
    # and through the real optimizer on a 1-entry gradient
    spec = md.ModelSpec(task="sts", encoder="word_avg", comparison="sent",
                        total_dim=8, C=5, dropout_p=0.0,
                        score=obj.ScoreSpec(5, 0, 5), **TOY)
    params = md.build_model(spec, seed=1)
    state = tr.AdaDeltaState.zeros(params, rho=0.95, epsilon=1e-6)
    state.grad["head.b_l2"][0] = 1.0
    before = params.w["head.b_l2"][0]
    tr.adadelta_step(state, params)
    got = params.w["head.b_l2"][0] - before
    ok = abs(got - (-4.4721e-3)) < 1e-7 and abs(delta - got) < 1e-15
    check(10, "adadelta-first-step", ok, f"(delta = {got:.6e})")


def test_11_metrics(tmp_path):
    r = ed.pearson([1, 2, 3], [1, 3, 2])
    m = ed.classification_metrics([1, 1, 0, 0], [1, 0, 0, 1])
    (tmp_path / "t.txt").write_text("a 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
    (tmp_path / "d.tsv").write_text("a b\tc d\t1.0\n", encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["coverage", str(tmp_path / "d.tsv"),
                     "--embeddings", str(tmp_path / "t.txt")])
    printed = [l for l in buf.getvalue().splitlines()
               if l and not l.startswith("#")]
    ok = (abs(r - 0.5) < 1e-12 and m.accuracy == 0.5 and m.f1 == 0.5
          and code == 0 and printed[0].endswith("75.00"))
    check(11, "metrics", ok,
          f"(pearson {r}, f1 {m.f1}, coverage row {printed[0]!r})")


def test_12_ablation_harness(lex, lexdir, tmp_path):
    ds_path = tmp_path / "order.tsv"
    ds_path.write_text(ed.serialize_pairs(order_probe_dataset()),
                       encoding="utf-8")
    cfg = tmp_path / "bench.cfg"
    emb = lexdir.joinpath("emb_paths.txt").read_text()
    cfg.write_text(f"embeddings = {emb}\n"
                   "filters = 16\nlstm_dim = 16\nmax_len = 4\nd_neu = 8\n"
                   "dropout = 0.0\nscore_k = 6\nseed = 13\n"
                   "batch_size = 30\nepochs = 100\n", encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["bench", str(ds_path), "--config", str(cfg)])
    rows = [l.split("\t") for l in buf.getvalue().splitlines()
            if l and not l.startswith("#")]
    body = rows[1:]
    losses = {r[0]: float(r[1]) for r in body}
    expected = {"S-word_avg", "S-proj_avg", "S-lstm_only", "S-maxcnn_only",
                "S-maxlstm", "M-maxcnn_only", "M-maxlstm"}
    well_formed = (code == 0 and rows[0] == ["variant", "final_train_loss",
                                             "train_metric"]
                   and set(losses) == expected
                   and all(len(r) == 3 for r in body))
    ordered = losses.get("S-maxlstm", 1e9) <= losses.get("S-maxcnn_only", 0.0)
    check(12, "ablation-harness", well_formed and ordered,
          f"(S-maxlstm {losses.get('S-maxlstm'):.4f} <= "
          f"S-maxcnn_only {losses.get('S-maxcnn_only'):.4f}, "
          f"{len(body)} variants)")

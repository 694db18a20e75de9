#!/usr/bin/env python3
"""pairsim benchmark: desk, paper and score-cold workloads.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

The benchmark writes its inputs, generated from ``--seed``, under
``.perfbench/`` in the checkout and drives the unmodified ``pairsim``
package from ``src/``.  The client is one closed loop: the next
operation starts when the last one returns.  It checks every output,
prints a report, saves it under ``.perfbench/results/`` and prints one
JSON object as its last line.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs a fixed set of operations untraced and then
traced, and reports the per-layer metrics.  ``--workload all`` runs the
three workloads one after another, each in its own process.
perfbench/README.md describes the workloads and metrics.
"""

import os

# Pinned before numpy loads; the score processes inherit them.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_MIN_REPS = 3     # setup_s is the median of at least this many setups,
SETUP_MIN_S = 1.0      # and of as many more as fit in this many seconds
SCORE_PAIRS = 3        # distinct held-out pairs the score phase cycles over
CANARY_SEED = 7
CANARY_STEPS = 3
GOLDEN_RTOL = 1e-8     # canary loss and Pearson; score stdout must match exactly
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from tracer import Tracer, merge_stats  # noqa: E402


@dataclass(frozen=True)
class Workload:
    data: gen.DataSpec
    H: int
    l: int
    L: int
    d_neu: int
    dropout: float
    score_k: int
    batch: int
    from_checkpoint: bool   # setup loads the checkpoint instead of building a model
    warmup_steps: int       # train steps before anything is timed
    shares: tuple           # shares of the window for train, eval, score
    trace_ops: tuple        # train steps, eval pairs, score calls of a traced pass


_PAPER_DATA = gen.DataSpec(vocab=3000, table_dims=(300, 200, 100), oov_share=0.1,
                           digits=6, n_train=240, n_heldout=90, len_lo=4, len_hi=24,
                           tail_share=0.1, tail_lo=33, tail_hi=48, block=30)

# Why each workload exists: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "desk": Workload(
        gen.DataSpec(vocab=800, table_dims=(24, 16), oov_share=0.1, digits=5,
                             n_train=300, n_heldout=90, len_lo=3, len_hi=12, block=30),
        H=16, l=16, L=4, d_neu=8, dropout=0.0, score_k=5, batch=30,
        from_checkpoint=False, warmup_steps=10, shares=(0.5, 0.25, 0.25),
        trace_ops=(20, 200, 2)),
    "paper": Workload(
        _PAPER_DATA, H=800, l=800, L=32, d_neu=128, dropout=0.5, score_k=6,
        batch=30, from_checkpoint=False, warmup_steps=1, shares=(0.45, 0.2, 0.35),
        trace_ops=(1, 10, 1)),
    "score-cold": Workload(
        dataclasses.replace(_PAPER_DATA, vocab=22222, n_train=60, n_heldout=60, block=2,
                            table_dims=(200, 150, 100, 100, 50)),
        H=800, l=800, L=32, d_neu=128, dropout=0.5, score_k=6, batch=2,
        from_checkpoint=True, warmup_steps=1, shares=(0.2, 0.2, 0.6),
        trace_ops=(2, 5, 1)),
}


def small(wl: Workload) -> Workload:
    """The same workload structure at toy sizes (canary and self-check)."""
    batch = min(wl.batch, 10)
    data = dataclasses.replace(
        wl.data, vocab=300, n_train=60, n_heldout=30, block=batch,
        table_dims=tuple(max(4, d // 25) for d in wl.data.table_dims))
    H = min(wl.H, 24)
    return dataclasses.replace(wl, data=data, H=H, l=H, d_neu=min(wl.d_neu, 8),
                               batch=batch, warmup_steps=min(wl.warmup_steps, 2),
                               trace_ops=(2, 10, 1))


def _require_source():
    if not (SRC / "pairsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pairsim package under {SRC}; "
                 "run from the root of a pairsim checkout")


def _import_pairsim():
    global emb, ev, md, prng, tr, RunConfig, echo_lines, fingerprint, NumericError, DataError
    sys.path.insert(0, str(SRC))
    from pairsim import embeddings as emb
    from pairsim import evaldata as ev
    from pairsim import model as md
    from pairsim import rng as prng
    from pairsim import training as tr
    from pairsim.config import RunConfig, echo_lines, fingerprint
    from pairsim.errors import DataError, NumericError


# ---------------------------------------------------------------------------
# one workload in one run


@dataclass
class Model:
    lex: object
    params: object
    state: object


class Session:
    """Inputs, checkpoint and checked operations of one workload in one run.

    pairsim functions are reached through their modules at call time,
    so the tracer's wrappers see these calls.
    """

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.dir = wl, seed, workdir
        self.inputs = gen.generate(wl.data, seed, workdir)
        self.ckpt = workdir / "model.ckpt"
        self.cfg = RunConfig(
            embeddings=",".join(str(p) for p in self.inputs.tables), seed=seed,
            filters=wl.H, lstm_dim=wl.l, max_len=wl.L, d_neu=wl.d_neu,
            dropout=wl.dropout, score_k=wl.score_k, batch_size=wl.batch,
            epochs=1).validate()
        self.dropout_rng = prng.stream(seed, "dropout")
        self.setup_s = []
        self.attempted = self.failed = 0
        self.failures = []
        self.preds = {}               # id(params) -> {pair index: first prediction}
        self.last_loss = math.nan
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def check(self, ok: bool, what: str):
        """Count one checked output; report the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
                print(f"# check failed: {what}", file=sys.stderr)

    # -- setup -------------------------------------------------------------

    def _lexicon(self):
        return emb.load_lexicon(self.cfg.embedding_paths(),
                                oov_scale=self.cfg.oov_scale, seed=self.cfg.seed)

    def _pairs(self):
        self.train_set = ev.load_pairs(self.inputs.train, "sts").examples
        self.heldout = ev.load_pairs(self.inputs.heldout, "sts").examples
        b = self.wl.batch
        self.batches = [self.train_set[i:i + b] for i in range(0, len(self.train_set), b)]

    def _fresh(self, lex) -> Model:
        total_dim = sum(self.wl.data.table_dims)
        params = md.build_model(md.spec_from_config(self.cfg, total_dim), self.cfg.seed)
        return Model(lex, params, tr.AdaDeltaState.zeros(params, self.cfg.rho,
                                                         self.cfg.epsilon))

    def setup(self) -> Model:
        """What a user's command pays before its first step, timed as setup_s."""
        t0 = time.perf_counter()
        lex = self._lexicon()
        if self.wl.from_checkpoint:
            params, state, _ = tr.load_checkpoint(self.ckpt)
            m = Model(lex, params, state)
        else:
            self._pairs()
            m = self._fresh(lex)
        self.setup_s.append(time.perf_counter() - t0)
        return m

    def prepare(self, reps: int, min_s: float = 0.0) -> Model:
        """Set up `reps` times or for `min_s` seconds, warm up, write the checkpoint.

        Returns the model the timed window drives.  The checkpoint holds
        the warmed-up parameters with their AdaDelta accumulators; the
        eval and score phases use it, so their outputs do not depend on
        how many steps the window's train phase ran.
        """
        if self.wl.from_checkpoint:
            # setup reads a checkpoint: write an untrained one of the same size
            self._pairs()
            self._save(self._fresh(None))
        while len(self.setup_s) < reps or sum(self.setup_s) < min_s:
            m = self.setup()
        for k in range(self.wl.warmup_steps):
            self.train_op(m, k)
        self._save(m)
        self.eval_params = tr.load_checkpoint(self.ckpt)[0]
        oov = [ex for ex in self.heldout
               if self.inputs.oov.intersection(ex.tokens1 + ex.tokens2)]
        self.score_pairs = (oov + self.heldout)[:SCORE_PAIRS]
        echo = "".join(line + "\n" for line in echo_lines(self.cfg))
        self.expected = [echo + "%.4f\n" % md.predict_example(self.eval_params, m.lex,
                                                             ex.tokens1, ex.tokens2)
                         for ex in self.score_pairs]
        return m

    def _save(self, m: Model):
        meta = {"config": dataclasses.asdict(self.cfg),
                "config_fingerprint": fingerprint(self.cfg),
                "epoch": 1, "rng": {"dropout": self.dropout_rng.bit_generator.state},
                "embedding_hash": m.lex.content_hash() if m.lex else None}
        tr.save_checkpoint(self.ckpt, m.params, m.state, meta)

    # -- operations --------------------------------------------------------

    def train_op(self, m: Model, k: int):
        """One AdaDelta step on batch k (cycling); returns (pairs, seconds)."""
        batch = self.batches[k % len(self.batches)]
        t0 = time.perf_counter()
        try:
            loss = tr.train_step(m.params, m.state, m.lex, batch, self.dropout_rng)
        except NumericError:
            loss = math.nan
        dt = time.perf_counter() - t0
        self.check(math.isfinite(loss), f"train step {k}: loss {loss}")
        self.last_loss = loss
        return len(batch), dt

    def eval_op(self, params, lex, i: int) -> float:
        """Predict held-out pair i (cycling); returns the seconds it took."""
        idx = i % len(self.heldout)
        ex = self.heldout[idx]
        t0 = time.perf_counter()
        pred = md.predict_example(params, lex, ex.tokens1, ex.tokens2)
        dt = time.perf_counter() - t0
        first = self.preds.setdefault(id(params), {}).setdefault(idx, pred)
        self.check(math.isfinite(pred) and self.cfg.raw_min <= pred <= self.cfg.raw_max
                   and pred == first, f"eval pair {idx}: {pred!r} (first {first!r})")
        return dt

    def eval_block(self, lex, k: int):
        """Block k (cycling) of held-out pairs, one batch long, with the
        checkpoint's parameters; returns (pairs, seconds)."""
        b = self.wl.batch
        lo = k * b % len(self.heldout)
        return b, sum(self.eval_op(self.eval_params, lex, i) for i in range(lo, lo + b))

    def score_op(self, j: int, trace_out: Path = None) -> float:
        """One fresh `pairsim score` process; returns its wall seconds."""
        ex = self.score_pairs[j % len(self.score_pairs)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "pairsim.cli"]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out), f"score:{j}"]
        cmd += ["score", str(self.ckpt), " ".join(ex.tokens1), " ".join(ex.tokens2)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, "", "timed out"
        dt = time.perf_counter() - t0
        self.check(code == 0 and out == self.expected[j % len(self.expected)],
                   f"score call {j}: exit {code}, stdout tail {out[-40:]!r}, "
                   f"stderr tail {err[-200:]!r}")
        return dt

    def pearson(self, params) -> float:
        """Held-out Pearson over the distinct pairs predicted (nan if < 3)."""
        preds = self.preds.get(id(params), {})
        if len(preds) < 3:
            return math.nan
        idx = sorted(preds)
        try:
            r = ev.pearson([preds[i] for i in idx],
                           [self.heldout[i].gold_score for i in idx])
        except DataError:
            r = math.nan
        self.check(math.isfinite(r), f"held-out Pearson {r}")
        return r

    # -- runs --------------------------------------------------------------

    def window(self, m: Model, seconds: float):
        """The timed closed loop; returns (metrics, checks).

        Train steps, eval blocks and score calls interleave: the next
        operation goes to the phase furthest below its share of the time
        spent so far.  Each phase thus samples the whole window, and a
        slow spell of a shared machine touches all phases alike.  Every
        metric is a median over operations of equal work.
        """
        w = self.wl.warmup_steps
        ops = (lambda k: self.train_op(m, w + k)[1],
               lambda k: self.eval_block(m.lex, k)[1],
               self.score_op)
        samples = ([], [], [])
        spent = [0.0, 0.0, 0.0]
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and all(samples):
                break
            p = max(range(3), key=lambda i: self.wl.shares[i] * elapsed - spent[i])
            t0 = time.perf_counter()
            samples[p].append(ops[p](len(samples[p])))
            spent[p] += time.perf_counter() - t0
        train, evals, scores = samples
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        b = self.wl.batch
        return {
            "setup_s": (statistics.median(self.setup_s), len(self.setup_s), "setups"),
            "train_pairs_per_s": (b / statistics.median(train), len(train), "steps"),
            "eval_pairs_per_s": (b / statistics.median(evals), len(evals), "blocks"),
            "score_ms_p50": (1000.0 * statistics.median(scores), len(scores), "calls"),
            "peak_rss_mb": (max(own, children) / 1024.0, 1 + len(scores), "processes"),
        }, {"final_train_loss": self.last_loss,
            "heldout_pearson": self.pearson(self.eval_params),
            "train_step_s": train, "eval_block_s": evals, "score_s": scores}

    def fixed_pass(self, tracer=None, trace_dir=None):
        """Setup plus a fixed number of operations; returns (wall s, model)."""
        n_train, n_eval, n_score = self.wl.trace_ops

        def op(name):
            if tracer is not None:
                tracer.op = name

        t0 = time.perf_counter()
        op("setup")
        m = self.setup()
        for k in range(n_train):
            op(f"train:{k}")
            self.train_op(m, k)
        for i in range(n_eval):
            op(f"eval:{i}")
            self.eval_op(m.params, m.lex, i)
        op("")
        for j in range(n_score):
            self.score_op(j, None if trace_dir is None else trace_dir / f"score{j}.json")
        return time.perf_counter() - t0, m


# ---------------------------------------------------------------------------
# canary: a fixed small input whose outputs are recorded in golden.json


def canary(name: str, workdir: Path, record: bool) -> tuple[int, int]:
    """Run the small canary of a workload and compare it with golden.json.

    Returns (attempted, failed) operations.  With `record`, stores the
    outputs as the new golden values instead of checking them.
    """
    s = Session(small(WORKLOADS[name]), CANARY_SEED, workdir)
    m = s.prepare(reps=1)
    for k in range(CANARY_STEPS):
        s.train_op(m, s.wl.warmup_steps + k)
    for i in range(len(s.heldout)):
        s.eval_op(s.eval_params, m.lex, i)
    got = {"train_loss": s.last_loss, "pearson": s.pearson(s.eval_params)}
    s.score_op(0)
    got["score"] = s.expected[0].splitlines()[-1]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    if record:
        golden[name] = got
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return s.attempted, s.failed
    want = golden.get(name, {})
    for key in ("train_loss", "pearson"):
        ok = key in want and math.isclose(got[key], want[key], rel_tol=GOLDEN_RTOL)
        s.check(ok, f"canary {key} {got[key]!r} != golden {want.get(key)!r}")
    s.check(got["score"] == want.get("score"),
            f"canary score {got['score']!r} != golden {want.get('score')!r}")
    return s.attempted, s.failed


# ---------------------------------------------------------------------------
# traced run


def layer_metrics(st: dict, train_pairs: int, wall_u: float, wall_t: float,
                  retained: int, import_s: list) -> dict:
    """Per-layer values by name: `<layer>.<stat>` from the spans, plus counts."""
    values = {f"{layer}.{stat}": v for layer, stats in st["layers"].items()
              for stat, v in [*stats.items(), ("s", stats["fwd_s"])]}
    lookups = values.get("embeddings.lookup_all.calls", 0)
    loads = values.get("training.load_checkpoint.calls", 0)
    values.update({
        "numcore.tape.records_per_pair": st["records"] / train_pairs,
        "embeddings.lookup_all.hit_ratio": st["lookup_hits"] / lookups if lookups else 0.0,
        "embeddings.lookup_all.retained_mb": retained / 2**20,
        "training.load_checkpoint.mb": (st["checkpoint_bytes"] / loads / 2**20
                                        if loads else 0.0),
        "model.batch_loss.rss_growth_mb": max(st["rss_growth"], default=0) / 2**20,
        "cli.import_s": statistics.mean(import_s) if import_s else 0.0,
        "trace.wall_s": wall_t,
        "trace.untraced_wall_s": wall_u,
        "trace.overhead_s": wall_t - wall_u,
        "trace.unaccounted_s": wall_t - st["toplevel_s"] - sum(import_s),
    })
    return values


def traced(s: Session, results: Path) -> dict:
    """Run the fixed pass untraced, traced, untraced; dump spans; per-layer metrics.

    The untraced wall time is the mean of the passes either side of the
    traced one, so a steady drift in machine speed cancels out of
    trace.overhead_s.
    """
    wall_u1, m = s.fixed_pass()
    del m
    trace_dir = s.dir / "trace"
    trace_dir.mkdir()
    tracer = Tracer()
    tracer.install()
    try:
        wall_t, m = s.fixed_pass(tracer, trace_dir)
        retained = tracer.retained_bytes()
    finally:
        tracer.uninstall()
    del m
    wall_u2, m = s.fixed_pass()
    del m
    wall_u = (wall_u1 + wall_u2) / 2
    children = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("score*.json"))]
    st = merge_stats([tracer.stats()] + [c["stats"] for c in children])
    results.write_text(json.dumps({
        "process": tracer.spans,
        "score_processes": [c["spans"] for c in children],
        "span_fields": ["name", "kind", "start", "end", "parent", "op"]}))
    return layer_metrics(st, sum(len(s.batches[k % len(s.batches)])
                                 for k in range(s.wl.trace_ops[0])),
                         wall_u, wall_t, retained, [c["import_s"] for c in children])


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():   # git would otherwise search the parent directories
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "pairsim").rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def _unused_layer(name: str) -> float:
    """0 for a per-layer stat of a layer this pass never called."""
    if name.rsplit(".", 1)[1] not in ("calls", "fwd_s", "self_s", "bwd_s", "s"):
        raise KeyError(f"no value measured for metric {name}")
    return 0.0


def _metric_defs(trace: int) -> list[dict]:
    return json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    if args.small:
        wl = small(wl)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / "work" / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        attempted, failed = canary(args.workload, workdir / "canary", args.record_golden)
        s = Session(wl, args.seed, workdir / "run")
        if args.trace:
            s.prepare(reps=1)
            values = traced(s, results / f"{tag}-spans.json")
            samples, checks = {}, {}
        else:
            m = s.prepare(SETUP_MIN_REPS, SETUP_MIN_S)
            measured, checks = s.window(m, args.seconds)
            values = {k: v for k, (v, _, _) in measured.items()}
            samples = {k: f"{n} {what}" for k, (_, n, what) in measured.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += s.attempted
    failed += s.failed
    metrics = {d["name"]: {"value": values[d["name"]] if d["name"] in values
                           else _unused_layer(d["name"]), "unit": d["unit"]}
               for d in _metric_defs(args.trace)}
    env = environment(args.seed)
    print(f"# pairsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced fixed pass' if args.trace else f'{args.seconds} s window'}")
    print("# env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']:8s} {samples.get(name, '')}")
    print(f"{'ops_failed_frac':42s} {failed / attempted:>14.6g} {'ratio':8s} "
          f"{attempted} ops")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "env": env, "samples": samples,
         "checks": {**checks, "failures": s.failures}}, indent=2, default=str))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prefixed metrics in one result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="length of the timed window (trace 0)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="toy sizes with the same structure (self-check)")
    p.add_argument("--record-golden", action="store_true",
                   help="store this commit's canary outputs in golden.json")
    args = p.parse_args(argv)
    _require_source()
    _import_pairsim()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

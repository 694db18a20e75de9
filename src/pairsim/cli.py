"""Command-line interface.

Subcommands: train, eval, score, gradcheck, coverage, bench.  Reports
are TSV on standard output (with the effective configuration echoed as
``#`` comment lines); diagnostics go to standard error.  Exit codes:
0 success, 1 configuration or checkpoint problem, 2 data problem,
3 numeric failure (non-finite loss).

Any configuration key can be overridden on the command line as
``--key value`` after the fixed arguments, e.g. ``--filters 16``.
``eval`` and ``score`` take their configuration from the checkpoint and
accept only ``--embeddings`` (``eval`` also ``--lenient``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields

from . import model as md
from . import training as tr
from .config import ENV_CONFIG, RunConfig, echo_lines, fingerprint, load_config
from .config import _set as set_value
from .embeddings import load_lexicon
from .encoder import WORD_FEATURE_KINDS
from .errors import (CheckpointError, ConfigError, DataError, NumericError)
from .evaldata import classification_metrics, load_pairs, pearson, tokenize
from .gradcheck import (build_check_fixture, model_grad_check,
                        synthetic_lexicon)

PASS_THRESHOLD = 1e-4  # gradcheck gate


def _overrides(rest: list[str]) -> dict[str, str]:
    out = {}
    i = 0
    while i < len(rest):
        key = rest[i]
        if not key.startswith("--"):
            raise ConfigError(f"unexpected argument {key!r}")
        if i + 1 >= len(rest):
            raise ConfigError(f"missing value for {key}")
        out[key[2:]] = rest[i + 1]
        i += 2
    return out


def _echo(cfg: RunConfig):
    for line in echo_lines(cfg):
        print(line)


def _config_source(path) -> str:
    """Where ``load_config(path)`` took its settings from, for messages."""
    if path is not None:
        return f"in config {path}"
    if os.environ.get(ENV_CONFIG):
        return f"in config {os.environ[ENV_CONFIG]}, named by ${ENV_CONFIG}"
    return "and no config file"


def _lexicon(cfg: RunConfig, source: str, total_dim: int | None = None):
    """Load the configured tables; given a checkpoint's total_dim, the
    fused width must equal it.  ``source`` says where the configuration
    came from (``_config_source``, or the checkpoint)."""
    paths = cfg.embedding_paths()
    if not paths:
        raise ConfigError(f"no embedding tables configured {source}; set 'embeddings' "
                          "to a comma-separated list of word-vector files")
    lex = load_lexicon(paths, oov_scale=cfg.oov_scale, seed=cfg.seed)
    if total_dim is not None and lex.total_dim != total_dim:
        raise ConfigError(f"the embedding tables fuse to {lex.total_dim}-d vectors; "
                          f"the checkpoint was trained on {total_dim}-d")
    return lex


# ---------------------------------------------------------------------------
# subcommands


def _check_out(path: str):
    """Refuse a checkpoint path that saving after the last epoch could
    not write."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")
    if not os.path.isdir(folder):
        raise ConfigError(f"--out {path}: directory {folder} does not exist")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {path}: directory {folder} is not writable")


def cmd_train(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    _check_out(args.out)
    _echo(cfg)
    lex = _lexicon(cfg, _config_source(args.config))
    # training maps each gold onto the score levels, so it must lie in range
    golds = (cfg.raw_min, cfg.raw_max) if cfg.task == "sts" else None
    data = load_pairs(args.train, cfg.task, lenient=cfg.lenient, score_range=golds)
    valid = (load_pairs(args.valid, cfg.task, lenient=cfg.lenient, score_range=golds)
             if args.valid else None)
    if not data.examples:
        raise DataError(f"{args.train}: no usable examples")
    if valid is not None:
        tr.check_valid(args.valid, valid)
    spec = md.spec_from_config(cfg, lex.total_dim)
    params = md.build_model(spec, cfg.seed)

    print("epoch\ttrain_loss\tvalid_metric")

    def report(rec):
        metric = "" if rec.valid_metric is None else f"{rec.valid_metric:.6f}"
        print(f"{rec.epoch}\t{rec.train_loss:.6f}\t{metric}", flush=True)

    result = tr.train(params, lex, data, cfg, valid, on_epoch=report)
    meta = {"config": asdict(cfg), "config_fingerprint": fingerprint(cfg),
            "epoch": result.best_epoch, "embedding_hash": lex.content_hash()}
    tr.save_checkpoint(args.out, result.params, result.state, meta)
    print(f"# checkpoint written to {args.out} (best epoch {result.best_epoch})",
          file=sys.stderr)
    return 0


def _load_for_inference(args, overrides, allowed: tuple[str, ...]):
    """The checkpoint's parameters and configuration, with the command-line
    overrides of the keys in `allowed` applied; any other key is an error."""
    ckpt_path = args.checkpoint
    params, _, meta = tr.load_checkpoint(ckpt_path, with_state=False)
    if "config" not in meta:
        raise CheckpointError(
            f"{ckpt_path}: checkpoint carries no configuration block")
    try:
        cfg = RunConfig(**meta["config"]).validate()
    except TypeError as exc:
        raise CheckpointError(
            f"{ckpt_path}: malformed configuration block ({exc})") from None
    # the echo must describe the model that runs
    echoed = md.spec_from_config(cfg, params.spec.total_dim)
    for f in fields(md.ModelSpec):
        given, stored = getattr(echoed, f.name), getattr(params.spec, f.name)
        if given != stored:
            raise CheckpointError(f"{ckpt_path}: the configuration block gives "
                                  f"{f.name} = {given!r}, the model spec {stored!r}")
    # the header has no checksum of its own; the stored fingerprint stands in
    stored = meta.get("config_fingerprint")
    if stored is not None and stored != fingerprint(cfg):
        raise CheckpointError(f"{ckpt_path}: the configuration block's fingerprint is "
                              f"{fingerprint(cfg)}, the checkpoint stores {stored} "
                              f"(the header is damaged)")
    for key, value in overrides.items():
        if key not in allowed:
            raise ConfigError(f"{args.command} accepts only "
                              f"{'/'.join('--' + k for k in allowed)} "
                              f"overrides, got --{key}")
        set_value(cfg, key, value)
    return params, cfg


def cmd_eval(args, overrides) -> int:
    params, cfg = _load_for_inference(args, overrides, ("embeddings", "lenient"))
    _echo(cfg)
    task = params.spec.task
    if args.task and args.task != task:
        raise ConfigError(
            f"checkpoint was trained for task {task!r}, dataset is {args.task!r}")
    lex = _lexicon(cfg, f"in checkpoint {args.checkpoint}", params.spec.total_dim)
    ds = load_pairs(args.test, task, lenient=cfg.lenient)
    tr.check_valid(args.test, ds)
    preds = md.predict(params, lex, [(ex.tokens1, ex.tokens2) for ex in ds.examples],
                       cfg.batch_size)
    if task == "sts":
        r = pearson(preds, [ex.gold_score for ex in ds.examples])
        print(f"pearson_x100\t{100 * r:.2f}")
    else:
        m = classification_metrics([ex.gold_label for ex in ds.examples], preds)
        print(f"accuracy\t{100 * m.accuracy:.2f}")
        if m.f1 is not None:
            print(f"f1\t{100 * m.f1:.2f}")
    return 0


def cmd_score(args, overrides) -> int:
    params, cfg = _load_for_inference(args, overrides, ("embeddings",))
    _echo(cfg)
    t1, t2 = tokenize(args.sentence1), tokenize(args.sentence2)
    if not t1 or not t2:
        raise DataError("both sentences must be nonempty after tokenization")
    lex = _lexicon(cfg, f"in checkpoint {args.checkpoint}", params.spec.total_dim)
    out = md.predict_example(params, lex, t1, t2)
    if params.spec.task == "sts":
        print(f"{out:.4f}")
    else:
        print(params.spec.label_names[out])
    return 0


def cmd_gradcheck(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    _echo(cfg)
    lex = (_lexicon(cfg, _config_source(args.config)) if cfg.embedding_paths()
           else synthetic_lexicon(cfg.seed))
    print("task\tgroup\tmax_rel_err")
    failures = []
    for task in ("sts", "entailment"):
        task_cfg = load_config(args.config, dict(overrides or {}, task=task))
        spec = md.spec_from_config(task_cfg, lex.total_dim)
        params, batch = build_check_fixture(spec, lex, seed=task_cfg.seed)
        report = model_grad_check(params, lex, batch)
        for g in report.groups:
            print(f"{task}\t{g.name}\t{g.max_rel_err:.3e}")
        failures += [(task, g) for g in report.failures(PASS_THRESHOLD)]
        print(f"{task}\tALL\t{report.max_rel_err:.3e}")
    if failures:
        for task, g in failures:
            print(f"FAIL {task} {g.name} {g.max_rel_err:.3e} >= {PASS_THRESHOLD}",
                  file=sys.stderr)
        return 1
    print(f"# gradcheck passed (threshold {PASS_THRESHOLD})", file=sys.stderr)
    return 0


def cmd_coverage(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    _echo(cfg)
    lex = _lexicon(cfg, _config_source(args.config))
    vocab = set()
    for path in args.data:
        for ex in load_pairs(path, cfg.task, lenient=cfg.lenient).examples:
            vocab.update(ex.tokens1, ex.tokens2)
    if not vocab:
        raise DataError(f"{', '.join(args.data)}: no usable examples")
    report = lex.coverage(vocab)
    print(f"# vocabulary size: {report.vocab_size}")
    for name, frac in report.per_table:
        print(f"{name}\t{100 * frac:.2f}")
    print(f"union\t{100 * report.union:.2f}")
    return 0


def cmd_bench(args, overrides) -> int:
    """Encoder ablation: every encoder with sentence-level comparison,
    plus the word-feature encoders with multi-level comparison."""
    cfg = load_config(args.config, overrides)
    _echo(cfg)
    lex = _lexicon(cfg, _config_source(args.config))
    data = load_pairs(args.train, cfg.task, lenient=cfg.lenient)
    if not data.examples:
        raise DataError(f"{args.train}: no usable examples")
    encoders = [e.strip() for e in cfg.bench_encoders.split(",") if e.strip()]
    rows = [("sent", e) for e in encoders]
    rows += [("multi", e) for e in encoders if e in WORD_FEATURE_KINDS]
    print("variant\tfinal_train_loss\ttrain_metric")
    for mode, enc in rows:
        run_cfg = load_config(args.config,
                              dict(overrides or {}, encoder=enc, comparison=mode))
        spec = md.spec_from_config(run_cfg, lex.total_dim)
        params = md.build_model(spec, run_cfg.seed)
        result = tr.train(params, lex, data, run_cfg)
        metric = md.dataset_metric(result.params, lex, data, run_cfg.batch_size)
        label = ("S" if mode == "sent" else "M") + "-" + enc
        print(f"{label}\t{result.history[-1].train_loss:.6f}\t{metric:.4f}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsim",
        description="sentence-pair similarity/relation models on fused embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("train", help="training pairs (TSV)")
    p.add_argument("--config", default=None)
    p.add_argument("--valid", default=None, help="validation pairs (TSV)")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    p.add_argument("checkpoint")
    p.add_argument("test")
    p.add_argument("--task", default=None,
                   help="expected task; must match the checkpoint")

    p = sub.add_parser("score", help="score one sentence pair")
    p.add_argument("checkpoint")
    p.add_argument("sentence1")
    p.add_argument("sentence2")

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against central differences")
    p.add_argument("--config", default=None)

    p = sub.add_parser("coverage", help="vocabulary coverage per table")
    p.add_argument("data", nargs="+", help="pair datasets (TSV)")
    p.add_argument("--config", default=None)

    p = sub.add_parser("bench", help="encoder ablation on one training set")
    p.add_argument("train")
    p.add_argument("--config", default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "score": cmd_score,
                "gradcheck": cmd_gradcheck, "coverage": cmd_coverage,
                "bench": cmd_bench}
    try:
        overrides = _overrides(rest)
        return handlers[args.command](args, overrides)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

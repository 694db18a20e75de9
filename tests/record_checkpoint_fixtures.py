"""Write the checkpoints that test_training.py re-saves byte for byte.

    PYTHONPATH=src:tests python tests/record_checkpoint_fixtures.py tests/data

One small checkpoint per task, ``<task>.ckpt``, each with its optimizer
state after two training steps on a toy set and the metadata block that
``pairsim train`` writes.  The committed files are format 2, written
before the header was padded, and stand for the files of earlier
versions: a later version must read them, and write the same payload
again.  Rerunning this script writes the current format instead, so
keep the committed files unless that is the point.
"""

import dataclasses
import sys
from pathlib import Path

from pairsim import model as md
from pairsim import training as tr
from pairsim.config import RunConfig, fingerprint
from pairsim.rng import stream

from toys import cls3_dataset, sts_overfit_dataset, toy_lexicon

# every spec uses sentence-level comparison: the multi-level head alone
# would be 40K parameters
CASES = {
    "sts": dict(encoder="maxlstm", filters=3, lstm_dim=2),
    "entailment": dict(encoder="proj_avg"),
    "paraphrase": dict(encoder="lstm_only", lstm_dim=2),
}
USER_KEYS = ("config", "config_fingerprint", "epoch", "embedding_hash")


def examples(task):
    if task == "sts":
        return sts_overfit_dataset().examples
    cls3 = cls3_dataset().examples
    if task == "entailment":
        return cls3
    return [dataclasses.replace(ex, gold_label=ex.gold_label % 2) for ex in cls3]


def fixture_model(task):
    """(params, state, meta) of ``<task>.ckpt``, trained in memory."""
    lex = toy_lexicon(seed=7, dims=(5, 3))
    cfg = RunConfig(task=task, comparison="sent", max_len=3, d_neu=2, score_k=5,
                    seed=5, **CASES[task]).validate()
    params = md.build_model(md.spec_from_config(cfg, lex.total_dim), cfg.seed)
    state = tr.AdaDeltaState.zeros(params, cfg.rho, cfg.epsilon)
    rng, data = stream(cfg.seed, "dropout"), examples(task)
    for k in range(2):
        tr.train_step(params, state, lex, data[4 * k:4 * k + 4], rng)
    meta = {"config": dataclasses.asdict(cfg), "config_fingerprint": fingerprint(cfg),
            "epoch": 2, "embedding_hash": lex.content_hash()}
    return params, state, meta


def record(task, path):
    tr.save_checkpoint(path, *fixture_model(task))


def main(directory):
    for task in CASES:
        record(task, Path(directory) / f"{task}.ckpt")


if __name__ == "__main__":
    main(sys.argv[1])

"""Models and batches of the per-pair vs batch-major equivalence test.

Shared by ``record_per_pair_reference.py``, which recorded the reference
with the per-pair code, and ``test_equivalence.py``, which checks the
batch-major code against it.  Only ``ModelSpec``, ``build_model`` and
the toy lexicon are used here, so both versions of the code build
exactly the same parameters and batches.
"""

from pairsim import model as md
from pairsim import objectives as obj
from pairsim.evaldata import SentencePairExample

from toys import toy_lexicon

DROPOUT_SEED = 21

# lengths 5, 1, 2, 2, 1, 5, 5, 2, 1, 1 against L = 3: n = 1, n > L, an
# OOV word ("and"), sentences repeated within the batch and one pair of
# identical sentences
PAIRS = [
    (["bob", "likes", "mary", "and", "cats"], ["dogs"]),
    (["cats", "runs"], ["dogs", "eats"]),
    (["mary"], ["the", "red", "car", "runs", "fast"]),
    (["bob", "likes", "mary", "and", "cats"], ["cats", "runs"]),
    (["dogs"], ["dogs"]),
]
SCORES = [1.0, 4.0, 2.5, 0.3, 5.0]
LABELS = [0, 2, 1, 1, 0]

# case name -> (task, encoder, comparison)
CASES = {
    "maxlstm_multi_sts": ("sts", "maxlstm", "multi"),
    "maxcnn_only_multi_sts": ("sts", "maxcnn_only", "multi"),
    "lstm_only_sent_sts": ("sts", "lstm_only", "sent"),
    "word_avg_sent_sts": ("sts", "word_avg", "sent"),
    "proj_avg_sent_sts": ("sts", "proj_avg", "sent"),
    "maxlstm_sent_entailment": ("entailment", "maxlstm", "sent"),
}


def build(name):
    """(params, lexicon, batch) of one case; deterministic."""
    task, encoder, comparison = CASES[name]
    dims = dict(encoder=encoder, comparison=comparison, total_dim=8, H=4, l=3,
                L=3, d_neu=2, dropout_p=0.5)
    if task == "sts":
        spec = md.ModelSpec(task="sts", C=5, score=obj.ScoreSpec(5, 0.0, 5.0), **dims)
        golds = [dict(gold_score=s) for s in SCORES]
    else:
        spec = md.ModelSpec(task="entailment", C=3,
                            label_names=["entailment", "contradiction", "neutral"],
                            **dims)
        golds = [dict(gold_label=c) for c in LABELS]
    batch = [SentencePairExample(list(t1), list(t2), **g)
             for (t1, t2), g in zip(PAIRS, golds)]
    return md.build_model(spec, seed=19), toy_lexicon(seed=7, dims=(5, 3)), batch

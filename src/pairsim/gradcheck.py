"""Whole-model gradient verification against central differences.

``model_grad_check`` probes every entry of every parameter group on a
small fixed batch.  To keep the quadratic probe count affordable it is
staged: when probing head parameters, the similarity vectors are
precomputed constants (they cannot depend on head weights); when
probing comparison parameters, the sentence encodings are precomputed.
The cached values are exact, so every probe still evaluates the exact
model loss, but only the part of the network downstream of the
perturbed tier is recomputed.  Encoder parameters run the full path.

The fixture builder enforces the tie-margin preconditions of finite
differencing: no absolute-difference coordinate and no max-pooling
column may sit within 10h of a tie.  Seeds advance deterministically
until the margins hold.

On the error floor: a float64 central difference carries rounding noise
of a few ULP of the loss's internal scale divided by 2h, about 5e-11
here.  Entries whose true gradient lies below noise/threshold can
therefore never resolve at a 1e-4 relative threshold, whatever the
implementation does.  The model-level check consequently damps the
relative error with ``REL_FLOOR`` = 2e-6 (noise / threshold with a 4x
safety factor) instead of the generic 1e-8 default: every gradient
above 2e-6 is still verified to 0.01%, and a corrupted backward pass
still fails loudly.
"""

from __future__ import annotations

import numpy as np

from . import model as md
from .evaldata import SentencePairExample
from .numcore import GradCheckReport, grad_check

# distinct word multisets per side: permuted sentences would tie the
# max-pooled halves exactly, violating the finite-difference margins
CHECK_SENTENCES = [
    (["bob", "likes", "mary"], ["mary", "hates", "dogs", "."]),
    (["dogs", "eats", "the", "food"], ["cats", "runs", "fast"]),
]


def synthetic_lexicon(seed: int, dims=(5, 3)):
    """Tiny in-memory tables covering the check sentences; no files needed."""
    from .embeddings import EmbeddingTable, FusedLexicon
    from .rng import stream
    words = sorted({w for pair in CHECK_SENTENCES for side in pair for w in side})
    index = {w: i for i, w in enumerate(words)}
    tables = [EmbeddingTable(f"check{k}", stream(seed, "check-table", str(k)).uniform(
        -1.0, 1.0, size=(len(words), dim)), index) for k, dim in enumerate(dims)]
    return FusedLexicon(tables=tables, oov_scale=0.1, seed=seed)


def _cached_rebuild(params):
    """with_leaves, re-run only when the mapping object changes."""
    state = {"key": None, "model": None}

    def get(leaves):
        if leaves is not state["key"]:
            state["key"] = leaves
            state["model"] = md.with_leaves(params, leaves)
        return state["model"]

    return get


REL_FLOOR = 2e-6


def model_grad_check(params: md.ModelParams, lex, batch, h: float = 1e-5,
                     rel_floor: float = REL_FLOOR,
                     only=None) -> GradCheckReport:
    """Check every parameter entry of the model on the given batch.

    ``only`` restricts the run to the named parameter groups (all by
    default).
    """
    arrays = md.leaf_arrays(params)
    if only is not None:
        arrays = {n: a for n, a in arrays.items() if n in set(only)}
    tiers = {
        "encoder.": [n for n in arrays if n.startswith("encoder.")],
        "comparison.": [n for n in arrays if n.startswith("comparison.")],
        "head.": [n for n in arrays if n.startswith("head.")],
    }
    groups = []
    pairs = [(ex.tokens1, ex.tokens2) for ex in batch]

    # encoder tier: nothing upstream to cache
    if tiers["encoder."]:
        rebuild = _cached_rebuild(params)

        def f_full(leaves):
            return md.batch_loss(rebuild(leaves), lex, batch)

        groups += grad_check(f_full, {n: arrays[n] for n in tiers["encoder."]},
                             h, rel_floor).groups

    # comparison tier: encodings are constants
    if tiers["comparison."]:
        enc = md.encode_pairs(params, lex, pairs)
        rebuild = _cached_rebuild(params)

        def f_cmp(leaves):
            m = rebuild(leaves)
            return md.loss_from_logits(m, md.logits_from_sims(m, md.pair_sims(m, enc)),
                                       batch)

        groups += grad_check(f_cmp, {n: arrays[n] for n in tiers["comparison."]},
                             h, rel_floor).groups

    # head tier: similarity vectors are constants
    if tiers["head."]:
        sims = md.pair_sims(params, md.encode_pairs(params, lex, pairs))
        rebuild = _cached_rebuild(params)

        def f_head(leaves):
            m = rebuild(leaves)
            return md.loss_from_logits(m, md.logits_from_sims(m, sims), batch)

        groups += grad_check(f_head, {n: arrays[n] for n in tiers["head."]},
                             h, rel_floor).groups

    order = {name: k for k, (name, _) in enumerate(md.named_parameters(params))}
    groups.sort(key=lambda g: order[g.name])
    return GradCheckReport(groups, h)


# ---------------------------------------------------------------------------
# fixture construction


def _margins_ok(params: md.ModelParams, lex, batch, h: float) -> bool:
    """No max-pool column or |a-b| coordinate within 10h of a tie."""
    gap = 10.0 * h
    enc = md.encode_pairs(params, lex, [(ex.tokens1, ex.tokens2) for ex in batch])
    e_s = np.asarray(enc.e_s)
    if np.abs(e_s[0::2] - e_s[1::2]).min() <= gap:
        return False
    if enc.words is None:
        return True
    for s in np.split(np.asarray(enc.words), np.cumsum(enc.lengths)[:-1]):
        if s.shape[0] > 1:
            top2 = np.sort(s, axis=0)[-2:]
            if (top2[1] - top2[0]).min() <= gap:
                return False
    return True


def build_check_fixture(spec: md.ModelSpec, lex, seed: int,
                        h: float = 1e-5, max_tries: int = 50):
    """Seeded model plus 2-pair batch satisfying the tie-margin rules."""
    if spec.task == "sts":
        span = spec.score.raw_max - spec.score.raw_min
        golds = [dict(gold_score=spec.score.raw_min + 0.37 * span),
                 dict(gold_score=spec.score.raw_min + 0.81 * span)]
    else:
        golds = [dict(gold_label=0), dict(gold_label=min(1, spec.C - 1))]
    batch = [SentencePairExample(t1, t2, **g)
             for (t1, t2), g in zip(CHECK_SENTENCES, golds)]
    for attempt in range(max_tries):
        params = md.build_model(spec, seed + attempt)
        if _margins_ok(params, lex, batch, h):
            return params, batch
    raise RuntimeError(
        f"no tie-free gradient-check fixture within {max_tries} seeds")

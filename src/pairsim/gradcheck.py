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
from . import threads
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


REL_FLOOR = 2e-6


def model_grad_check(params: md.ModelParams, lex, batch, h: float = 1e-5,
                     rel_floor: float = REL_FLOOR,
                     only=None) -> GradCheckReport:
    """Check every parameter entry of the model on the given batch.

    ``only`` restricts the run to the named parameter groups (all by
    default).  The check runs OpenBLAS at one thread
    (``threads.one_blas_thread``).
    """
    tiers = {part: {n: a for n, a in params.w.items()
                    if n.startswith(part + ".") and (only is None or n in only)}
             for part in ("encoder", "comparison", "head")}
    pairs = [(ex.tokens1, ex.tokens2) for ex in batch]

    def model(leaves):
        return md.ModelParams(params.spec, {**params.w, **leaves})

    def f_full(leaves):
        return md.batch_loss(model(leaves), lex, batch)

    def f_cmp(leaves):
        m = model(leaves)
        return md.loss_from_logits(m, md.logits_from_sims(m, md.pair_sims(m, enc)), batch)

    def f_head(leaves):
        m = model(leaves)
        return md.loss_from_logits(m, md.logits_from_sims(m, sims), batch)

    # the encoder tier has nothing upstream to cache; the comparison tier
    # takes the encodings as constants, the head tier the similarity vectors
    groups = []
    with threads.one_blas_thread():
        if tiers["encoder"]:
            groups += grad_check(f_full, tiers["encoder"], h, rel_floor).groups
        if tiers["comparison"]:
            enc = md.encode_pairs(params, lex, pairs)
            groups += grad_check(f_cmp, tiers["comparison"], h, rel_floor).groups
        if tiers["head"]:
            sims = md.pair_sims(params, md.encode_pairs(params, lex, pairs))
            groups += grad_check(f_head, tiers["head"], h, rel_floor).groups
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

"""Small in-memory fixtures shared across test modules."""

from pairsim.embeddings import EmbeddingTable, FusedLexicon
from pairsim.rng import stream

TOY_WORDS = [
    "bob", "mary", "likes", "hates", "dogs", "cats", "eats", "food",
    "runs", "fast", "slow", "the", "a", "red", "blue", "car", "bird", ".",
]


def encoder_weights(kind, total_dim, H, l, seed):
    """The "encoder.*" weights of a model seeded with ``seed``: the encoder
    draws first from the init stream, so they are the weights of that
    encoder drawn alone."""
    from pairsim import model as md
    from pairsim import objectives as obj
    comparison = "multi" if kind in ("maxcnn_only", "maxlstm") else "sent"
    spec = md.ModelSpec(task="sts", encoder=kind, comparison=comparison, total_dim=total_dim,
                        H=H, l=l, L=2, d_neu=2, C=2, score=obj.ScoreSpec(2, 0.0, 5.0))
    return {n: a for n, a in md.build_model(spec, seed).w.items() if n.startswith("encoder.")}


def toy_lexicon(seed=7, dims=(5, 3), words=TOY_WORDS) -> FusedLexicon:
    """Distinct random vectors per word, deterministic in the seed."""
    tables = []
    for k, d in enumerate(dims):
        rng = stream(seed, "toy-table", str(k))
        tables.append(EmbeddingTable(name=f"toy{k}",
                                     matrix=rng.uniform(-1.0, 1.0, size=(len(words), d)),
                                     index={w: i for i, w in enumerate(words)}))
    return FusedLexicon(tables=tables, oov_scale=0.1, seed=seed)


def _pairs_to_dataset(rows, task):
    from pairsim.evaldata import LABEL_NAMES, PairDataset, SentencePairExample
    examples = []
    vocab = set()
    for s1, s2, gold in rows:
        t1, t2 = s1.split(), s2.split()
        if task == "sts":
            ex = SentencePairExample(t1, t2, gold_score=float(gold))
        else:
            ex = SentencePairExample(t1, t2, gold_label=int(gold))
        examples.append(ex)
        vocab.update(t1)
        vocab.update(t2)
    return PairDataset(examples=examples, task=task,
                       label_names=LABEL_NAMES.get(task), vocab=vocab)


def sts_overfit_dataset():
    """16 pairs in three well-separated score clusters.

    Identical pairs score 5, one-word-substituted pairs 2.5, disjoint
    pairs 0; the clustering keeps the ordering learnable within a few
    hundred optimizer steps.
    """
    rows = [
        ("bob likes mary", "bob likes mary", 5.0),
        ("dogs eats food", "dogs eats food", 5.0),
        ("the red car runs fast", "the red car runs fast", 5.0),
        ("cats runs slow", "cats runs slow", 5.0),
        ("mary hates dogs", "mary hates dogs", 5.0),
        ("a blue bird", "a blue bird", 5.0),
        ("bob likes mary", "bob likes cats", 2.5),
        ("dogs eats food", "dogs eats birds", 2.5),
        ("the red car", "the blue car", 2.5),
        ("bob runs fast", "bob runs slow", 2.5),
        ("mary hates dogs", "mary hates cats", 2.5),
        ("bob likes mary", "cats eats food", 0.0),
        ("the red car", "dogs runs slow", 0.0),
        ("mary hates dogs", "a blue bird", 0.0),
        ("cats runs", "bob likes food", 0.0),
        ("a red bird", "the slow car", 0.0),
    ]
    return _pairs_to_dataset(rows, "sts")


def cls3_dataset():
    """16 pairs, 3 classes: 0 containment, 1 swapped-order, 2 unrelated."""
    rows = [
        ("bob likes mary a lot", "bob likes mary", 0),
        ("dogs eats the food", "dogs eats food", 0),
        ("the red car runs fast", "the car runs", 0),
        ("cats runs slow today", "cats runs slow", 0),
        ("mary hates dogs truly", "mary hates dogs", 0),
        ("a blue bird runs", "a bird runs", 0),
        ("bob likes mary", "mary likes bob", 1),
        ("dogs eats food", "food eats dogs", 1),
        ("cats hates birds", "birds hates cats", 1),
        ("the car runs", "runs car the", 1),
        ("mary runs fast", "fast runs mary", 1),
        ("bob likes mary", "cats eats food", 2),
        ("the red car", "dogs runs slow", 2),
        ("mary hates dogs", "a blue bird", 2),
        ("cats runs", "bob likes food", 2),
        ("a red bird", "the slow car", 2),
    ]
    return _pairs_to_dataset(rows, "entailment")


def order_probe_dataset():
    """Identical pairs score 5, token-reversed pairs score 1.

    Order-blind sentence encoders produce identical predictions for
    both kinds and hit a loss floor here; order-aware ones can fit.
    """
    rows = [
        ("bob likes mary", "bob likes mary", 5.0),
        ("bob likes mary", "mary likes bob", 1.0),
        ("dogs eats food", "dogs eats food", 5.0),
        ("dogs eats food", "food eats dogs", 1.0),
        ("cats hates birds", "cats hates birds", 5.0),
        ("cats hates birds", "birds hates cats", 1.0),
        ("the car runs", "the car runs", 5.0),
        ("the car runs", "runs car the", 1.0),
        ("a red bird", "a red bird", 5.0),
        ("a red bird", "bird red a", 1.0),
        ("mary runs fast", "mary runs fast", 5.0),
        ("mary runs fast", "fast runs mary", 1.0),
        ("bob eats slow", "bob eats slow", 5.0),
        ("bob eats slow", "slow eats bob", 1.0),
        ("the blue food", "the blue food", 5.0),
        ("the blue food", "food blue the", 1.0),
    ]
    return _pairs_to_dataset(rows, "sts")


def write_lexicon_files(lex: FusedLexicon, directory):
    """Dump each table to the text format; returns the file paths."""
    paths = []
    for t in lex.tables:
        lines = [" ".join([w] + [repr(float(x)) for x in t.matrix[i]])
                 for w, i in t.index.items()]
        p = directory / f"{t.name}.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(p)
    return paths


def edit_checkpoint_header(src, dst, edit=None, version=None):
    """Copy checkpoint src to dst with its JSON header passed through
    edit(meta) and, optionally, another uint32 format version."""
    import json
    import struct
    raw = src.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + n])
    if edit is not None:
        edit(meta)
    blob = json.dumps(meta).encode("utf-8")
    head = raw[:4] + (raw[4:8] if version is None else struct.pack("<I", version))
    dst.write_bytes(head + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])

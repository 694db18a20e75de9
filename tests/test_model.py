import numpy as np
import pytest

from pairsim import model as md
from pairsim import numcore as nc
from pairsim import objectives as obj
from pairsim.errors import ConfigError
from pairsim.evaldata import SentencePairExample
from pairsim.rng import stream

from toys import toy_lexicon


@pytest.fixture(scope="module")
def lex():
    return toy_lexicon(seed=7, dims=(5, 3))


def sts_spec(**over):
    base = dict(task="sts", encoder="maxlstm", comparison="multi",
                total_dim=8, H=6, l=4, L=3, d_neu=2, C=5, dropout_p=0.0,
                score=obj.ScoreSpec(5, 0, 5))
    base.update(over)
    return md.ModelSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigError):
        sts_spec(encoder="word_avg")  # no word features for multi comparison
    with pytest.raises(ConfigError):
        sts_spec(score=None)
    for bad in (dict(H=0), dict(l=-1), dict(L=0), dict(d_neu=0), dict(total_dim=0),
                dict(H=2.5), dict(encoder="fancy"), dict(comparison="fancy"),
                dict(task="entailment", C=1, score=None)):
        with pytest.raises(ConfigError):
            sts_spec(**bad)
    sts_spec(encoder="word_avg", comparison="sent")  # fine


@pytest.mark.parametrize("encoder, comparison", [
    ("maxlstm", "multi"), ("maxlstm", "sent"), ("maxcnn_only", "multi"),
    ("maxcnn_only", "sent"), ("lstm_only", "sent"), ("proj_avg", "sent"),
    ("word_avg", "sent")])
def test_parameter_shapes_are_the_built_layout(encoder, comparison):
    spec = sts_spec(encoder=encoder, comparison=comparison)
    params = md.build_model(spec, seed=1)
    shapes = md.parameter_shapes(spec)
    assert shapes == [(n, a.shape) for n, a in params.w.items()]
    assert sum(int(np.prod(shape)) for _, shape in shapes) == params.flat.size


def test_named_parameters_order_and_shapes(lex):
    params = md.build_model(sts_spec(), seed=1)
    names = list(params.w)
    assert names == [
        "encoder.R", "encoder.b_r",
        "encoder.W_lstm", "encoder.U_lstm", "encoder.b_lstm",
        "comparison.W_word", "comparison.b_word", "comparison.W_neu",
        "comparison.b_neu", "comparison.W_sent", "comparison.b_sent",
        "comparison.W_ws", "comparison.b_ws", "comparison.W_ws2",
        "comparison.b_ws2", "head.W_l1", "head.b_l1", "head.W_l2", "head.b_l2",
    ]
    arrays = params.w
    assert arrays["comparison.W_word"].shape == (50, 9)        # L*L = 9
    assert arrays["comparison.W_neu"].shape == (2, 20)         # 2 * (H + l)
    assert arrays["comparison.W_sent"].shape == (5, 23)        # 1 + 2*10 + 2
    assert arrays["comparison.W_ws"].shape == (5, 16)          # (H + l) + H
    assert arrays["comparison.W_ws2"].shape == (100, 30)       # 2 * L * 5
    assert arrays["head.W_l1"].shape == (250, 155)
    assert arrays["head.W_l2"].shape == (5, 250)
    assert arrays["encoder.W_lstm"].shape == (16, 6)           # (4l, H)
    assert arrays["encoder.U_lstm"].shape == (16, 4)           # (4l, l)
    assert arrays["encoder.b_lstm"].shape == (16,)


def test_forget_gate_bias_is_one(lex):
    params = md.build_model(sts_spec(), seed=1)
    np.testing.assert_array_equal(params.w["encoder.b_lstm"][4:8], np.ones(4))
    np.testing.assert_array_equal(params.w["encoder.b_lstm"][0:4], np.zeros(4))


@pytest.mark.parametrize("encoder", ["maxlstm", "lstm_only"])
def test_fused_lstm_layout(encoder):
    """W_lstm and U_lstm are four per-gate Glorot draws from the init
    stream, stacked in i/f/o/u order; only the forget rows of b are 1."""
    comparison = "multi" if encoder == "maxlstm" else "sent"
    spec = sts_spec(encoder=encoder, comparison=comparison)
    w = md.build_model(spec, seed=9).w
    W_lstm, U_lstm, b_lstm = w["encoder.W_lstm"], w["encoder.U_lstm"], w["encoder.b_lstm"]
    l = spec.l
    k = spec.H if encoder == "maxlstm" else spec.total_dim
    rng = stream(9, "init")
    if encoder == "maxlstm":
        md.glorot(rng, spec.H, spec.total_dim)    # the filters are drawn first
    W = [md.glorot(rng, l, k) for _ in "ifou"]
    U = [md.glorot(rng, l, l) for _ in "ifou"]
    assert W_lstm.shape == (4 * l, k) and U_lstm.shape == (4 * l, l)
    for g in range(4):
        np.testing.assert_array_equal(W_lstm[g * l:(g + 1) * l], W[g])
        np.testing.assert_array_equal(U_lstm[g * l:(g + 1) * l], U[g])
    np.testing.assert_array_equal(b_lstm[l:2 * l], np.ones(l))
    np.testing.assert_array_equal(np.delete(b_lstm, np.s_[l:2 * l]), np.zeros(3 * l))


def test_build_model_deterministic(lex):
    a = md.build_model(sts_spec(), seed=5).w
    b = md.build_model(sts_spec(), seed=5).w
    c = md.build_model(sts_spec(), seed=6).w
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert any(np.any(a[k] != c[k]) for k in a)


def test_pair_logits_shape_and_determinism(lex):
    params = md.build_model(sts_spec(), seed=2)
    pair = (["bob", "likes", "mary"], ["cats", "runs"])
    z1 = md.pair_logits(params, lex, [pair])
    z2 = md.pair_logits(params, lex, [pair, (["dogs"], ["cats"])])
    assert np.asarray(z1).shape == (1, 5)
    assert np.asarray(z2).shape == (2, 5)
    np.testing.assert_allclose(z1[0], z2[0], rtol=1e-13)
    z1 = z1[0]
    z2 = md.pair_logits(params, lex, [pair])[0]
    np.testing.assert_array_equal(z1, z2)


def test_sent_mode_ignores_word_level(lex):
    spec = sts_spec(comparison="sent")
    params = md.build_model(spec, seed=2)
    assert "comparison.W_word" not in params.w
    assert params.w["head.W_l1"].shape == (250, 5)
    z = md.pair_logits(params, lex, [(["bob", "likes"], ["mary", "hates"])])
    assert np.asarray(z).shape == (1, 5)


def test_example_loss_sts_uses_mapped_target(lex):
    params = md.build_model(sts_spec(), seed=3)
    ex = SentencePairExample(["bob"], ["mary"], gold_score=2.5)
    loss = md.batch_loss(params, lex, [ex])
    assert float(nc._value(loss)) > 0


def test_batch_loss_is_mean(lex):
    params = md.build_model(sts_spec(), seed=3)
    exs = [SentencePairExample(["bob"], ["mary"], gold_score=1.0),
           SentencePairExample(["dogs", "likes"], ["cats"], gold_score=4.0)]
    parts = [float(nc._value(md.batch_loss(params, lex, [e]))) for e in exs]
    total = float(nc._value(md.batch_loss(params, lex, exs)))
    assert abs(total - np.mean(parts)) < 1e-12


def test_predict_example_range(lex):
    params = md.build_model(sts_spec(), seed=4)
    s = md.predict_example(params, lex, ["bob", "likes", "mary"], ["bob", "likes"])
    assert 0.0 <= s <= 5.0
    cls_spec = md.ModelSpec(task="entailment", encoder="maxlstm", comparison="multi",
                            total_dim=8, H=6, l=4, L=3, d_neu=2, C=3, dropout_p=0.0,
                            label_names=["entailment", "contradiction", "neutral"])
    cls = md.build_model(cls_spec, seed=4)
    label = md.predict_example(cls, lex, ["bob"], ["mary"])
    assert label in (0, 1, 2)


def test_training_flag_engages_dropout(lex):
    spec = sts_spec(dropout_p=0.5)
    params = md.build_model(spec, seed=5)
    t1 = ["bob", "likes", "mary"]
    t2 = ["cats"]
    plain = md.pair_logits(params, lex, [(t1, t2)], training=False)
    dropped = md.pair_logits(params, lex, [(t1, t2)], training=True,
                             rng=stream(9, "dropout"))
    assert np.any(np.asarray(plain) != np.asarray(dropped))


# lengths 1, 2, 2 and 5 > L = 3: a tie, a single word and a truncated sentence
MIXED_BATCH = [
    SentencePairExample(["bob", "likes", "mary", "and", "cats"], ["dogs"], gold_score=1.0),
    SentencePairExample(["cats", "runs"], ["dogs", "eats"], gold_score=4.0),
    SentencePairExample(["mary"], ["the", "red", "car", "runs", "fast"], gold_score=2.5),
]


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def test_batch_loss_matches_example_losses_in_order(lex):
    params = md.build_model(sts_spec(dropout_p=0.5), seed=6)

    def run(loss_fn):
        with nc.GradTape() as tape:
            leaves = {n: tape.leaf(a) for n, a in params.w.items()}
            loss = loss_fn(md.ModelParams(params.spec, leaves), stream(21, "dropout"))
            tape.backward(loss)
        return float(loss.value), {n: leaf.grad for n, leaf in leaves.items()}

    def summed(m, rng):
        losses = [md.batch_loss(m, lex, [ex], True, rng) for ex in MIXED_BATCH]
        total = losses[0]
        for loss in losses[1:]:
            total = nc.add(total, loss)
        return nc.scale(total, 1.0 / len(MIXED_BATCH))

    got_loss, got = run(lambda m, rng: md.batch_loss(m, lex, MIXED_BATCH, True, rng))
    want_loss, want = run(summed)
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for name in want:
        assert rel_err(got[name], want[name]) <= 1e-12, name


@pytest.mark.parametrize("encoder", ["maxlstm", "lstm_only"])
def test_encode_batch_matches_single_sentences(lex, encoder):
    from pairsim.encoder import encode
    comparison = "multi" if encoder == "maxlstm" else "sent"
    params = md.build_model(sts_spec(encoder=encoder, comparison=comparison), seed=7)
    seqs = [t for ex in MIXED_BATCH for t in (ex.tokens1, ex.tokens2)]
    batched = encode(encoder, params.w, lex, seqs)
    assert batched.lengths == [len(t) for t in seqs]
    ends = np.cumsum(batched.lengths)
    for j, tokens in enumerate(seqs):
        want = encode(encoder, params.w, lex, [tokens])
        if want.words is not None:
            got = np.asarray(batched.words)[ends[j] - len(tokens):ends[j]]
            assert rel_err(got, np.asarray(want.words)) <= 1e-12
        for field in ("words", "e_max", "e_lstm", "e_s"):
            g, w = getattr(batched, field), getattr(want, field)
            assert (g is None) == (w is None), field
            if w is not None and field != "words":
                assert rel_err(np.asarray(g)[j], np.asarray(w)[0]) <= 1e-12, field

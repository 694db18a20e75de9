from types import SimpleNamespace

import numpy as np
import pytest

from pairsim import encoder as enc
from pairsim import numcore as nc
from pairsim.errors import ConfigError, DataError
from pairsim.rng import stream

from oracles import gate_dicts, scalar_lstm_last, scalar_sigmoid
from toys import toy_lexicon


@pytest.fixture(scope="module")
def lex():
    return toy_lexicon(seed=7, dims=(5, 3))


def make_encoder(kind, lex, H=4, l=3, seed=21):
    return enc.init_encoder(kind, lex.total_dim, H, l, stream(seed, "init"))


def encode_one(p, lex, tokens):
    """The encoding of one sentence, as a batch of one: its word rows and
    its row of every per-sentence field."""
    b = enc.encode(p, lex, [tokens])
    return SimpleNamespace(s_multi=b.words,
                           **{f: None if getattr(b, f) is None else getattr(b, f)[0]
                              for f in ("e_max", "e_lstm", "e_s")})


def test_multi_aspect_zero_params_give_half(lex):
    p = make_encoder("maxlstm", lex)
    p.R = np.zeros_like(p.R)
    p.b_r = np.zeros_like(p.b_r)
    y = encode_one(p, lex, ["bob"]).s_multi[0]
    np.testing.assert_array_equal(y, np.full(4, 0.5))


def test_multi_aspect_single_filter(lex):
    p = make_encoder("maxlstm", lex, H=1, l=1)
    p.R = np.zeros((1, lex.total_dim))
    p.R[0, 0] = 1.0
    p.b_r = np.zeros(1)
    import pairsim.embeddings as em
    zero = em.FusedLexicon(tables=[em.EmbeddingTable("z", np.zeros((1, lex.total_dim)),
                                                     {"zero": 0})])
    np.testing.assert_array_equal(encode_one(p, zero, ["zero"]).s_multi[0], [0.5])


def test_multi_aspect_matches_scalar_arithmetic(lex):
    p = make_encoder("maxlstm", lex, H=2)
    e = lex.lookup_all(["dogs"])[0]
    got = encode_one(p, lex, ["dogs"]).s_multi[0]
    for i in range(2):
        want = scalar_sigmoid(sum(p.R[i, j] * e[j] for j in range(lex.total_dim))
                              + p.b_r[i])
        assert abs(got[i] - want) < 1e-12


def test_encode_sentence_zero_lstm_params(lex):
    p = make_encoder("maxlstm", lex)
    for name in ("W_lstm", "U_lstm", "b_lstm"):
        setattr(p, name, np.zeros_like(getattr(p, name)))
    out = encode_one(p, lex, ["bob", "likes", "mary"])
    np.testing.assert_array_equal(out.e_lstm, np.zeros(3))


def test_encode_single_word_max_equals_word_features(lex):
    p = make_encoder("maxlstm", lex)
    out = encode_one(p, lex, ["cats"])
    e = lex.lookup_all(["cats"])[0]
    want = [scalar_sigmoid(sum(p.R[i, j] * e[j] for j in range(lex.total_dim)) + p.b_r[i])
            for i in range(p.H)]
    np.testing.assert_allclose(out.e_max, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out.e_max, out.s_multi[0])


def test_encode_lstm_matches_scalar_oracle(lex):
    p = make_encoder("maxlstm", lex, H=2, l=2, seed=5)
    tokens = ["bob", "likes", "mary"]
    out = encode_one(p, lex, tokens)
    s_multi = np.asarray(out.s_multi)
    want = scalar_lstm_last(s_multi.tolist(), *gate_dicts(p.W_lstm, p.U_lstm, p.b_lstm))
    np.testing.assert_allclose(out.e_lstm, want, rtol=0, atol=1e-10)


def test_encode_structure_and_ranges(lex):
    p = make_encoder("maxlstm", lex)
    out = encode_one(p, lex, ["the", "red", "car", "runs"])
    assert np.asarray(out.s_multi).shape == (4, 4)
    assert out.e_s.shape == (7,)
    np.testing.assert_array_equal(out.e_s, np.concatenate([out.e_max, out.e_lstm]))
    s = np.asarray(out.s_multi)
    assert np.all((s > 0) & (s < 1))
    assert np.all((out.e_max > 0) & (out.e_max < 1))
    # e_max dominates every row, with equality somewhere per column
    assert np.all(out.e_max[None, :] >= s)
    assert np.all((out.e_max[None, :] == s).any(axis=0))


def test_max_pool_permutation_invariant_full_encoding_not(lex):
    p = make_encoder("maxlstm", lex, H=6, l=6, seed=33)
    a = encode_one(p, lex, ["bob", "likes", "mary"])
    b = encode_one(p, lex, ["mary", "likes", "bob"])
    np.testing.assert_array_equal(a.e_max, b.e_max)
    assert np.max(np.abs(a.e_s - b.e_s)) > 1e-6


def test_max_pool_invariant_over_random_permutations(lex):
    p = make_encoder("maxlstm", lex)
    tokens = ["the", "red", "car", "runs", "fast"]
    base = encode_one(p, lex, tokens).e_max
    rng = stream(3, "perm")
    for _ in range(100):
        order = rng.permutation(len(tokens))
        shuffled = [tokens[i] for i in order]
        np.testing.assert_array_equal(encode_one(p, lex, shuffled).e_max, base)


def test_word_avg_cases(lex):
    p = make_encoder("word_avg", lex)
    one = encode_one(p, lex, ["dogs"]).e_s
    np.testing.assert_array_equal(one, lex.lookup_all(["dogs"])[0])
    # symmetric pair of opposite vectors averages to zero
    v = lex.lookup_all(["dogs"])[0]
    import pairsim.embeddings as em
    t = em.EmbeddingTable("pm", np.stack([v, -v]), {"plus": 0, "minus": 1})
    mirror = em.FusedLexicon(tables=[t], seed=0)
    p2 = enc.init_encoder("word_avg", v.shape[0], 4, 3, stream(21, "init"))
    np.testing.assert_allclose(encode_one(p2, mirror, ["plus", "minus"]).e_s,
                               np.zeros(v.shape[0]), atol=1e-15)


def test_proj_avg_zero_params(lex):
    p = make_encoder("proj_avg", lex)
    p.W_proj = np.zeros_like(p.W_proj)
    p.b_proj = np.zeros_like(p.b_proj)
    out = encode_one(p, lex, ["bob", "cats"]).e_s
    np.testing.assert_array_equal(out, np.full(lex.total_dim, 0.5))


def test_baseline_out_dims(lex):
    for kind, dim in [("word_avg", 8), ("proj_avg", 8), ("lstm_only", 3),
                      ("maxcnn_only", 4)]:
        p = make_encoder(kind, lex)
        assert p.out_dim == dim
        out = encode_one(p, lex, ["bob", "likes", "mary"]).e_s
        assert np.asarray(out).shape == (dim,)


def test_encode_empty_tokens_error(lex):
    p = make_encoder("maxlstm", lex)
    with pytest.raises(DataError):
        encode_one(p, lex, [])


def test_encoder_kind_validation(lex):
    with pytest.raises(ConfigError):
        enc.init_encoder("fancy", lex.total_dim, 4, 3, stream(0, "init"))


def test_encode_gradients_flow_through_sentence(lex):
    p = make_encoder("maxlstm", lex, H=3, l=2, seed=11)
    tokens = ["bob", "likes", "mary"]
    names = ("R", "b_r", "W_lstm", "U_lstm", "b_lstm")
    arrays = {n: getattr(p, n) for n in names}
    w = stream(12, "w").normal(size=5)

    def loss(leaves):
        q = enc.EncoderParams(kind="maxlstm", total_dim=lex.total_dim, H=3, l=2,
                              **{n: leaves[n] for n in names})
        out = enc.encode(q, lex, [tokens])
        return nc.vsum(nc.elementwise_mul(out.e_s, w[None]))

    report = nc.grad_check(loss, arrays)
    assert report.max_rel_err < 1e-6


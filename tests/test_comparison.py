import numpy as np
import pytest
from scipy.special import expit

from pairsim import comparison as cmp
from pairsim import model as md
from pairsim import numcore as nc
from pairsim import objectives as obj
from pairsim.errors import ConfigError
from pairsim.rng import stream

from oracles import scalar_cosine, scalar_sigmoid


def comparison_weights(rng, e_dim=4, word_dim=2, L=2, d_neu=2):
    """Multi-level comparison weights, drawn in the model's order."""
    w = {"comparison.W_neu": md.glorot(rng, d_neu, 2 * e_dim),
         "comparison.W_sent": md.glorot(rng, 5, 1 + 2 * e_dim + d_neu),
         "comparison.W_word": md.glorot(rng, 50, L * L),
         "comparison.W_ws": md.glorot(rng, 5, e_dim + word_dim),
         "comparison.W_ws2": md.glorot(rng, 100, 2 * L * 5)}
    w.update({n.replace(".W_", ".b_"): np.zeros(a.shape[0]) for n, a in w.items()})
    return w


def head_weights(in_dim, C, rng):
    """Head weights, drawn in the model's order."""
    return {"head.W_l1": md.glorot(rng, 250, in_dim), "head.b_l1": np.zeros(250),
            "head.W_l2": md.glorot(rng, C, 250), "head.b_l2": np.zeros(C)}


@pytest.fixture
def params():
    # toy dims: e_dim 4, word_dim 2, L 2, d_neu 2
    return comparison_weights(stream(17, "init"))


def rand(shape, seed):
    return stream(seed, "data").normal(size=shape)


def pair(first, second):
    """The pair stack of one pair: its two sentences' arrays on a new axis."""
    return np.stack([first, second])


def test_pad_or_truncate_cases():
    M = rand((3, 2), 1)
    np.testing.assert_array_equal(nc.pad_rows(M, [3], 3)[0], M)
    out = nc.pad_rows(M[:1], [1], 3)[0]
    np.testing.assert_array_equal(out[0], M[0])
    np.testing.assert_array_equal(out[1:], np.zeros((2, 2)))
    np.testing.assert_array_equal(nc.pad_rows(M, [3], 2)[0], M[:2])


def test_alignment_identical_single_word():
    v = np.array([[0.3, 0.8]])
    A = nc.cosine_rows(v, v)
    np.testing.assert_allclose(A, [[1.0]], atol=1e-15)


def test_alignment_matches_hand_cosines(params):
    s1 = rand((2, 2), 2)
    s2 = rand((2, 2), 3)
    A = nc.cosine_rows(s1, s2)
    for i in range(2):
        for j in range(2):
            assert abs(A[i, j] - scalar_cosine(s1[i], s2[j])) < 1e-12


def test_alignment_transpose_symmetry(params):
    s1 = rand((2, 2), 4)
    s2 = rand((2, 2), 5)
    np.testing.assert_array_equal(nc.cosine_rows(s1, s2),
                                  nc.cosine_rows(s2, s1).T)


def test_word_word_all_padding_gives_bias(params):
    s1 = np.zeros((2, 2))
    s2 = rand((2, 2), 6)
    out = cmp.word_word(params, pair(s1, s2))
    np.testing.assert_allclose(out, expit(params["comparison.b_word"]), atol=1e-15)


def test_word_word_range_and_shape(params):
    out = cmp.word_word(params, pair(rand((2, 2), 7), rand((2, 2), 8)))
    assert out.shape == (50,)
    assert np.all((out > 0) & (out < 1))


def test_sentence_features_hand_assembly(params):
    e1, e2 = rand(4, 9), rand(4, 10)
    d = cmp.sentence_features(params, pair(e1, e2))
    assert d.shape == (11,)  # 1 + 4 + 4 + 2
    assert abs(d[0] - scalar_cosine(e1, e2)) < 1e-12
    np.testing.assert_allclose(d[1:5], e1 * e2)
    np.testing.assert_allclose(d[5:9], np.abs(e1 - e2))
    np.testing.assert_allclose(d[9:], params["comparison.W_neu"] @ np.concatenate([e1, e2])
                               + params["comparison.b_neu"])


def test_sentence_features_identical_embeddings(params):
    e = rand(4, 11)
    d = cmp.sentence_features(params, pair(e, e))
    assert abs(d[0] - 1.0) < 1e-12
    np.testing.assert_array_equal(d[5:9], np.zeros(4))


def test_sentence_features_zero_neural_weights(params):
    params["comparison.W_neu"] = np.zeros_like(params["comparison.W_neu"])
    params["comparison.b_neu"] = np.array([0.25, -0.5])
    d = cmp.sentence_features(params, pair(rand(4, 12), rand(4, 13)))
    np.testing.assert_array_equal(d[9:], [0.25, -0.5])


def test_sentence_metric_symmetries(params):
    e1, e2 = rand(4, 14), rand(4, 15)
    d12 = cmp.sentence_features(params, pair(e1, e2))
    d21 = cmp.sentence_features(params, pair(e2, e1))
    np.testing.assert_allclose(d12[:9], d21[:9], atol=1e-15)  # cos, mul, abs
    assert np.max(np.abs(d12[9:] - d21[9:])) > 1e-8           # neural diff is ordered


def test_ws_rows_zero_weights(params):
    params["comparison.W_ws"] = np.zeros_like(params["comparison.W_ws"])
    params["comparison.b_ws"] = stream(16, "data").normal(size=5)
    rows = cmp.ws_rows(params, pair(rand(4, 17), rand(4, 16)),
                       pair(rand((2, 2), 15), rand((2, 2), 18)))
    assert rows.shape == (2, 2, 5)
    np.testing.assert_allclose(rows, np.tile(expit(params["comparison.b_ws"]), (2, 2, 1)),
                               atol=1e-15)


def test_ws_rows_match_scalar_loop(params):
    e = rand(4, 19)
    words = rand((2, 2), 20)
    # slot 0 joins the first embedding to the second sentence's words
    rows = cmp.ws_rows(params, pair(e, rand(4, 29)), pair(rand((2, 2), 30), words))[0]
    for i in range(2):
        paired = np.concatenate([e, words[i]])
        for k in range(5):
            want = scalar_sigmoid(sum(params["comparison.W_ws"][k, j] * paired[j]
                                      for j in range(6)) + params["comparison.b_ws"][k])
            assert abs(rows[i, k] - want) < 1e-12


def test_word_sentence_swap_swaps_blocks(params):
    e1, e2 = rand(4, 21), rand(4, 22)
    s1, s2 = rand((2, 2), 23), rand((2, 2), 24)
    f12 = cmp.word_sentence_features(params, pair(e1, e2), pair(s1, s2))
    f21 = cmp.word_sentence_features(params, pair(e2, e1), pair(s2, s1))
    half = f12.shape[0] // 2
    np.testing.assert_array_equal(f12[:half], f21[half:])
    np.testing.assert_array_equal(f12[half:], f21[:half])


def test_word_sentence_output(params):
    out = cmp.word_sentence(params, pair(rand(4, 25), rand(4, 26)),
                            pair(rand((2, 2), 27), rand((2, 2), 28)))
    assert out.shape == (100,)
    assert np.all((out > 0) & (out < 1))


def test_fuse_head_zero_weights_give_bias():
    head = head_weights(155, 3, stream(18, "init"))
    head["head.W_l1"] = np.zeros_like(head["head.W_l1"])
    head["head.W_l2"] = np.zeros_like(head["head.W_l2"])
    head["head.b_l2"] = np.array([1.0, -2.0, 0.5])
    logits = cmp.fuse_head(head, np.zeros(50), np.zeros(5), np.zeros(100), 0.5)
    np.testing.assert_array_equal(logits, [1.0, -2.0, 0.5])


def test_fuse_head_deterministic_in_inference():
    head = head_weights(155, 3, stream(19, "init"))
    args = (rand(50, 29), rand(5, 30), rand(100, 31))
    a = cmp.fuse_head(head, *args, 0.5, training=False)
    np.testing.assert_array_equal(a, cmp.fuse_head(head, *args, 0.5, training=False))


def test_fuse_head_matches_scalar_composition():
    head = head_weights(155, 3, stream(20, "init"))
    sw, ss, sws = rand(50, 32), rand(5, 33), rand(100, 34)
    got = cmp.fuse_head(head, sw, ss, sws, 0.0)
    sim = np.concatenate([sw, ss, sws])
    h = np.array([scalar_sigmoid(head["head.W_l1"][k] @ sim + head["head.b_l1"][k])
                  for k in range(250)])
    want = head["head.W_l2"] @ h + head["head.b_l2"]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_head_dropout_only_in_training():
    head = head_weights(5, 2, stream(21, "init"))
    sim = rand(5, 35)
    plain = cmp.head_logits(head, sim, 0.5, training=False)
    dropped = cmp.head_logits(head, sim, 0.5, training=True, rng=stream(1, "dropout"))
    assert np.any(plain != dropped)


def test_sent_mode_has_no_word_weights():
    def spec(encoder, comparison):     # e_dim 4, L 2, d_neu 2
        return md.ModelSpec(task="sts", encoder=encoder, comparison=comparison,
                            total_dim=4, H=2, l=2, L=2, d_neu=2, C=2,
                            score=obj.ScoreSpec(2, 0, 5))
    shapes = dict(md.parameter_shapes(spec("maxlstm", "sent")))
    assert not {"comparison.W_word", "comparison.W_ws", "comparison.W_ws2"} & set(shapes)
    assert shapes["comparison.W_sent"] == (5, 11)
    with pytest.raises(ConfigError):
        spec("word_avg", "multi")       # no per-word features


def test_comparison_backward_through_all_levels(params):
    head = head_weights(155, 3, stream(24, "init"))
    e1, e2 = rand(4, 36), rand(4, 37)
    s1, s2 = rand((3, 2), 38), rand((2, 2), 39)
    # head weights stay constant here: the full-model acceptance gradcheck
    # covers them, and this keeps the entry count small

    def loss(p):
        s_pair = nc.pad_rows(np.concatenate([s1, s2]), [3, 2], 2)
        e_pair = pair(e1, e2)
        logits = cmp.fuse_head(
            head,
            cmp.word_word(p, s_pair),
            cmp.sentence_sentence(p, e_pair),
            cmp.word_sentence(p, e_pair, s_pair), 0.0)
        return obj.kl_loss(obj.one_hot_target(1, 3), logits)

    report = nc.grad_check(loss, params)
    assert report.max_rel_err < 1e-4


def test_batched_comparison_equals_each_pair(params):
    """(B, ...) arguments give, row by row, what each pair gives alone."""
    head = head_weights(155, 3, stream(25, "init"))
    B = 3
    e, s = rand((B, 2, 4), 40), rand((B, 2, 2, 2), 42)
    s[1, 1, 1] = 0.0    # a padded row
    got = {"word": cmp.word_word(params, s),
           "sent": cmp.sentence_sentence(params, e),
           "ws": cmp.word_sentence(params, e, s)}
    got["logits"] = cmp.fuse_head(head, got["word"], got["sent"], got["ws"], 0.0)
    assert got["logits"].shape == (B, 3)
    for i in range(B):
        want = {"word": cmp.word_word(params, s[i]),
                "sent": cmp.sentence_sentence(params, e[i]),
                "ws": cmp.word_sentence(params, e[i], s[i])}
        want["logits"] = cmp.fuse_head(head, want["word"], want["sent"], want["ws"], 0.0)
        for key in want:
            np.testing.assert_allclose(got[key][i], want[key], rtol=1e-13, atol=1e-15)

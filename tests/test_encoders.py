import math

import numpy as np
import pytest

from promptlab import tensor as T
from promptlab.encoders import DualEncoder, EncoderConfig
from promptlab.errors import (
    CapacityError,
    CheckpointError,
    ConfigError,
    ParameterError,
    ShapeError,
    TokenizationError,
)
from gradcheck import assert_gradients_match
from toys import make_encoder, make_vocab, tiny_encoder


def embed_phrase(enc, text):
    return enc.embed_tokens(enc.vocabulary.encode_with_sentinels(text))


# -- config ---------------------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        EncoderConfig(vocab_size=10, embed_dim=30, num_heads=4).validate()


def test_config_rejects_nonpositive_temperature():
    with pytest.raises(ConfigError):
        EncoderConfig(vocab_size=10, temperature=0.0).validate()


def test_encoder_rejects_vocab_size_mismatch():
    vocab = make_vocab()
    with pytest.raises(ConfigError):
        DualEncoder(EncoderConfig(vocab_size=3, embed_dim=vocab.dim), vocab, seed=0)


# -- text branch -----------------------------------------------------------------


def test_encode_text_deterministic_bitwise():
    enc = make_encoder()
    x = embed_phrase(enc, "a photo of a cat")
    a, b = enc.encode_text(x), enc.encode_text(x)
    np.testing.assert_array_equal(a.data, b.data)


def test_encode_text_unit_norm():
    enc = make_encoder()
    for text in ("cat", "a photo of a dog", "red square bird"):
        feat = enc.encode_text(embed_phrase(enc, text))
        assert abs(np.linalg.norm(feat.data) - 1.0) < 1e-9


def test_noop_deep_hook_is_transparent():
    enc = make_encoder()
    x = embed_phrase(enc, "a photo of a bird")
    plain = enc.encode_text(x)
    hooked = enc.encode_text(x, deep_hook=lambda i, h: h)
    np.testing.assert_array_equal(plain.data, hooked.data)


def test_deep_hook_receives_each_interior_layer_once():
    enc = make_encoder()  # 4 layers -> hooks at 1, 2, 3
    seen = []

    def hook(i, h):
        seen.append(i)
        return h

    enc.encode_text(embed_phrase(enc, "cat"), deep_hook=hook)
    assert seen == [1, 2, 3]


def test_overlong_sequence_is_capacity_error():
    enc = make_encoder(max_seq_len=4)
    x = embed_phrase(enc, "a photo of a cat")
    with pytest.raises(CapacityError):
        enc.encode_text(x)


def test_batched_encode_matches_single():
    enc = make_encoder()
    names = ["cat", "dog", "bird"]
    batched = enc.encode_class_names(names)
    for i, name in enumerate(names):
        single = enc.encode_text(embed_phrase(enc, name))
        np.testing.assert_allclose(batched.data[i], single.data, atol=1e-12)


def test_encode_class_names_rejects_ragged():
    enc = make_encoder()
    with pytest.raises(ShapeError):
        enc.encode_class_names(["cat", "red cat"])


def test_encode_class_names_unknown_word():
    enc = make_encoder()
    with pytest.raises(TokenizationError):
        enc.encode_class_names(["zebra"])


# -- image branch -----------------------------------------------------------------


def test_encode_image_unit_norm_and_deterministic():
    enc = make_encoder()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(enc.config.image_dim)
    u1, u2 = enc.encode_image(x), enc.encode_image(x)
    assert abs(np.linalg.norm(u1.data) - 1.0) < 1e-9
    np.testing.assert_array_equal(u1.data, u2.data)


def test_encode_image_zero_input_is_unit_via_bias():
    enc = make_encoder()
    u = enc.encode_image(np.zeros(enc.config.image_dim))
    assert np.all(np.isfinite(u.data))
    assert abs(np.linalg.norm(u.data) - 1.0) < 1e-9


def test_encode_image_wrong_dim():
    enc = make_encoder()
    with pytest.raises(ShapeError):
        enc.encode_image(np.zeros(enc.config.image_dim + 1))


def test_encode_image_batch_matches_single():
    enc = make_encoder()
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((3, enc.config.image_dim))
    batch = enc.encode_image(xs)
    for i in range(3):
        np.testing.assert_allclose(batch.data[i], enc.encode_image(xs[i]).data, atol=1e-12)


# -- scoring -------------------------------------------------------------------------


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_equal_similarities_give_uniform_probs():
    enc = make_encoder()
    j = enc.config.joint_dim
    w = np.tile(unit(np.arange(1, j + 1.0)), (5, 1))
    u = T.Tensor(unit(np.ones(j)))
    p = enc.class_probabilities(u, T.Tensor(w))
    np.testing.assert_allclose(p.data, np.full(5, 0.2), atol=1e-12)


def test_probabilities_at_unit_temperature():
    enc = make_encoder()
    j = enc.config.joint_dim
    u = np.zeros(j)
    u[0] = 1.0
    w = np.zeros((2, j))
    w[0, 0] = 1.0  # cos = 1
    w[1, 1] = 1.0  # cos = 0
    p = enc.class_probabilities(T.Tensor(u), T.Tensor(w), temperature=1.0)
    e = math.e
    np.testing.assert_allclose(p.data, [e / (e + 1), 1 / (e + 1)], atol=1e-12)


def test_probability_ratio_at_paper_temperature():
    # cos sims (0.9, 0.1) at tau=0.07 -> p1/p2 = exp(0.8 / 0.07)
    enc = make_encoder()
    j = enc.config.joint_dim
    u = np.zeros(j)
    u[0] = 1.0
    w = np.zeros((2, j))
    w[0, :2] = [0.9, math.sqrt(1 - 0.81)]
    w[1, :2] = [0.1, math.sqrt(1 - 0.01)]
    p = enc.class_probabilities(T.Tensor(u), T.Tensor(w))
    ratio = p.data[0] / p.data[1]
    assert ratio == pytest.approx(math.exp(0.8 / 0.07), rel=1e-9)


def test_probabilities_sum_to_one():
    enc = make_encoder()
    rng = np.random.default_rng(5)
    u = T.Tensor(unit(rng.standard_normal(enc.config.joint_dim)))
    w = rng.standard_normal((7, enc.config.joint_dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    p = enc.class_probabilities(u, T.Tensor(w))
    assert abs(p.data.sum() - 1.0) < 1e-9


def test_probabilities_shift_invariant_and_monotone():
    # common additive shift of similarities cancels; raising one sim raises its prob
    sims = np.array([0.3, -0.1, 0.5])
    tau = 0.07
    base = T.softmax(T.scale(T.Tensor(sims), 1 / tau)).data
    shifted = T.softmax(T.scale(T.Tensor(sims + 0.37), 1 / tau)).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    bumped = T.softmax(T.scale(T.Tensor([0.3, -0.05, 0.5]), 1 / tau)).data
    assert bumped[1] > base[1]


def test_argmax_invariant_to_temperature():
    enc = make_encoder()
    rng = np.random.default_rng(6)
    j = enc.config.joint_dim
    u = T.Tensor(unit(rng.standard_normal(j)))
    w = rng.standard_normal((6, j))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    picks = set()
    for tau in (0.01, 0.07, 1.0, 100.0):
        p = enc.class_probabilities(u, T.Tensor(w), temperature=tau)
        picks.add(int(np.argmax(p.data)))
    assert len(picks) == 1


def test_nonpositive_temperature_rejected():
    enc = make_encoder()
    u = T.Tensor(np.ones(enc.config.joint_dim))
    w = T.Tensor(np.ones((2, enc.config.joint_dim)))
    with pytest.raises(ParameterError):
        enc.class_logits(u, w, temperature=-0.07)


# -- freezing ----------------------------------------------------------------------


def test_all_encoder_weights_frozen():
    enc = make_encoder()
    assert all(not p.requires_grad for p in enc.parameters().values())


def test_backward_through_encoder_leaves_weights_untouched():
    enc = make_encoder()
    before = enc.weights_fingerprint()
    soft = T.Tensor(np.random.default_rng(8).standard_normal((3, enc.config.embed_dim)) * 0.02,
                    requires_grad=True)
    ids = enc.vocabulary.encode_with_sentinels("cat")
    hard = enc.embed_tokens(ids)
    seq = T.concat([T.narrow(hard, 0, 0, 1), soft, T.narrow(hard, 0, 1, len(ids))], axis=0)
    feat = enc.encode_text(seq)
    T.tsum(T.mul(feat, feat)).backward()
    assert np.any(soft.grad != 0)
    assert enc.weights_fingerprint() == before
    assert all(p.grad is None for p in enc.parameters().values())


# -- gradients through the full text stack ----------------------------------------------


def test_text_encoder_gradients_vs_finite_differences():
    enc = tiny_encoder()
    rng = np.random.default_rng(9)
    soft = T.Tensor(rng.standard_normal((2, 8)) * 0.1, requires_grad=True)
    ids = enc.vocabulary.encode_with_sentinels("red cat")
    hard = enc.embed_tokens(ids)
    target = T.Tensor(rng.standard_normal(6))

    def build():
        seq = T.concat([T.narrow(hard, 0, 0, 1), soft, T.narrow(hard, 0, 1, len(ids))], axis=0)
        return T.tsum(T.mul(enc.encode_text(seq), target))

    assert_gradients_match(build, [soft])


def test_full_stack_every_parameter_gradient():
    # unfreeze a tiny encoder and check every weight against finite differences
    enc = tiny_encoder(seed=11)
    for p in enc.parameters().values():
        p.requires_grad = True
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((2, enc.config.image_dim))
    labels = [0, 1]
    names = ["cat", "dog"]

    def build():
        w = enc.encode_class_names(names)
        u = enc.encode_image(xs)
        return T.cross_entropy(enc.class_logits(u, w), labels)

    params = [p for p in enc.parameters().values() if p.size <= 256]
    assert_gradients_match(build, params)


def test_frozen_rows_are_built_once_and_follow_the_table():
    enc = make_encoder()
    ids = enc.vocabulary.encode("red cat")
    rows = enc.frozen_rows(ids)
    assert enc.frozen_rows(list(ids)) is rows
    np.testing.assert_array_equal(rows.data, enc.token_embedding.data[ids])
    assert not rows.requires_grad
    enc.token_embedding.data = enc.token_embedding.data + 1.0  # replaced weights
    np.testing.assert_array_equal(enc.frozen_rows(ids).data, enc.token_embedding.data[ids])


def test_frozen_rows_keep_gradients_of_an_unfrozen_table():
    enc = make_encoder()
    enc.token_embedding.requires_grad = True
    T.tsum(enc.frozen_rows([2, 3])).backward()
    assert enc.token_embedding.grad[2:4].all() and not enc.token_embedding.grad[4:].any()


def test_loaded_encoder_rows_come_from_the_checkpoint(tmp_path):
    import json

    enc = make_encoder()
    ids = enc.vocabulary.encode("cat")
    enc.frozen_rows(ids)
    path = tmp_path / "enc.json"
    enc.save(str(path))
    payload = json.loads(path.read_text())
    payload["weights"]["token_embedding"] = (2.0 * enc.token_embedding.data).tolist()
    path.write_text(json.dumps(payload))
    clone = DualEncoder.load(str(path))
    np.testing.assert_array_equal(clone.frozen_rows(ids).data, 2.0 * enc.token_embedding.data[ids])


def test_checkpoint_round_trip():
    import os
    import tempfile

    enc = make_encoder()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "enc.json")
        enc.save(path)
        clone = DualEncoder.load(path, expected_config=enc.config)
        assert clone.weights_fingerprint() == enc.weights_fingerprint()
        x = embed_phrase(enc, "a photo of a fish")
        np.testing.assert_array_equal(enc.encode_text(x).data, clone.encode_text(x).data)


def test_checkpoint_config_mismatch_rejected():
    import os
    import tempfile

    enc = make_encoder()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "enc.json")
        enc.save(path)
        other = EncoderConfig(
            vocab_size=enc.config.vocab_size,
            embed_dim=enc.config.embed_dim,
            joint_dim=enc.config.joint_dim + 2,
        )
        with pytest.raises(CheckpointError) as err:
            DualEncoder.load(path, expected_config=other)
        assert "joint_dim" in str(err.value)

import math
import re

import numpy as np
import pytest

from promptlab import tensor as T
from promptlab.config import MLP_RATIO
from promptlab.encoders import DualEncoder, EncoderConfig, RowStack
from promptlab.errors import (
    CapacityError,
    CheckpointError,
    ConfigError,
    ShapeError,
    TokenizationError,
)
from gradcheck import assert_gradients_match
from toys import make_encoder, make_vocab, tiny_encoder


def one_sequence(seq):
    """A row stack of one composed sequence [L, d]."""
    return RowStack(seq, ((1, seq.shape[0]),))


def embed_phrase(enc, text):
    """A row stack of one composed sequence, a phrase's token rows."""
    return one_sequence(enc.embed_tokens(enc.vocabulary.encode_with_sentinels(text)))


# -- config ---------------------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        EncoderConfig(embed_dim=30, num_heads=4).validate()


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


def test_group_longer_than_max_seq_len_is_capacity_error():
    # the second group is too long; the first alone fits
    enc = make_encoder(max_seq_len=4)
    rows = T.Tensor(np.zeros((2 * 3 + 5, enc.config.embed_dim)))
    with pytest.raises(CapacityError, match="sequence length 5 exceeds max_seq_len 4"):
        enc.encode_text(RowStack(rows, ((2, 3), (1, 5))))


@pytest.mark.parametrize("groups", [((2, 3),), ((2, 3), (1, 4)), ()], ids=["short", "long", "none"])
def test_groups_that_do_not_cover_the_stack_are_shape_error(groups):
    enc = make_encoder()
    rows = T.Tensor(np.zeros((7, enc.config.embed_dim)))
    with pytest.raises(ShapeError, match=r"that its groups cover, got rows \(7, 32\)"):
        enc.encode_text(RowStack(rows, groups))


def test_encode_class_names_reads_the_token_table():
    # one gather on the token table gives the bytes of the stacked per-name rows
    enc = make_encoder()
    names = ["cat", "dog", "bird"]
    rows = T.concat([enc.embed_tokens(enc.vocabulary.encode_with_sentinels(n)) for n in names],
                    axis=0)
    np.testing.assert_array_equal(enc.encode_class_names(names).data,
                                  enc.encode_text(RowStack(rows, ((3, 3),))).data)


# features of two random [5, 8] sequences from a last block computed at every
# position, which the read-out-only block must reproduce; keyed by
# (num_layers, num_heads)
TEXT_FEATURE_PINS = {
    (1, 1): [
        [-0.557984698544487, 0.3613624731832171, 0.6879558291914445, -0.2911821015203087],
        [0.0977802613248276, -0.23905717831225937, 0.684536488606041, 0.681689432042405],
    ],
    (1, 4): [
        [-0.4943466616477194, -0.11887825327497298, -0.8589797846077334, 0.06035783834812437],
        [0.04613768512876489, 0.10439510370076696, -0.963064530981592, 0.24388457413013087],
    ],
    (2, 1): [
        [-0.14712068975788292, 0.6865741053860347, -0.17169897303470874, 0.6910072091637769],
        [0.6122232083486207, 0.49682671854770294, -0.18249468442539918, 0.5874024557758664],
    ],
    (2, 4): [
        [0.5348662397999321, -0.24714735972277127, -0.8076356316099264, -0.023684903576860903],
        [0.46887479547617567, -0.682700136512378, -0.12128940107641521, -0.5471433367577152],
    ],
}


@pytest.mark.parametrize("layers, heads", sorted(TEXT_FEATURE_PINS))
def test_encode_text_features_are_pinned(layers, heads):
    vocab = make_vocab(dim=8)
    cfg = EncoderConfig(embed_dim=8, num_layers=layers, num_heads=heads, max_seq_len=16,
                        joint_dim=4, image_dim=5, image_hidden_dim=7)
    enc = DualEncoder(cfg, vocab, 11)
    embeds = np.random.default_rng(layers * 10 + heads).standard_normal((2, 5, 8))
    pinned = np.array(TEXT_FEATURE_PINS[layers, heads])
    stack = RowStack(T.Tensor(embeds.reshape(10, 8)), ((2, 5),))
    np.testing.assert_allclose(enc.encode_text(stack).data, pinned, rtol=0, atol=1e-12)


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
    x = rng.standard_normal((1, enc.config.image_dim))
    u1, u2 = enc.encode_image(x), enc.encode_image(x)
    assert abs(np.linalg.norm(u1.data) - 1.0) < 1e-9
    np.testing.assert_array_equal(u1.data, u2.data)


def test_encode_image_zero_input_is_unit_via_bias():
    enc = make_encoder()
    u = enc.encode_image(np.zeros((1, enc.config.image_dim)))
    assert np.all(np.isfinite(u.data))
    assert abs(np.linalg.norm(u.data) - 1.0) < 1e-9


def test_encode_image_wrong_dim():
    enc = make_encoder()
    with pytest.raises(ShapeError):
        enc.encode_image(np.zeros((1, enc.config.image_dim + 1)))


# -- scoring -------------------------------------------------------------------------


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_equal_similarities_give_uniform_probs():
    enc = make_encoder()
    j = enc.config.joint_dim
    w = np.tile(unit(np.arange(1, j + 1.0)), (5, 1))
    u = T.Tensor([unit(np.ones(j))])
    p = T.softmax(enc.class_logits(u, T.Tensor(w)), axis=-1)
    np.testing.assert_allclose(p.data, np.full((1, 5), 0.2), atol=1e-12)


def test_probability_ratio_at_paper_temperature():
    # cos sims (0.9, 0.1) at tau=0.07 -> p1/p2 = exp(0.8 / 0.07)
    enc = make_encoder()
    j = enc.config.joint_dim
    u = np.zeros((1, j))
    u[0, 0] = 1.0
    w = np.zeros((2, j))
    w[0, :2] = [0.9, math.sqrt(1 - 0.81)]
    w[1, :2] = [0.1, math.sqrt(1 - 0.01)]
    p = T.softmax(enc.class_logits(T.Tensor(u), T.Tensor(w)), axis=-1)
    ratio = p.data[0, 0] / p.data[0, 1]
    assert ratio == pytest.approx(math.exp(0.8 / 0.07), rel=1e-9)


def test_probabilities_sum_to_one():
    enc = make_encoder()
    rng = np.random.default_rng(5)
    u = T.Tensor([unit(rng.standard_normal(enc.config.joint_dim))])
    w = rng.standard_normal((7, enc.config.joint_dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    p = T.softmax(enc.class_logits(u, T.Tensor(w)), axis=-1)
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


# per entry point: the batched shape its error names, and a call with one unbatched input
# (for encode_text, a batch [1, L, d] where the row stack's rows [R, d] belong)
UNBATCHED_CALLS = {
    "encode_text": ("[R, 32]", lambda enc: enc.encode_text(RowStack(
        T.stack([enc.embed_tokens(enc.vocabulary.encode_with_sentinels("cat"))]), ((1, 3),)))),
    "encode_image": ("[B, 16]", lambda enc: enc.encode_image(np.zeros(enc.config.image_dim))),
    "class_logits": ("[B, joint]", lambda enc: enc.class_logits(
        T.Tensor(unit(np.ones(enc.config.joint_dim))), enc.encode_class_names(["cat"]))),
}


@pytest.mark.parametrize("entry", sorted(UNBATCHED_CALLS))
def test_entry_point_rejects_unbatched_input(entry):
    shape, call = UNBATCHED_CALLS[entry]
    with pytest.raises(ShapeError, match=rf"^{entry} expects .*{re.escape(shape)}"):
        call(make_encoder())


def oracle_block(enc, layer, h, readout):
    """One encoder block from primitive ops, with per-head slices (the fused block's oracle)."""
    p, cfg = enc.parameters(), enc.config
    base = f"layers.{layer}."
    seq_len = h.shape[-2]
    q_len = 1 if readout else seq_len
    ones, zeros = T.Tensor(np.ones(cfg.embed_dim)), T.Tensor(np.zeros(cfg.embed_dim))
    normed = T.layer_norm(h, ones, zeros)  # the blocks' norms have no affine
    wkv, d = p[base + "attn.wkv"], cfg.embed_dim  # [wqk | wv]
    wqk, wv = T.narrow(wkv, -1, 0, d), T.narrow(wkv, -1, d, 2 * d)
    q = T.matmul(T.narrow(normed, -2, seq_len - q_len, seq_len), wqk)
    k = T.matmul(normed, wqk)
    v = T.matmul(normed, wv)
    head_dim = cfg.embed_dim // cfg.num_heads
    mask = T.Tensor(np.diag(np.full(seq_len, -1e9))[seq_len - q_len:])
    heads = []
    for lo in range(0, cfg.embed_dim, head_dim):
        qh, kh, vh = (T.narrow(t, -1, lo, lo + head_dim) for t in (q, k, v))
        scores = T.scale(T.matmul(qh, T.transpose_last(kh)), 1.0 / math.sqrt(head_dim))
        heads.append(T.matmul(T.softmax(scores + mask, axis=-1), vh))
    h = T.narrow(h, -2, seq_len - q_len, seq_len) + T.matmul(
        T.concat(heads, axis=-1), p[base + "attn.wo"])
    normed = T.layer_norm(h, ones, zeros)
    inner = T.gelu(T.matmul(normed, p[base + "mlp.w1"]))
    return h + T.matmul(inner, p[base + "mlp.w2"])


# two-group row stacks: 26 rows, and 624 rows, past the 448 rows up to which
# _row_products makes one product (the first group's 480 rows too)
BLOCK_STACKS = (("", ((3, 6), (2, 4))), ("-624_rows", ((40, 12), (16, 9))))


@pytest.mark.parametrize("readout", [False, True], ids=["full", "readout"])
@pytest.mark.parametrize("heads, groups", [pytest.param(heads, groups, id=f"{heads}{rows}")
                                           for rows, groups in BLOCK_STACKS for heads in (1, 4)])
def test_fused_block_matches_primitive_ops(heads, groups, readout):
    # the fused block over a row stack of two groups against the oracle on each
    # group's [count, length, d] batch: values and input gradients, group by group
    enc = make_encoder(num_heads=heads, num_layers=2)
    rng = np.random.default_rng(heads)
    d = enc.config.embed_dim
    xs = [rng.standard_normal((count, length, d)) for count, length in groups]
    targets = [rng.standard_normal((count, 1 if readout else length, d))
               for count, length in groups]
    h = T.Tensor(np.concatenate([x.reshape(-1, d) for x in xs]), requires_grad=True)
    fused = enc._block(1, h, groups, readout)
    T.tsum(T.mul(fused, T.Tensor(np.concatenate([t.reshape(-1, d) for t in targets])))).backward()
    out_start = in_start = 0
    for (count, length), x, target in zip(groups, xs, targets):
        group_h = T.Tensor(x, requires_grad=True)
        oracle = oracle_block(enc, 1, group_h, readout)
        T.tsum(T.mul(oracle, T.Tensor(target))).backward()
        out_rows = count * target.shape[1]
        np.testing.assert_allclose(fused.data[out_start:out_start + out_rows],
                                   oracle.data.reshape(-1, d), rtol=0, atol=1e-12)
        np.testing.assert_allclose(h.grad[in_start:in_start + count * length],
                                   group_h.grad.reshape(-1, d), rtol=0, atol=1e-12)
        out_start += out_rows
        in_start += count * length


# -- freezing ----------------------------------------------------------------------


def test_all_encoder_weights_frozen():
    enc = make_encoder()
    assert all(not p.requires_grad for p in enc.parameters().values())


def test_text_blocks_hold_no_identity_weights():
    # no norm has an affine and no MLP biases, and [wqk | wv] is one weight:
    # four weights per block
    enc = make_encoder()
    names = set(enc.parameters())
    assert enc.config.num_layers == 4 and len(names) == 23
    assert not any(n.startswith("ln_final.") for n in names)
    for i in range(4):
        block = {n.split(".", 2)[2] for n in names if n.startswith(f"layers.{i}.")}
        assert block == {"attn.wkv", "attn.wo", "mlp.w1", "mlp.w2"}


def test_backward_through_encoder_leaves_weights_untouched():
    enc = make_encoder()
    before = enc.weights_fingerprint()
    soft = T.Tensor(np.random.default_rng(8).standard_normal((3, enc.config.embed_dim)) * 0.02,
                    requires_grad=True)
    ids = enc.vocabulary.encode_with_sentinels("cat")
    hard = enc.embed_tokens(ids)
    seq = T.concat([T.narrow(hard, 0, 0, 1), soft, T.narrow(hard, 0, 1, len(ids))], axis=0)
    feat = enc.encode_text(one_sequence(seq))
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
        return T.tsum(T.mul(enc.encode_text(one_sequence(seq)), target))

    assert_gradients_match(build, [soft])


def test_full_stack_every_parameter_gradient():
    # unfreeze every weight outside the transformer blocks (the fused block ops
    # take frozen weights) and check each against finite differences
    enc = tiny_encoder(seed=11)
    for name, p in enc.parameters().items():
        p.requires_grad = not name.startswith("layers.")
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((2, enc.config.image_dim))
    labels = [0, 1]
    names = ["cat", "dog"]

    def build():
        w = enc.encode_class_names(names)
        u = enc.encode_image(xs)
        return T.cross_entropy(enc.class_logits(u, w), labels)

    params = [p for p in enc.parameters().values() if p.requires_grad and p.size <= 256]
    assert_gradients_match(build, params)


def test_loaded_encoder_rows_come_from_the_checkpoint(tmp_path):
    import json

    enc = make_encoder()
    ids = enc.vocabulary.encode("cat")
    path = tmp_path / "enc.json"
    enc.save(str(path))
    payload = json.loads(path.read_text())
    payload["weights"]["token_embedding"] = (2.0 * enc.token_embedding.data).tolist()
    path.write_text(json.dumps(payload))
    clone = DualEncoder.load(str(path))
    np.testing.assert_array_equal(clone.embed_tokens(ids).data, 2.0 * enc.token_embedding.data[ids])


def test_checkpoint_round_trip():
    import os
    import tempfile

    enc = make_encoder()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "enc.json")
        enc.save(path)
        clone = DualEncoder.load(path)
        assert clone.weights_fingerprint() == enc.weights_fingerprint()
        x = embed_phrase(enc, "a photo of a fish")
        np.testing.assert_array_equal(enc.encode_text(x).data, clone.encode_text(x).data)


@pytest.mark.parametrize("value", [None, "x", [1.0, [2.0]]], ids=["missing", "string", "ragged"])
def test_checkpoint_with_a_bad_weight_names_the_file_and_the_weight(value, tmp_path):
    import json

    path = tmp_path / "enc.json"
    make_encoder().save(str(path))
    payload = json.loads(path.read_text())
    if value is None:
        del payload["weights"]["image.b1"]
    else:
        payload["weights"]["image.b1"] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: .*weight image.b1"):
        DualEncoder.load(str(path))


def test_checkpoint_with_an_unknown_weight_names_the_file_and_the_weight(tmp_path):
    # a file with its own key projection must not load as if it were tied, nor
    # one that stores [wqk | wv] as two weights or the final norm's affine
    import json

    path = tmp_path / "enc.json"
    enc = make_encoder()
    enc.save(str(path))
    saved, d = path.read_text(), enc.config.embed_dim
    for name in ("layers.0.attn.wk", "layers.0.attn.wqk", "layers.0.attn.wv", "ln_final.gain",
                 "ln_final.bias"):
        payload = json.loads(saved)
        payload["weights"][name] = [1.0] * d if name.startswith("ln_final.") else [[0.0] * d] * d
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: unknown weight {name}$"):
            DualEncoder.load(str(path))


def test_checkpoint_with_block_norm_affines_and_mlp_biases_is_rejected(tmp_path):
    # files written while the blocks still stored unit norms and zero biases
    import json

    path = tmp_path / "enc.json"
    enc = make_encoder()
    enc.save(str(path))
    payload = json.loads(path.read_text())
    d = enc.config.embed_dim
    for i in range(enc.config.num_layers):
        for name, value in (("ln1.gain", 1.0), ("ln1.bias", 0.0), ("ln2.gain", 1.0),
                            ("ln2.bias", 0.0), ("mlp.b1", 0.0), ("mlp.b2", 0.0)):
            width = MLP_RATIO * d if name == "mlp.b1" else d
            payload["weights"][f"layers.{i}.{name}"] = [value] * width
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError,
                       match=f"^{re.escape(str(path))}: unknown weight layers.0.ln1.bias$"):
        DualEncoder.load(str(path))

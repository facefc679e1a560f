import numpy as np
import pytest

from promptlab import tensor as T
from promptlab.errors import ConfigError, ContractError, ParameterError, TokenizationError
from promptlab.optim import SGD
from promptlab.prompts import (
    DROP_POLICIES,
    POSITION_STYLES,
    LayerState,
    PromptLayout,
    SoftPromptBank,
    apply_drop_policy,
    candidate_features,
    class_text_features,
    compose_classic,
    compose_shallow,
    deep_forward,
    init_soft_tokens,
    template_rows_for,
)
from toys import make_encoder


def make_bank(enc, soft_len=2, attrs=("color", "shape"), attr_soft_len=2, depth=1, seed=0,
              scheme="random_normal"):
    return SoftPromptBank.create(
        embed_dim=enc.config.embed_dim,
        soft_len=soft_len,
        attribute_names=attrs,
        attr_soft_len=attr_soft_len,
        depth=depth,
        seed=seed,
        scheme=scheme,
        template_rows=template_rows_for(enc),
    )


# -- composition lengths ----------------------------------------------------------


def test_classic_length_arithmetic():
    enc = make_encoder()
    bank = make_bank(enc, soft_len=2, attrs=())
    prompt = compose_classic(enc, bank, "cat")
    assert prompt.length == 5  # [SOS] T1 T2 cat [EOS]
    kinds = [s.kind for s in prompt.segments]
    assert kinds == ["sentinel_prefix", "class_soft", "class_hard", "sentinel_suffix"]


def test_classic_zero_soft_tokens_degenerates_to_hard_prompt():
    enc = make_encoder()
    bank = make_bank(enc, soft_len=0, attrs=())
    prompt = compose_classic(enc, bank, "cat")
    assert prompt.length == 3
    np.testing.assert_array_equal(
        prompt.embeds.data,
        enc.embed_tokens(enc.vocabulary.encode_with_sentinels("cat")).data,
    )


def test_shallow_interval_length_arithmetic():
    # M=2, a_m=2, two 1-token attributes, 1-token class: 2+1+2+1+2+1 = 9 interior
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color", "shape"))
    prompt = compose_shallow(enc, bank, layout, "cat")
    assert prompt.length == 11
    assert sum(s.length for s in prompt.segments) == 11


def test_multiword_class_name_occupies_consecutive_rows():
    enc = make_encoder()
    bank = make_bank(enc, attrs=())
    prompt = compose_shallow(enc, bank, PromptLayout(), "red cat")
    (seg,) = prompt.segments_of("class_hard")
    assert seg.length == 2


def test_empty_attribute_list_reduces_to_classic():
    enc = make_encoder()
    bank = make_bank(enc)
    classic = compose_classic(enc, bank, "dog")
    shallow = compose_shallow(enc, bank, PromptLayout(attribute_names=()), "dog")
    np.testing.assert_array_equal(classic.embeds.data, shallow.embeds.data)
    assert [(s.kind, s.start, s.stop) for s in classic.segments] == [
        (s.kind, s.start, s.stop) for s in shallow.segments
    ]


def test_unknown_attribute_word_is_tokenization_error():
    enc = make_encoder()
    bank = SoftPromptBank.create(enc.config.embed_dim, 2, ("texture",), 2)
    layout = PromptLayout(attribute_names=("texture",))
    with pytest.raises(TokenizationError):
        compose_shallow(enc, bank, layout, "cat")


def test_bank_missing_attribute_block_is_contract_error():
    enc = make_encoder()
    bank = make_bank(enc, attrs=("color",))
    with pytest.raises(ContractError):
        compose_shallow(enc, bank, PromptLayout(attribute_names=("shape",)), "cat")


# -- class token position ------------------------------------------------------------


def test_class_position_front_precedes_attributes():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color", "shape"), class_token_position="front")
    prompt = compose_shallow(enc, bank, layout, "cat")
    kinds = [s.kind for s in prompt.segments]
    assert kinds.index("class_soft") < kinds.index("attr_soft")
    assert kinds.index("class_hard") < kinds.index("attr_soft")


def test_class_position_middle_sits_between_attribute_units():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color", "shape"), class_token_position="middle")
    prompt = compose_shallow(enc, bank, layout, "cat")
    names = [s.name for s in prompt.segments if s.kind == "attr_hard"]
    kinds_names = [(s.kind, s.name) for s in prompt.segments]
    assert names == ["color", "shape"]
    assert kinds_names.index(("class_hard", "cat")) < kinds_names.index(("attr_soft", "shape"))
    assert kinds_names.index(("class_hard", "cat")) > kinds_names.index(("attr_hard", "color"))


def test_class_positions_preserve_block_multiset():
    enc = make_encoder()
    bank = make_bank(enc)
    base = None
    for pos in ("front", "middle", "end"):
        layout = PromptLayout(attribute_names=("color", "shape"), class_token_position=pos)
        prompt = compose_shallow(enc, bank, layout, "cat")
        multiset = sorted((s.kind, s.name, s.length) for s in prompt.segments)
        if base is None:
            base = multiset
        assert multiset == base


def test_nonend_class_position_requires_interval_style():
    with pytest.raises(ConfigError):
        PromptLayout(
            attribute_names=("color",),
            class_token_position="front",
            attribute_position_style="separate",
        ).validate()


# -- position styles ----------------------------------------------------------------


def test_every_style_partitions_and_preserves_length():
    enc = make_encoder()
    bank = make_bank(enc)
    lengths = set()
    for style in POSITION_STYLES:
        layout = PromptLayout(attribute_names=("color", "shape"),
                              attribute_position_style=style)
        prompt = compose_shallow(enc, bank, layout, "cat")
        prompt.check_partition()
        lengths.add(prompt.length)
    assert len(lengths) == 1


def test_separate_style_puts_attributes_after_class_token():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color",), attribute_position_style="separate")
    prompt = compose_shallow(enc, bank, layout, "cat")
    kinds = [s.kind for s in prompt.segments]
    assert kinds.index("attr_hard") > kinds.index("class_hard")


def test_adjacent_front_puts_hard_attributes_first():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color", "shape"),
                          attribute_position_style="adjacent_front")
    prompt = compose_shallow(enc, bank, layout, "cat")
    kinds = [s.kind for s in prompt.segments]
    assert kinds[1] == "attr_hard" and kinds[2] == "attr_hard"


# -- initialization -------------------------------------------------------------------


def test_random_normal_statistics():
    enc = make_encoder()
    bank = SoftPromptBank.create(enc.config.embed_dim, 200, ("color",), 200, seed=5)
    values = np.concatenate(
        [bank.class_block.data.ravel(), bank.attribute_blocks["color"].data.ravel()]
    )
    assert values.size >= 10_000
    assert abs(values.mean()) < 0.002
    assert abs(values.std() - 0.02) < 0.002


def test_same_seed_gives_identical_banks():
    enc = make_encoder()
    a = make_bank(enc, seed=3)
    b = make_bank(enc, seed=3)
    np.testing.assert_array_equal(a.class_block.data, b.class_block.data)
    for name in a.attribute_blocks:
        np.testing.assert_array_equal(
            a.attribute_blocks[name].data, b.attribute_blocks[name].data
        )


def test_attribute_init_independent_of_declaration_order():
    enc = make_encoder()
    a = make_bank(enc, attrs=("color", "shape"), seed=3)
    b = make_bank(enc, attrs=("shape", "color"), seed=3)
    for name in ("color", "shape"):
        np.testing.assert_array_equal(
            a.attribute_blocks[name].data, b.attribute_blocks[name].data
        )


def test_phrase_init_copies_template_rows():
    enc = make_encoder()
    bank = make_bank(enc, soft_len=4, attrs=(), scheme="phrase_init")
    np.testing.assert_array_equal(
        bank.class_block.data[0], enc.token_embedding.data[enc.vocabulary.id_of("a")]
    )
    np.testing.assert_array_equal(
        bank.class_block.data[1], enc.token_embedding.data[enc.vocabulary.id_of("photo")]
    )


def test_phrase_init_truncates_and_pads():
    enc = make_encoder()
    short = make_bank(enc, soft_len=2, attrs=(), scheme="phrase_init")
    assert short.class_block.shape == (2, enc.config.embed_dim)
    long = make_bank(enc, soft_len=6, attrs=(), scheme="phrase_init")
    tail = long.class_block.data[4:]
    assert np.all(np.abs(tail) < 0.2)  # padded rows are small random normals
    assert np.any(tail != 0)


def test_unknown_init_scheme_rejected():
    enc = make_encoder()
    bank = make_bank(enc)
    with pytest.raises(ParameterError):
        init_soft_tokens(bank, "zeros", seed=0)


# -- bank invariants ----------------------------------------------------------------


def test_bank_rejects_ragged_attribute_blocks():
    with pytest.raises(ContractError):
        SoftPromptBank(
            T.Tensor(np.zeros((2, 8)), requires_grad=True),
            {
                "color": T.Tensor(np.zeros((2, 8)), requires_grad=True),
                "shape": T.Tensor(np.zeros((3, 8)), requires_grad=True),
            },
            [],
        )


def test_bank_rejects_deep_block_length_mismatch():
    with pytest.raises(ContractError):
        SoftPromptBank(
            T.Tensor(np.zeros((2, 8)), requires_grad=True),
            {},
            [T.Tensor(np.zeros((3, 8)), requires_grad=True)],
        )


def test_bank_round_trip():
    enc = make_encoder()
    bank = make_bank(enc, depth=3)
    clone = SoftPromptBank.from_dict(bank.to_dict())
    np.testing.assert_array_equal(clone.class_block.data, bank.class_block.data)
    assert set(clone.attribute_blocks) == set(bank.attribute_blocks)
    assert len(clone.deep_class_blocks) == 2


def test_only_soft_tokens_require_grad():
    enc = make_encoder()
    bank = make_bank(enc)
    prompt = compose_shallow(enc, bank, PromptLayout(attribute_names=("color", "shape")), "cat")
    assert all(p.requires_grad for p in bank.parameters())
    for seg in prompt.segments:
        piece = T.narrow(prompt.embeds, 0, seg.start, seg.stop)
        assert piece.requires_grad  # embeds as a whole carries grads from soft blocks


def test_gradient_reaches_every_soft_block():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color", "shape"))
    target = T.Tensor(np.random.default_rng(0).standard_normal(enc.config.joint_dim))
    feats = class_text_features(enc, bank, layout, ["cat"])
    T.tsum(T.mul(feats, target)).backward()
    assert np.any(bank.class_block.grad != 0)
    for name, block in bank.attribute_blocks.items():
        assert np.any(block.grad != 0), f"attribute block {name} got zero gradient"


def test_hard_embeddings_get_zero_gradient():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color",))
    feats = class_text_features(enc, bank, layout, ["cat"])
    T.tsum(feats).backward()
    assert enc.token_embedding.grad is None


# -- deep variant -----------------------------------------------------------------------


def test_depth_one_deep_forward_equals_shallow():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color", "shape"), depth=1)
    deep = deep_forward(enc, bank, layout, "cat")
    shallow = enc.encode_text(compose_shallow(enc, bank, layout, "cat").embeds)
    np.testing.assert_array_equal(deep.data, shallow.data)


def test_deep_sequence_length_constant_across_layers():
    enc = make_encoder()
    bank = make_bank(enc, depth=3)
    layout = PromptLayout(attribute_names=("color", "shape"), depth=3)
    prompt = compose_shallow(enc, bank, layout, "cat")
    seen = []
    orig = enc.encode_text

    def spy(embeds, deep_hook=None):
        def wrapped(i, h):
            out = deep_hook(i, h)
            seen.append(out.shape[-2])
            return out

        return orig(embeds, deep_hook=wrapped if deep_hook else None)

    enc.encode_text = spy
    try:
        deep_forward(enc, bank, layout, "cat")
    finally:
        enc.encode_text = orig
    assert seen == [prompt.length] * (enc.config.num_layers - 1)


def test_deep_depth_exceeding_layers_is_config_error():
    enc = make_encoder()
    bank = make_bank(enc, depth=6)
    layout = PromptLayout(attribute_names=("color",), depth=6)
    with pytest.raises(ConfigError):
        deep_forward(enc, bank, layout, "cat")


def test_deep_missing_blocks_is_config_error():
    enc = make_encoder()
    bank = make_bank(enc, depth=1)
    layout = PromptLayout(attribute_names=("color",), depth=3)
    with pytest.raises(ConfigError):
        deep_forward(enc, bank, layout, "cat")


def test_drop_policies_differ_in_features_not_positions():
    enc = make_encoder()
    bank = make_bank(enc, depth=3, seed=4)
    feats = {}
    for policy in DROP_POLICIES:
        layout = PromptLayout(attribute_names=("color", "shape"), drop_policy=policy, depth=3)
        feats[policy] = deep_forward(enc, bank, layout, "cat").data
    assert not np.array_equal(feats["retain_all"], feats["partial_drop"])
    assert not np.array_equal(feats["partial_drop"], feats["full_drop"])


def test_apply_drop_policy_retain_all_keeps_attribute_positions():
    enc = make_encoder()
    bank = make_bank(enc, depth=2)
    layout = PromptLayout(attribute_names=("color",), depth=2)
    prompt = compose_shallow(enc, bank, layout, "cat")
    state = LayerState(prompt.embeds, prompt.segments)
    out = apply_drop_policy(
        state, "retain_all", {("class_soft", ""): bank.deep_class_blocks[0]}
    )
    for seg in prompt.segments:
        if seg.kind != "class_soft":
            np.testing.assert_array_equal(
                out.hidden.data[seg.start : seg.stop],
                prompt.embeds.data[seg.start : seg.stop],
            )
    (cls,) = prompt.segments_of("class_soft")
    np.testing.assert_array_equal(
        out.hidden.data[cls.start : cls.stop], bank.deep_class_blocks[0].data
    )


def test_full_drop_restores_fresh_embedding_lookups():
    enc = make_encoder()
    bank = make_bank(enc, depth=2)
    layout = PromptLayout(attribute_names=("color",), drop_policy="full_drop", depth=2)
    prompt = compose_shallow(enc, bank, layout, "cat")
    # scramble the hidden state, then the policy must restore hard rows exactly
    scrambled = T.Tensor(np.random.default_rng(1).standard_normal(prompt.embeds.shape))
    state = LayerState(scrambled, prompt.segments)
    reps = {
        ("class_soft", ""): bank.deep_class_blocks[0],
        ("attr_soft", "color"): bank.attribute_blocks["color"],
        ("attr_hard", "color"): enc.embed_tokens(enc.vocabulary.encode("color")),
    }
    out = apply_drop_policy(state, "full_drop", reps)
    (hard,) = [s for s in prompt.segments if s.kind == "attr_hard"]
    fresh = enc.token_embedding.data[enc.vocabulary.encode("color")]
    np.testing.assert_array_equal(out.hidden.data[hard.start : hard.stop], fresh)


def test_apply_drop_policy_preserves_length_for_all_policies():
    enc = make_encoder()
    bank = make_bank(enc, depth=2)
    layout = PromptLayout(attribute_names=("color", "shape"), depth=2)
    prompt = compose_shallow(enc, bank, layout, "cat")
    state = LayerState(prompt.embeds, prompt.segments)
    for policy in DROP_POLICIES:
        reps = {("class_soft", ""): bank.deep_class_blocks[0]}
        if policy in ("partial_drop", "full_drop"):
            reps.update({("attr_soft", n): bank.attribute_blocks[n] for n in ("color", "shape")})
        if policy == "full_drop":
            reps.update(
                {("attr_hard", n): enc.embed_tokens(enc.vocabulary.encode(n))
                 for n in ("color", "shape")}
            )
        out = apply_drop_policy(state, policy, reps)
        assert out.hidden.shape == prompt.embeds.shape


def test_apply_drop_policy_rejects_wrong_length():
    enc = make_encoder()
    bank = make_bank(enc, depth=2)
    layout = PromptLayout(attribute_names=("color",), depth=2)
    prompt = compose_shallow(enc, bank, layout, "cat")
    state = LayerState(prompt.embeds, prompt.segments)
    bad = T.Tensor(np.zeros((bank.soft_len + 1, enc.config.embed_dim)))
    with pytest.raises(ContractError):
        apply_drop_policy(state, "retain_all", {("class_soft", ""): bad})


def test_apply_drop_policy_never_touches_sentinels():
    enc = make_encoder()
    bank = make_bank(enc, depth=2)
    prompt = compose_shallow(enc, bank, PromptLayout(attribute_names=("color",), depth=2), "cat")
    state = LayerState(prompt.embeds, prompt.segments)
    rep = T.Tensor(np.zeros((1, enc.config.embed_dim)))
    with pytest.raises(ContractError):
        apply_drop_policy(state, "retain_all", {("sentinel_prefix", ""): rep})


def test_deep_batched_matches_single():
    enc = make_encoder()
    bank = make_bank(enc, depth=3, seed=9)
    layout = PromptLayout(attribute_names=("color", "shape"), depth=3)
    batched = class_text_features(enc, bank, layout, ["cat", "dog"])
    for i, name in enumerate(["cat", "dog"]):
        single = deep_forward(enc, bank, layout, name)
        np.testing.assert_allclose(batched.data[i], single.data, atol=1e-12)


def test_deep_gradients_reach_deep_blocks():
    enc = make_encoder()
    bank = make_bank(enc, depth=3)
    layout = PromptLayout(attribute_names=("color",), depth=3)
    feat = deep_forward(enc, bank, layout, "cat")
    T.tsum(T.mul(feat, feat)).backward()
    for block in bank.deep_class_blocks:
        assert np.any(block.grad != 0)


def test_training_step_changes_only_bank():
    enc = make_encoder()
    bank = make_bank(enc)
    layout = PromptLayout(attribute_names=("color", "shape"))
    before = enc.weights_fingerprint()
    opt = SGD(bank.parameters(), lr=0.1)
    feats = class_text_features(enc, bank, layout, ["cat", "dog"])
    u = enc.encode_image(np.random.default_rng(2).standard_normal((1, enc.config.image_dim)))
    loss = T.cross_entropy(enc.class_logits(u, feats), [0])
    loss.backward()
    opt.step()
    assert enc.weights_fingerprint() == before


# -- grouped candidate features ---------------------------------------------------------


def candidate_set(enc, style, depth):
    out = []
    for seed, attrs in enumerate(((), ("color",), ("shape",), ("color", "shape"))):
        bank = make_bank(enc, attrs=attrs, depth=depth, seed=seed)
        layout = PromptLayout(attribute_names=attrs, attribute_position_style=style, depth=depth)
        out.append((bank, layout))
    return out


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("style", ["interval", "adjacent_end"])
@pytest.mark.parametrize("names", [("cat", "dog", "bird"), ("cat", "red fish")])
def test_candidate_features_equal_per_candidate_features(depth, style, names):
    enc = make_encoder()
    candidates = candidate_set(enc, style, depth)
    grouped = candidate_features(enc, candidates, names)
    targets = [T.Tensor(np.random.default_rng(i).standard_normal(f.shape))
               for i, f in enumerate(grouped)]
    T.tsum(T.concat([T.mul(f, t) for f, t in zip(grouped, targets)], axis=0)).backward()
    params = list({id(p): p for bank, _ in candidates for p in bank.parameters()}.values())
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    singles = [class_text_features(enc, bank, layout, names) for bank, layout in candidates]
    for f, ref in zip(grouped, singles):
        np.testing.assert_allclose(f.data, ref.data, rtol=0, atol=1e-12)
    T.tsum(T.concat([T.mul(f, t) for f, t in zip(singles, targets)], axis=0)).backward()
    for g, p in zip(grads, params):
        np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12)


def test_candidate_features_run_one_pass_per_prompt_length(monkeypatch):
    enc = make_encoder()
    calls = []
    encode = enc.encode_text

    def counting(embeds, deep_hook=None):
        calls.append(embeds.shape)
        return encode(embeds, deep_hook=deep_hook)

    monkeypatch.setattr(enc, "encode_text", counting)
    candidate_features(enc, candidate_set(enc, "interval", 1), ("cat", "dog", "bird"))
    # (), the two singletons stacked, the pair
    assert sorted(calls) == [(3, 5, 32), (3, 11, 32), (6, 8, 32)]

import numpy as np
import pytest

from promptlab import tensor as T
from promptlab.encoders import RowStack
from promptlab.errors import ConfigError, ContractError, ParameterError, TokenizationError
from promptlab.optim import SGD
from promptlab.prompts import (
    DROP_POLICIES,
    POSITION_STYLES,
    FeaturePlan,
    PromptLayout,
    SoftPromptBank,
    class_text_features,
    compose_classic,
    compose_shallow,
    deep_forward,
    init_soft_tokens,
    template_rows_for,
)
from gradcheck import assert_gradients_match
from test_acceptance import _layout_cells
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
    (seg,) = [s for s in prompt.segments if s.kind == "class_hard"]
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
        cursor = 0
        for seg in prompt.segments:  # the segments tile [0, length) in order
            assert seg.start == cursor <= seg.stop
            cursor = seg.stop
        assert cursor == prompt.length == prompt.embeds.shape[0]
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


def test_block_init_values_are_pinned():
    # draws of the content-keyed block streams; any change to the streams moves them
    bank = SoftPromptBank.create(embed_dim=4, soft_len=2, attribute_names=("color", "shape"),
                                 depth=2, seed=7)
    np.testing.assert_array_equal(bank.class_block.data[0], [
        -0.017299063862585173, 0.008094228744241466, 0.017599310926066817,
        -0.018083504468071637])
    np.testing.assert_array_equal(bank.attribute_blocks["shape"].data[1], [
        -0.0004516516932060911, -0.008649453271912114, 0.011871512658826256,
        -0.0021628662438972343])
    np.testing.assert_array_equal(bank.deep_class_blocks[0].data[1], [
        -0.004692477384677228, -0.012494515538683991, -0.005031631109113032,
        0.005909061163973565])
    padded = SoftPromptBank.create(embed_dim=4, soft_len=2, attribute_names=("color",), seed=3,
                                   scheme="phrase_init", template_rows=np.ones((1, 4)))
    np.testing.assert_array_equal(padded.class_block.data[1], [
        -0.011410313678655177, 0.020533045116995014, -0.019406519298790403,
        -0.0021712058469168143])
    np.testing.assert_array_equal(padded.attribute_blocks["color"].data[1], [
        -0.010847264589600504, 0.00964857354062446, 0.05103884609147794,
        0.0015939724908049658])


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
    prompt = compose_shallow(enc, bank, layout, "cat")
    shallow = enc.encode_text(RowStack(prompt.embeds, ((1, prompt.length),)))
    np.testing.assert_array_equal(deep.data, shallow.data[0])


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


def test_deep_extra_blocks_are_config_error():
    # a depth-3 bank under a depth-1 layout: its deep blocks must not be dropped silently
    enc = make_encoder()
    bank = SoftPromptBank.create(embed_dim=32, soft_len=2, depth=3)
    with pytest.raises(ConfigError, match="needs exactly 0 deep blocks, bank has 2"):
        class_text_features(enc, bank, PromptLayout(depth=1), ["cat"])


def test_drop_policies_differ_in_features_not_positions():
    enc = make_encoder()
    bank = make_bank(enc, depth=3, seed=4)
    feats = {}
    for policy in DROP_POLICIES:
        layout = PromptLayout(attribute_names=("color", "shape"), drop_policy=policy, depth=3)
        feats[policy] = deep_forward(enc, bank, layout, "cat").data
    assert not np.array_equal(feats["retain_all"], feats["partial_drop"])
    assert not np.array_equal(feats["partial_drop"], feats["full_drop"])


# -- deep re-entry: each hook of a plan against a segment-slicing oracle -----------------


def reentry_oracle(enc, bank, layout, prompt, hidden, layer):
    """What enters layer ``layer + 1``: ``hidden`` [L, d] with blocks swapped in by segment."""
    out = hidden.copy()
    for seg in prompt.segments:
        if seg.kind == "class_soft":
            out[seg.start:seg.stop] = bank.deep_class_blocks[layer - 1].data
        elif seg.kind == "attr_soft" and layout.drop_policy in ("partial_drop", "full_drop"):
            out[seg.start:seg.stop] = bank.attribute_blocks[seg.name].data
        elif seg.kind == "attr_hard" and layout.drop_policy == "full_drop":
            out[seg.start:seg.stop] = enc.token_embedding.data[enc.vocabulary.encode(seg.name)]
    return out


def reentered(enc, bank, layout, names, monkeypatch, seed=1):
    """Run a one-candidate plan and call its hook on a scrambled hidden row stack.

    Yields (prompt, layer, hidden [L, d], what the hook returned [L, d]) for
    every prompt and every hook layer that re-enters (1 <= layer < depth).
    """
    passes = []
    encode = enc.encode_text

    def capture(stack, deep_hook=None):
        passes.append((stack.groups, deep_hook))
        return encode(stack, deep_hook=deep_hook)

    monkeypatch.setattr(enc, "encode_text", capture)
    FeaturePlan(enc, [(bank, layout)], names).features()
    monkeypatch.undo()
    ((groups, hook),) = passes
    prompts = [compose_shallow(enc, bank, layout, n) for n in names]
    # the stack holds each group's prompts in class order, groups in order of first use
    stacked = [p for _, length in groups for p in prompts if p.length == length]
    assert [count for count, _ in groups] == [sum(p.length == length for p in prompts)
                                              for _, length in groups]
    rng = np.random.default_rng(seed)
    for layer in range(1, layout.depth):
        hidden = rng.standard_normal((sum(p.length for p in stacked), enc.config.embed_dim))
        out = hook(layer, T.Tensor(hidden))
        assert out.shape == hidden.shape  # the sequence lengths never change
        start = 0
        for prompt in stacked:
            stop = start + prompt.length
            yield prompt, layer, hidden[start:stop], out.data[start:stop]
            start = stop


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("policy", DROP_POLICIES)
@pytest.mark.parametrize("style", POSITION_STYLES)
def test_reentry_index_matches_segment_oracle(depth, policy, style, monkeypatch):
    enc = make_encoder()
    bank = make_bank(enc, depth=depth, seed=3)
    layout = PromptLayout(attribute_names=("color", "shape"), attribute_position_style=style,
                          drop_policy=policy, depth=depth)
    seen = 0
    for prompt, layer, hidden, out in reentered(
            enc, bank, layout, ["cat", "red fish", "dog"], monkeypatch):
        np.testing.assert_array_equal(out, reentry_oracle(enc, bank, layout, prompt, hidden, layer))
        seen += 1
    assert seen == 3 * (depth - 1)


def test_reentry_retain_all_keeps_previous_layer_output(monkeypatch):
    enc = make_encoder()
    bank = make_bank(enc, depth=3)
    layout = PromptLayout(attribute_names=("color",), depth=3)
    for prompt, layer, hidden, out in reentered(enc, bank, layout, ["cat"], monkeypatch):
        for seg in prompt.segments:
            expected = (bank.deep_class_blocks[layer - 1].data if seg.kind == "class_soft"
                        else hidden[seg.start:seg.stop])
            np.testing.assert_array_equal(out[seg.start:seg.stop], expected)


def test_reentry_partial_drop_restores_attribute_soft_blocks(monkeypatch):
    enc = make_encoder()
    bank = make_bank(enc, depth=2)
    layout = PromptLayout(attribute_names=("color", "shape"), drop_policy="partial_drop",
                          depth=2)
    for prompt, _, hidden, out in reentered(enc, bank, layout, ["cat"], monkeypatch):
        for seg in [s for s in prompt.segments if s.kind == "attr_soft"]:
            np.testing.assert_array_equal(out[seg.start:seg.stop],
                                          bank.attribute_blocks[seg.name].data)
        for seg in [s for s in prompt.segments if s.kind == "attr_hard"]:
            np.testing.assert_array_equal(out[seg.start:seg.stop], hidden[seg.start:seg.stop])


def test_reentry_full_drop_restores_hard_rows(monkeypatch):
    enc = make_encoder()
    bank = make_bank(enc, depth=2)
    layout = PromptLayout(attribute_names=("color",), drop_policy="full_drop", depth=2)
    # the hidden state is scrambled; the policy must restore the hard rows exactly
    for prompt, _, _, out in reentered(enc, bank, layout, ["cat"], monkeypatch):
        (hard,) = [s for s in prompt.segments if s.kind == "attr_hard"]
        fresh = enc.token_embedding.data[enc.vocabulary.encode("color")]
        np.testing.assert_array_equal(out[hard.start:hard.stop], fresh)


def test_reentry_preserves_length_for_all_policies(monkeypatch):
    enc = make_encoder()
    bank = make_bank(enc, depth=3)
    for policy in DROP_POLICIES:
        layout = PromptLayout(attribute_names=("color", "shape"), drop_policy=policy, depth=3)
        for prompt, _, hidden, out in reentered(enc, bank, layout, ["cat"], monkeypatch):
            assert out.shape == hidden.shape == (prompt.length, enc.config.embed_dim)


def test_reentry_never_replaces_sentinels_or_class_name(monkeypatch):
    enc = make_encoder()
    bank = make_bank(enc, depth=3)
    fixed = ("sentinel_prefix", "sentinel_suffix", "class_hard")
    for policy in DROP_POLICIES:
        for style in POSITION_STYLES:
            layout = PromptLayout(attribute_names=("color", "shape"), drop_policy=policy,
                                  attribute_position_style=style, depth=3)
            for prompt, _, hidden, out in reentered(
                    enc, bank, layout, ["cat", "red fish"], monkeypatch):
                for seg in (s for s in prompt.segments if s.kind in fixed):
                    np.testing.assert_array_equal(out[seg.start:seg.stop],
                                                  hidden[seg.start:seg.stop])


def test_segment_pieces_are_the_plan_rows_over_the_layout_grid(monkeypatch):
    # every cell of gate 7's grid: each segment carries exactly its rows, the
    # prompt's rows are the row gather of a one-prompt plan, and every deep
    # layer re-enters as the segment oracle says
    enc = make_encoder(seed=2)
    for attrs, attr_len, depth, style, cls_pos, policy in _layout_cells():
        bank = make_bank(enc, attrs=attrs, attr_soft_len=attr_len, depth=depth, seed=13)
        layout = PromptLayout(attribute_names=attrs, class_token_position=cls_pos,
                              attribute_position_style=style, drop_policy=policy, depth=depth)
        prompt = compose_shallow(enc, bank, layout, "cat")
        for seg in prompt.segments:
            assert seg.piece.shape[0] == seg.length, seg
        plan = FeaturePlan(enc, [(bank, layout)], ["cat"])
        np.testing.assert_array_equal(prompt.embeds.data,
                                      T.concat(plan._pieces, axis=0).data[plan._rows])
        seen = 0
        for entered, layer, hidden, out in reentered(enc, bank, layout, ["cat"], monkeypatch):
            np.testing.assert_array_equal(
                out, reentry_oracle(enc, bank, layout, entered, hidden, layer))
            seen += 1
        assert seen == depth - 1


@pytest.mark.parametrize("policy", DROP_POLICIES)
def test_deep_forward_gradcheck(policy):
    enc = make_encoder()
    bank = make_bank(enc, soft_len=1, attr_soft_len=1, depth=3, seed=5)
    layout = PromptLayout(attribute_names=("color", "shape"), drop_policy=policy, depth=3)
    target = T.Tensor(np.random.default_rng(6).standard_normal(enc.config.joint_dim))
    params = [*bank.deep_class_blocks, *bank.attribute_blocks.values()]
    assert_gradients_match(
        lambda: T.tsum(T.mul(deep_forward(enc, bank, layout, "cat"), target)), params)


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


def candidate_set(enc, style, depth, drop_policy="retain_all"):
    out = []
    for seed, attrs in enumerate(((), ("color",), ("shape",), ("color", "shape"))):
        bank = make_bank(enc, attrs=attrs, depth=depth, seed=seed)
        layout = PromptLayout(attribute_names=attrs, attribute_position_style=style,
                              drop_policy=drop_policy, depth=depth)
        out.append((bank, layout))
    return out


def candidate_rows(table, k):
    """Candidate i's class features: rows [i·N, (i+1)·N) of a plan's table [k·N, joint]."""
    n = table.shape[0] // k
    return [T.narrow(table, 0, i * n, (i + 1) * n) for i in range(k)]


def plan_features(enc, candidates, names):
    return candidate_rows(FeaturePlan(enc, candidates, names).features(), len(candidates))


def per_class_reference(enc, candidates, names):
    """Each candidate's features as a stack of single-prompt deep_forward passes."""
    return [T.stack([deep_forward(enc, bank, layout, n) for n in names])
            for bank, layout in candidates]


# depth 2 passes mix the candidates' re-entry indices, which each drop policy fills differently
@pytest.mark.parametrize("depth, drop_policy", [
    pytest.param(1, "retain_all", id="1"), pytest.param(2, "retain_all", id="2"),
    pytest.param(2, "partial_drop", id="2-partial_drop"),
    pytest.param(2, "full_drop", id="2-full_drop")])
@pytest.mark.parametrize("style", ["interval", "adjacent_end"])
@pytest.mark.parametrize(
    "names", [("cat", "dog", "bird"), ("cat", "red fish"), ("cat", "red fish", "dog")])
def test_candidate_features_equal_per_candidate_features(depth, drop_policy, style, names):
    enc = make_encoder()
    candidates = candidate_set(enc, style, depth, drop_policy)
    params = list({id(p): p for bank, _ in candidates for p in bank.parameters()}.values())
    results = []
    for compute in (plan_features, per_class_reference):
        feats = compute(enc, candidates, names)
        targets = [T.Tensor(np.random.default_rng(i).standard_normal(f.shape))
                   for i, f in enumerate(feats)]
        T.tsum(T.concat([T.mul(f, t) for f, t in zip(feats, targets)], axis=0)).backward()
        results.append(([f.data for f in feats], [p.grad.copy() for p in params]))
        for p in params:
            p.zero_grad()
    (grouped, grouped_grads), (reference, reference_grads) = results
    for f, ref in zip(grouped, reference):
        np.testing.assert_allclose(f, ref, rtol=0, atol=1e-12)
    for g, ref in zip(grouped_grads, reference_grads):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)


def test_candidate_features_run_one_pass_per_prompt_length(monkeypatch):
    # one encoder pass over one row stack, with one group per prompt length
    enc = make_encoder()
    calls = []
    encode = enc.encode_text

    def counting(stack, deep_hook=None):
        calls.append((stack.groups, stack.rows.shape))
        return encode(stack, deep_hook=deep_hook)

    monkeypatch.setattr(enc, "encode_text", counting)
    cases = [
        # (), the two singletons together, the pair
        (("cat", "dog", "bird"), 1, ((3, 5), (6, 8), (3, 11))),
        # every length of every layout once, the two classes of one length together
        (("cat", "red fish", "dog"), 1, ((2, 5), (1, 6), (4, 8), (2, 9), (2, 11), (1, 12))),
        # depth 2: the same groups, with the re-entry indices of the whole stack
        (("cat", "red fish", "dog"), 2, ((2, 5), (1, 6), (4, 8), (2, 9), (2, 11), (1, 12))),
    ]
    for names, depth, groups in cases:
        calls.clear()
        FeaturePlan(enc, candidate_set(enc, "interval", depth), names).features()
        ((stacked, shape),) = calls
        assert tuple(sorted(stacked, key=lambda g: g[1])) == groups, (names, depth)
        assert shape == (sum(count * length for count, length in groups), 32)


@pytest.mark.parametrize("empty", ["candidate", "class-name"])
def test_empty_plan_is_config_error(empty):
    enc = make_encoder()
    candidates = [] if empty == "candidate" else candidate_set(enc, "interval", 1)
    names = [] if empty == "class-name" else ["cat"]
    with pytest.raises(ConfigError, match=f"empty {empty} list"):
        FeaturePlan(enc, candidates, names)
    if empty == "class-name":
        with pytest.raises(ConfigError, match="empty class-name list"):
            class_text_features(enc, *candidates[0], [])


def test_plan_of_mixed_depths_matches_each_layout_alone():
    # a depth-1 and a depth-3 candidate share length groups; the depth-1
    # prompts keep their hidden rows at every re-entry
    enc = make_encoder()
    attrs = ("color",)
    shallow = (make_bank(enc, attrs=attrs, seed=1), PromptLayout(attribute_names=attrs))
    deep = (make_bank(enc, attrs=attrs, depth=3, seed=2),
            PromptLayout(attribute_names=attrs, drop_policy="full_drop", depth=3))
    names = ("cat", "red fish")
    mixed = plan_features(enc, [shallow, deep], names)
    for feats, candidate in zip(mixed, (shallow, deep)):
        alone = FeaturePlan(enc, [candidate], names).features()
        np.testing.assert_allclose(feats.data, alone.data, rtol=0, atol=1e-12)


def test_plan_table_is_the_pass_output_or_one_gather(monkeypatch):
    # the table holds candidate i's class features at rows [i·N, (i+1)·N)
    enc = make_encoder()
    candidates = candidate_set(enc, "interval", 1)
    outputs, ops = [], []
    encode, make = enc.encode_text, T._make

    def capture(stack, deep_hook=None):
        outputs.append(encode(stack, deep_hook=deep_hook))
        ops.clear()
        return outputs[-1]

    def counting(data, parents, vjp, op):
        ops.append(op)
        return make(data, parents, vjp, op)

    monkeypatch.setattr(enc, "encode_text", capture)
    monkeypatch.setattr(T, "_make", counting)
    # class names of one token length: the length groups follow the pool's size order
    assert FeaturePlan(enc, candidates, ("cat", "dog", "bird")).features() is outputs[-1]
    # "red fish" is one token longer, so its prompts sit in groups of their own
    names = ("cat", "red fish", "dog")
    table = FeaturePlan(enc, candidates, names).features()
    assert ops == ["embedding"]  # one row gather
    monkeypatch.undo()
    expected = [deep_forward(enc, bank, layout, n).data for bank, layout in candidates
                for n in names]
    np.testing.assert_allclose(table.data, np.stack(expected), rtol=0, atol=1e-12)


@pytest.mark.parametrize("depth", [1, 2])
def test_one_plan_serves_every_step(depth):
    # a plan built before the loop must track the soft blocks the optimizer moves
    enc = make_encoder()
    names = ("cat", "red fish", "dog")
    candidates = candidate_set(enc, "interval", depth)
    params = list({id(p): p for bank, _ in candidates for p in bank.parameters()}.values())
    opt = SGD(params, lr=0.5)
    plan = FeaturePlan(enc, candidates, names)
    for step in range(3):
        results = []
        for current in (plan, FeaturePlan(enc, candidates, names)):
            feats = candidate_rows(current.features(), len(candidates))
            targets = [T.Tensor(np.random.default_rng(i).standard_normal(f.shape))
                       for i, f in enumerate(feats)]
            opt.zero_grad()
            T.tsum(T.concat([T.mul(f, t) for f, t in zip(feats, targets)], axis=0)).backward()
            results.append(([f.data for f in feats], [p.grad.copy() for p in params]))
        (reused, reused_grads), (fresh, fresh_grads) = results
        for f, ref in zip(reused, fresh):
            np.testing.assert_array_equal(f, ref)
        for g, ref in zip(reused_grads, fresh_grads):
            np.testing.assert_array_equal(g, ref)
        if step == 0:
            first = reused
        opt.step()
    assert not np.allclose(first[0], reused[0])  # the steps did move the features


def test_plan_holds_each_piece_once():
    # every frozen row is a token id into the encoder's token table, the plan's
    # first and only frozen piece; each soft or deep block enters once
    enc = make_encoder()
    names = ("cat", "red fish", "dog")
    candidates = candidate_set(enc, "interval", 2)
    pieces = FeaturePlan(enc, candidates, names)._pieces
    assert pieces[0] is enc.token_embedding
    assert all(p.requires_grad for p in pieces[1:])
    blocks = {id(p) for bank, _ in candidates for p in bank.parameters()}
    assert sorted(id(p) for p in pieces[1:]) == sorted(blocks)


def test_building_a_plan_joins_no_prompt(monkeypatch):
    # composing records token ids and block references; building the plan
    # makes no tensor op: the rows are read when features() runs
    enc = make_encoder()
    names = ("cat", "red fish", "dog")
    candidates = candidate_set(enc, "interval", 2)
    ops = []
    make = T._make

    def counting(data, parents, vjp, op):
        ops.append(op)
        return make(data, parents, vjp, op)

    monkeypatch.setattr(T, "_make", counting)
    FeaturePlan(enc, candidates, names)
    assert ops == []

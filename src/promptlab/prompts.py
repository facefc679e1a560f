"""Prompt composition: classic soft prompts and attribute-anchored variants.

A composed prompt is a sequence of embedding rows plus a position map that
partitions it into typed segments: sentinels, soft blocks (trainable),
hard attribute words, and the class name. The classic form is
``[SOS][T1..TM][CLS][EOS]``; the attribute-anchored shallow form interleaves
per-attribute soft blocks with hard attribute anchors ahead of the class
unit; the deep form additionally swaps the class soft block for a fresh
learnable block between the first ``depth`` transformer layers, with a
drop policy deciding which attribute positions are re-added alongside it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ParameterError
from .tensor import Tensor
from .vocab import PHOTO_TEMPLATE

CLASS_POSITIONS = ("front", "middle", "end")
POSITION_STYLES = ("interval", "adjacent_front", "adjacent_middle", "adjacent_end", "separate")
DROP_POLICIES = ("retain_all", "partial_drop", "full_drop")
INIT_SCHEMES = ("random_normal", "phrase_init")

SOFT_INIT_STD = 0.02


def _block_rng(seed: int, tag: str):
    # content-keyed stream: the same block gets the same draw regardless of
    # the order blocks are created in
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode())])


@dataclass(frozen=True)
class PromptLayout:
    """Declarative description of how one text prompt is assembled."""

    attribute_names: tuple = ()
    class_token_position: str = "end"
    attribute_position_style: str = "interval"
    drop_policy: str = "retain_all"
    depth: int = 1

    def __post_init__(self):
        object.__setattr__(self, "attribute_names", tuple(self.attribute_names))

    def validate(self, num_encoder_layers: int = None) -> "PromptLayout":
        if self.class_token_position not in CLASS_POSITIONS:
            raise ConfigError(f"unknown class_token_position {self.class_token_position!r}")
        if self.attribute_position_style not in POSITION_STYLES:
            raise ConfigError(f"unknown attribute_position_style {self.attribute_position_style!r}")
        if self.drop_policy not in DROP_POLICIES:
            raise ConfigError(f"unknown drop_policy {self.drop_policy!r}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if num_encoder_layers is not None and self.depth > num_encoder_layers:
            raise ConfigError(
                f"depth {self.depth} exceeds encoder layers {num_encoder_layers}"
            )
        if len(set(self.attribute_names)) != len(self.attribute_names):
            raise ConfigError(f"duplicate attribute names: {self.attribute_names}")
        if (
            self.class_token_position != "end"
            and self.attribute_position_style != "interval"
            and self.attribute_names
        ):
            raise ConfigError(
                "class_token_position other than 'end' is only defined for the interval style"
            )
        return self

    def to_dict(self) -> dict:
        return {
            "attribute_names": list(self.attribute_names),
            "class_token_position": self.class_token_position,
            "attribute_position_style": self.attribute_position_style,
            "drop_policy": self.drop_policy,
            "depth": self.depth,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PromptLayout":
        return cls(
            attribute_names=tuple(payload.get("attribute_names", ())),
            class_token_position=payload.get("class_token_position", "end"),
            attribute_position_style=payload.get("attribute_position_style", "interval"),
            drop_policy=payload.get("drop_policy", "retain_all"),
            depth=payload.get("depth", 1),
        ).validate()


class SoftPromptBank:
    """All trainable soft tokens: class block, per-attribute blocks, deep blocks.

    Attribute blocks all share one length (a_m = b_m); deep blocks mirror
    the class-block length, one per layer the deep variant reaches past.
    """

    def __init__(self, class_block: Tensor, attribute_blocks: dict, deep_class_blocks: list):
        self.class_block = class_block
        self.attribute_blocks = dict(attribute_blocks)
        self.deep_class_blocks = list(deep_class_blocks)
        lengths = {b.shape[0] for b in self.attribute_blocks.values()}
        if len(lengths) > 1:
            raise ContractError(f"attribute block lengths must all match, got {sorted(lengths)}")
        m = class_block.shape[0]
        for i, block in enumerate(self.deep_class_blocks):
            if block.shape[0] != m:
                raise ContractError(
                    f"deep block {i} has length {block.shape[0]}, class block has {m}"
                )

    @property
    def soft_len(self) -> int:
        return self.class_block.shape[0]

    @property
    def attr_soft_len(self) -> int:
        for block in self.attribute_blocks.values():
            return block.shape[0]
        return 0

    @property
    def embed_dim(self) -> int:
        return self.class_block.shape[1]

    def parameters(self) -> list:
        out = [self.class_block]
        out.extend(self.attribute_blocks[k] for k in sorted(self.attribute_blocks))
        out.extend(self.deep_class_blocks)
        return out

    @classmethod
    def create(
        cls,
        embed_dim: int,
        soft_len: int,
        attribute_names=(),
        attr_soft_len: int = None,
        depth: int = 1,
        seed: int = 0,
        scheme: str = "random_normal",
        template_rows: np.ndarray = None,
        shared_class_block: Tensor = None,
    ) -> "SoftPromptBank":
        """Build and initialize a bank; see init_soft_tokens for the schemes."""
        if attr_soft_len is None:
            attr_soft_len = soft_len
        if shared_class_block is not None:
            class_block = shared_class_block
        else:
            class_block = Tensor(np.zeros((soft_len, embed_dim)), requires_grad=True,
                                 name="class_block")
        attr_blocks = {
            name: Tensor(np.zeros((attr_soft_len, embed_dim)), requires_grad=True,
                         name=f"attr_block.{name}")
            for name in attribute_names
        }
        deep_blocks = [
            Tensor(np.zeros((soft_len, embed_dim)), requires_grad=True, name=f"deep_block.{i}")
            for i in range(max(depth - 1, 0))
        ]
        bank = cls(class_block, attr_blocks, deep_blocks)
        init_soft_tokens(
            bank, scheme, seed,
            template_rows=template_rows,
            skip_class_block=shared_class_block is not None,
        )
        return bank

    def to_dict(self) -> dict:
        return {
            "class_block": self.class_block.data.tolist(),
            "attribute_blocks": {
                k: v.data.tolist() for k, v in sorted(self.attribute_blocks.items())
            },
            "deep_class_blocks": [b.data.tolist() for b in self.deep_class_blocks],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SoftPromptBank":
        return cls(
            Tensor(np.asarray(payload["class_block"], dtype=np.float64), requires_grad=True,
                   name="class_block"),
            {
                k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True,
                          name=f"attr_block.{k}")
                for k, v in payload["attribute_blocks"].items()
            },
            [
                Tensor(np.asarray(b, dtype=np.float64), requires_grad=True,
                       name=f"deep_block.{i}")
                for i, b in enumerate(payload["deep_class_blocks"])
            ],
        )


def init_soft_tokens(
    bank: SoftPromptBank,
    scheme: str,
    seed: int,
    template_rows: np.ndarray = None,
    skip_class_block: bool = False,
) -> SoftPromptBank:
    """Fill a bank's soft tokens in place.

    ``random_normal`` draws every block i.i.d. N(0, 0.02^2). ``phrase_init``
    copies template embedding rows (the "a photo of a" phrase) into the
    class block and every attribute block — truncating long phrases, padding
    short ones with random normal rows — so that two banks differing only in
    attribute identity start from identical soft content. Deep blocks are
    always random (they replace a hidden state, not an embedding).
    """
    if scheme not in INIT_SCHEMES:
        raise ParameterError(f"unknown init scheme {scheme!r}")

    def fill_normal(tensor: Tensor, tag: str):
        rng = _block_rng(seed, tag)
        tensor.data[...] = rng.standard_normal(tensor.data.shape) * SOFT_INIT_STD

    def fill_phrase(tensor: Tensor, tag: str):
        if template_rows is None:
            raise ParameterError("phrase_init requires template embedding rows")
        m = tensor.data.shape[0]
        rows = np.asarray(template_rows, dtype=np.float64)[:m]
        tensor.data[: len(rows)] = rows
        if len(rows) < m:
            pad = _block_rng(seed, f"{tag}.pad").standard_normal(
                (m - len(rows), bank.embed_dim)
            )
            tensor.data[len(rows):] = pad * SOFT_INIT_STD

    fill = fill_phrase if scheme == "phrase_init" else fill_normal
    if not skip_class_block:
        fill(bank.class_block, "class")
    for name in sorted(bank.attribute_blocks):
        fill(bank.attribute_blocks[name], f"attr.{name}")
    for i, block in enumerate(bank.deep_class_blocks):
        fill_normal(block, f"deep.{i}")
    return bank


def template_rows_for(encoder, phrase: str = PHOTO_TEMPLATE) -> np.ndarray:
    """Embedding-table rows for a phrase, for phrase_init."""
    ids = encoder.vocabulary.encode(phrase)
    return encoder.token_embedding.data[ids].copy()


# -- composed prompts ------------------------------------------------------------


@dataclass
class Segment:
    kind: str  # sentinel_prefix | attr_soft | attr_hard | class_soft | class_hard | sentinel_suffix
    name: str
    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclass
class ComposedPrompt:
    embeds: Tensor  # [L, embed_dim]
    segments: list
    class_name: str

    @property
    def length(self) -> int:
        return self.embeds.shape[0]

    def segments_of(self, kind: str) -> list:
        return [s for s in self.segments if s.kind == kind]

    def check_partition(self) -> None:
        cursor = 0
        for seg in self.segments:
            if seg.start != cursor:
                raise ContractError(f"segment map has a gap/overlap at {seg}")
            cursor = seg.stop
        if cursor != self.length:
            raise ContractError(f"segment map covers {cursor} of {self.length} positions")


@dataclass
class LayerState:
    """Hidden sequence at one transformer layer plus its position map."""

    hidden: Tensor  # [L, d] or [C, L, d]
    segments: list

    def check_partition(self) -> None:
        cursor = 0
        for seg in self.segments:
            if seg.start != cursor:
                raise ContractError(f"segment map has a gap/overlap at {seg}")
            cursor = seg.stop
        if cursor != self.hidden.shape[-2]:
            raise ContractError(
                f"segment map covers {cursor} of {self.hidden.shape[-2]} positions"
            )


def _hard_rows(encoder, word: str) -> Tensor:
    return encoder.frozen_rows(encoder.vocabulary.encode(word))


def _assemble(pieces, class_name: str) -> ComposedPrompt:
    segments = []
    cursor = 0
    tensors = []
    for kind, name, tens in pieces:
        length = tens.shape[0]
        segments.append(Segment(kind, name, cursor, cursor + length))
        cursor += length
        tensors.append(tens)
    prompt = ComposedPrompt(T.concat(tensors, axis=0), segments, class_name)
    prompt.check_partition()
    return prompt


def _ordered_units(encoder, bank: SoftPromptBank, layout: PromptLayout, class_name: str):
    """Interior block order (everything between the sentinels)."""
    for name in layout.attribute_names:
        if name not in bank.attribute_blocks:
            raise ContractError(f"bank has no soft block for attribute {name!r}")
    class_unit = [
        ("class_soft", "", bank.class_block),
        ("class_hard", class_name, _hard_rows(encoder, class_name)),
    ]
    if not layout.attribute_names:
        return class_unit
    soft = [("attr_soft", n, bank.attribute_blocks[n]) for n in layout.attribute_names]
    hard = [("attr_hard", n, _hard_rows(encoder, n)) for n in layout.attribute_names]
    style = layout.attribute_position_style
    if style == "interval":
        units = [[soft[k], hard[k]] for k in range(len(soft))]
        pos = layout.class_token_position
        if pos == "front":
            units.insert(0, class_unit)
        elif pos == "middle":
            units.insert((len(units) + 1) // 2, class_unit)
        else:
            units.append(class_unit)
        return [piece for unit in units for piece in unit]
    if style == "adjacent_front":
        return hard + soft + class_unit
    if style == "adjacent_middle":
        return soft + hard + class_unit
    if style == "adjacent_end":
        return soft + [class_unit[0]] + hard + [class_unit[1]]
    # separate: hard attribute words after the class token
    return soft + class_unit + hard


def compose_shallow(encoder, bank: SoftPromptBank, layout: PromptLayout,
                    class_name: str) -> ComposedPrompt:
    """Attribute-anchored prompt (or the classic form when no attributes)."""
    layout.validate(encoder.config.num_layers)
    vocab = encoder.vocabulary
    pieces = [("sentinel_prefix", "", encoder.frozen_rows([vocab.sos_id]))]
    pieces.extend(_ordered_units(encoder, bank, layout, class_name))
    pieces.append(("sentinel_suffix", "", encoder.frozen_rows([vocab.eos_id])))
    return _assemble(pieces, class_name)


def compose_classic(encoder, bank: SoftPromptBank, class_name: str) -> ComposedPrompt:
    """[SOS][T1..TM][CLS][EOS] — soft block then class name, no attributes."""
    return compose_shallow(encoder, bank, PromptLayout(), class_name)


# -- deep variant --------------------------------------------------------------------


def _policy_replacements(encoder, bank: SoftPromptBank, layout: PromptLayout,
                         hook_index: int) -> dict:
    """Replacement blocks applied entering layer hook_index + 1."""
    reps = {("class_soft", ""): bank.deep_class_blocks[hook_index - 1]}
    if layout.drop_policy in ("partial_drop", "full_drop"):
        for name in layout.attribute_names:
            reps[("attr_soft", name)] = bank.attribute_blocks[name]
    if layout.drop_policy == "full_drop":
        for name in layout.attribute_names:
            reps[("attr_hard", name)] = _hard_rows(encoder, name)
    return reps


def apply_drop_policy(state: LayerState, policy: str, replacements: dict) -> LayerState:
    """Swap hidden vectors at replaceable positions for fresh blocks.

    ``replacements`` maps (kind, name) -> Tensor; sentinels and the class
    token are never replaceable. Returns a new LayerState with the same
    position map.
    """
    if policy not in DROP_POLICIES:
        raise ParameterError(f"unknown drop policy {policy!r}")
    state.check_partition()
    batched = state.hidden.ndim == 3
    pieces = []
    for seg in state.segments:
        key = (seg.kind, seg.name)
        rep = replacements.get(key)
        if rep is None:
            pieces.append(T.narrow(state.hidden, -2, seg.start, seg.stop))
            continue
        if seg.kind in ("sentinel_prefix", "sentinel_suffix", "class_hard"):
            raise ContractError(f"{seg.kind} positions are never replaced")
        if rep.shape[0] != seg.length:
            raise ContractError(
                f"replacement for {key} has length {rep.shape[0]}, segment has {seg.length}"
            )
        pieces.append(T.expand0(rep, state.hidden.shape[0]) if batched else rep)
    return LayerState(T.concat(pieces, axis=-2), list(state.segments))


def deep_forward(encoder, bank: SoftPromptBank, layout: PromptLayout, class_name: str):
    """Joint text feature with per-layer class-block refresh (depth >= 2)."""
    prompt = compose_shallow(encoder, bank, layout, class_name)
    return _deep_encode(encoder, bank, layout, prompt.embeds, prompt.segments)


def _deep_encode(encoder, bank, layout, embeds, segments):
    layout.validate(encoder.config.num_layers)
    if layout.depth < 2:
        return encoder.encode_text(embeds)
    if len(bank.deep_class_blocks) < layout.depth - 1:
        raise ConfigError(
            f"depth {layout.depth} needs {layout.depth - 1} deep blocks, "
            f"bank has {len(bank.deep_class_blocks)}"
        )

    def hook(i, hidden):
        if i >= layout.depth:
            return hidden
        state = LayerState(hidden, segments)
        reps = _policy_replacements(encoder, bank, layout, i)
        return apply_drop_policy(state, layout.drop_policy, reps).hidden

    return encoder.encode_text(embeds, deep_hook=hook)


# -- batched class features ---------------------------------------------------------------


def class_text_features(encoder, bank: SoftPromptBank, layout: PromptLayout, class_names):
    """Features for many classes [N, joint], batching equal-length prompts.

    This is the single entry point used by training, evaluation, and the
    attribute search; it dispatches on layout.depth.
    """
    prompts = [compose_shallow(encoder, bank, layout, n) for n in class_names]
    lengths = {p.length for p in prompts}
    if len(lengths) == 1:
        embeds = T.stack([p.embeds for p in prompts])
        if layout.depth >= 2:
            return _deep_encode(encoder, bank, layout, embeds, prompts[0].segments)
        return encoder.encode_text(embeds)
    feats = []
    for p in prompts:
        if layout.depth >= 2:
            feats.append(_deep_encode(encoder, bank, layout, p.embeds, p.segments))
        else:
            feats.append(encoder.encode_text(p.embeds))
    return T.stack(feats)


def candidate_features(encoder, candidates, class_names) -> list:
    """Class features [C, joint] for every (bank, layout) pair, from few encoder passes.

    Depth-1 candidates whose prompts have equal length share one
    ``[k*C, L, d]`` pass, split back per candidate. A depth >= 2 layout, or
    class names of unequal token length, goes alone through
    ``class_text_features``.
    """
    class_names = list(class_names)
    uniform = len({len(encoder.vocabulary.encode(n)) for n in class_names}) == 1
    feats = [None] * len(candidates)
    groups: dict = {}
    for i, (bank, layout) in enumerate(candidates):
        if layout.depth >= 2 or not uniform:
            feats[i] = class_text_features(encoder, bank, layout, class_names)
            continue
        prompts = [compose_shallow(encoder, bank, layout, n) for n in class_names]
        groups.setdefault(prompts[0].length, []).append((i, prompts))
    c = len(class_names)
    for members in groups.values():
        out = encoder.encode_text(T.stack([p.embeds for _, prompts in members for p in prompts]))
        for j, (i, _) in enumerate(members):
            feats[i] = T.narrow(out, 0, j * c, (j + 1) * c)
    return feats

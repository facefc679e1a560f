"""Prompt composition: classic soft prompts and attribute-anchored variants.

A composed prompt is a list of typed segments (sentinels, trainable soft
blocks, hard attribute words, the class name), each carrying its piece: a
soft block, or the token ids of frozen rows. The classic form is
``[SOS][T1..TM][CLS][EOS]``; the attribute-anchored shallow form interleaves
per-attribute soft blocks with hard attribute anchors ahead of the class
unit; the deep form additionally swaps the class soft block for a fresh
learnable block between the first ``depth`` transformer layers, with a
drop policy deciding which attribute positions are re-added alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import keyed_rng
from .encoders import RowStack
from .errors import ConfigError, ContractError, DataError, ParameterError
from .serialize import JsonFields, check_fields, numeric_array
from .tensor import Tensor
from .vocab import PHOTO_TEMPLATE

CLASS_POSITIONS = ("front", "middle", "end")
POSITION_STYLES = ("interval", "adjacent_front", "adjacent_middle", "adjacent_end", "separate")
# drop policy -> the kinds of prompt position that re-enter with their own rows
# at every deep layer; the class soft block always re-enters as a deep block
REENTERED_KINDS = {
    "retain_all": (),
    "partial_drop": ("attr_soft",),
    "full_drop": ("attr_soft", "attr_hard"),
}
DROP_POLICIES = tuple(REENTERED_KINDS)
INIT_SCHEMES = ("random_normal", "phrase_init")

SOFT_INIT_STD = 0.02

# the keys of a bank's JSON form, all required
BANK_TYPES = {"class_block": tuple, "attribute_blocks": dict, "deep_class_blocks": tuple}


@dataclass(frozen=True)
class PromptLayout(JsonFields):
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
    ) -> "SoftPromptBank":
        """Build and initialize a bank; see init_soft_tokens for the schemes."""
        if attr_soft_len is None:
            attr_soft_len = soft_len
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
        init_soft_tokens(bank, scheme, seed, template_rows=template_rows)
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
    def from_dict(cls, payload, what: str = "SoftPromptBank") -> "SoftPromptBank":
        """The bank a JSON object gives; all three keys are required."""
        body = check_fields(BANK_TYPES, payload, what, BANK_TYPES)

        def block(rows, name: str, key: str, width: int = None) -> Tensor:
            data = numeric_array(rows, np.float64, f"{what}.{key}")
            if data.ndim != 2 or (width is not None and data.shape[1] != width):
                expected = "rows" if width is None else f"rows of width {width}"
                raise DataError(f"{what}.{key} must be a 2-D block of {expected}, "
                                f"got shape {data.shape}")
            return Tensor(data, requires_grad=True, name=name)

        class_block = block(body["class_block"], "class_block", "class_block")
        width = class_block.shape[1]
        try:
            return cls(
                class_block,
                {k: block(v, f"attr_block.{k}", f"attribute_blocks.{k}", width)
                 for k, v in body["attribute_blocks"].items()},
                [block(b, f"deep_block.{i}", f"deep_class_blocks[{i}]", width)
                 for i, b in enumerate(body["deep_class_blocks"])],
            )
        except ContractError as exc:  # block lengths that do not match
            raise DataError(f"{what}: {exc}") from None


def init_soft_tokens(
    bank: SoftPromptBank,
    scheme: str,
    seed: int,
    template_rows: np.ndarray = None,
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

    # content-keyed streams: a block gets the same draw whatever order blocks are made in
    def fill_normal(tensor: Tensor, tag: str):
        rng = keyed_rng(int(seed), tag)
        tensor.data[...] = rng.standard_normal(tensor.data.shape) * SOFT_INIT_STD

    def fill_phrase(tensor: Tensor, tag: str):
        if template_rows is None:
            raise ParameterError("phrase_init requires template embedding rows")
        m = tensor.data.shape[0]
        rows = np.asarray(template_rows, dtype=np.float64)[:m]
        tensor.data[: len(rows)] = rows
        if len(rows) < m:
            pad = keyed_rng(int(seed), f"{tag}.pad").standard_normal(
                (m - len(rows), bank.embed_dim)
            )
            tensor.data[len(rows):] = pad * SOFT_INIT_STD

    fill = fill_phrase if scheme == "phrase_init" else fill_normal
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
    piece: object = field(compare=False, repr=False)  # a soft block, or frozen rows' token ids

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclass
class ComposedPrompt:
    segments: list
    table: Tensor  # the encoder's token table, which the segments' token ids index

    @property
    def embeds(self) -> Tensor:
        """The prompt's rows [L, embed_dim]: its pieces joined, afresh on every read."""
        return T.concat([s.piece if isinstance(s.piece, Tensor)
                         else T.embedding(self.table, s.piece) for s in self.segments], axis=0)

    @property
    def length(self) -> int:
        return self.segments[-1].stop


def _ordered_units(vocab, bank: SoftPromptBank, layout: PromptLayout, class_name: str):
    """Interior block order (everything between the sentinels)."""
    for name in layout.attribute_names:
        if name not in bank.attribute_blocks:
            raise ContractError(f"bank has no soft block for attribute {name!r}")
    class_unit = [
        ("class_soft", "", bank.class_block),
        ("class_hard", class_name, vocab.encode(class_name)),
    ]
    if not layout.attribute_names:
        return class_unit
    soft = [("attr_soft", n, bank.attribute_blocks[n]) for n in layout.attribute_names]
    hard = [("attr_hard", n, vocab.encode(n)) for n in layout.attribute_names]
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
    pieces = [("sentinel_prefix", "", np.array([vocab.sos_id]))]
    pieces.extend(_ordered_units(vocab, bank, layout, class_name))
    pieces.append(("sentinel_suffix", "", np.array([vocab.eos_id])))
    segments = []
    cursor = 0
    for kind, name, piece in pieces:
        segments.append(Segment(kind, name, cursor, cursor + piece.shape[0], piece))
        cursor += piece.shape[0]
    return ComposedPrompt(segments, encoder.token_embedding)


def compose_classic(encoder, bank: SoftPromptBank, class_name: str) -> ComposedPrompt:
    """[SOS][T1..TM][CLS][EOS] — soft block then class name, no attributes."""
    return compose_shallow(encoder, bank, PromptLayout(), class_name)


# -- deep variant and batched class features ---------------------------------------------


def apply_drop_policy(hidden: Tensor, table: Tensor, index: np.ndarray) -> Tensor:
    """Re-enter one deep layer: the hidden rows [R, d] of a row stack, picked by ``index``.

    ``index`` ([R], built once by ``FeaturePlan``) addresses the hidden rows
    followed by the plan's piece table: a value below R keeps the incoming
    hidden row, a larger one swaps in a table row (a deep block, or the
    prompt's own soft or hard rows, as the drop policy says).
    """
    return T.gather_rows(T.concat([hidden, table], axis=0), index)


def deep_forward(encoder, bank: SoftPromptBank, layout: PromptLayout, class_name: str):
    """Joint text feature [joint] of one prompt (any depth): a one-prompt ``FeaturePlan``."""
    feats = FeaturePlan(encoder, [(bank, layout)], [class_name]).features()
    return T.reshape(feats, (encoder.config.joint_dim,))


def class_text_features(encoder, bank: SoftPromptBank, layout: PromptLayout, class_names):
    """Features for many classes [N, joint]: a one-candidate ``FeaturePlan``."""
    return FeaturePlan(encoder, [(bank, layout)], class_names).features()


class FeaturePlan:
    """The only path from composed prompts to class features, composed once.

    Building the plan composes every (candidate, class) prompt with
    ``compose_shallow`` (validating layouts) and walks its segments once:
    each segment gives its rows of the piece table and, per deep layer, the
    rows that re-enter at its positions. The table is the encoder's token
    table, where a frozen row's row is its token id, then each soft and deep
    block once. All prompts share one row stack [R, d] in one encoder pass,
    grouped by length: prompts of one length are one group. A plan with deep
    layouts has one ``apply_drop_policy`` index [R] per deep layer: entering
    layer k + 1, the class soft block takes the rows of deep block k - 1, and
    the attribute positions its drop policy names take the prompt's own rows;
    the rows of a prompt whose layout is not that deep keep their hidden state.

    ``features()`` reads the pieces' current data, so one plan serves every
    step of a training loop: one ``concat`` of the distinct pieces, one row
    gather for the stack and one per deep layer, and the encoder pass. It
    returns one feature table [k·N, joint] of k candidates and N classes in
    (candidate, class) order: the pass output itself when the length groups
    already hold the prompts in that order (a pool ordered by size, class
    names of one token length), else one row gather that undoes the sort.
    """

    def __init__(self, encoder, candidates, class_names):
        if not candidates or not class_names:
            empty = "candidate" if not candidates else "class-name"
            raise ConfigError(f"FeaturePlan needs prompts, got an empty {empty} list")
        self.encoder = encoder
        # the token table, then the soft and deep blocks in order of first use
        self._pieces = [encoder.token_embedding]
        first_row = {}  # id(block) -> its first row in the concatenated pieces

        def piece_rows(piece):
            if not isinstance(piece, Tensor):
                return piece  # token ids are rows of the token table
            if id(piece) not in first_row:
                first_row[id(piece)] = sum(p.shape[0] for p in self._pieces)
                self._pieces.append(piece)
            return range(first_row[id(piece)], first_row[id(piece)] + piece.shape[0])

        prompts = []  # (length, rows, re-entry rows per deep layer), in (candidate, class) order
        for bank, layout in candidates:
            deep = bank.deep_class_blocks
            if len(deep) != layout.depth - 1:
                raise ConfigError(f"depth {layout.depth} needs exactly {layout.depth - 1} deep "
                                  f"blocks, bank has {len(deep)}")
            kinds = REENTERED_KINDS[layout.drop_policy]
            for name in class_names:
                # one walk: the prompt's rows, and per deep layer the piece row each
                # position re-enters with, or -1 to keep its hidden state
                rows, reentry = [], [[] for _ in deep]
                for seg in compose_shallow(encoder, bank, layout, name).segments:
                    rows.extend(piece_rows(seg.piece))
                    for block, layer in zip(deep, reentry):
                        layer += (piece_rows(block) if seg.kind == "class_soft" else
                                  rows[seg.start:seg.stop] if seg.kind in kinds else
                                  [-1] * seg.length)
                prompts.append((len(rows), rows, reentry))
        # the stack: one group per length, in order of first use, of its prompts in order
        group = {}
        for length, _, _ in prompts:
            group.setdefault(length, len(group))
        order = sorted(range(len(prompts)), key=lambda i: group[prompts[i][0]])
        stacked = [prompts[i] for i in order]
        self._rows = np.array([row for _, rows, _ in stacked for row in rows], dtype=np.int64)
        lengths = [length for length, _, _ in stacked]
        self._groups = tuple((lengths.count(length), length) for length in group)
        # one apply_drop_policy index [R] per deep layer of the deepest layout
        own = np.arange(self._rows.size)
        self._index = []
        for i in range(max(len(reentry) for _, _, reentry in prompts)):
            layer = np.array([row for length, _, reentry in stacked
                              for row in (reentry[i] if i < len(reentry) else [-1] * length)])
            self._index.append(np.where(layer < 0, own, self._rows.size + layer))
        # each prompt's stack position in (candidate, class) order; None when that is the identity
        self._unsort = None if order == sorted(order) else np.argsort(order)

    def features(self) -> Tensor:
        """The feature table [k·N, joint], from the pieces' current data."""
        table = T.concat(self._pieces, axis=0)

        def reenter(i, hidden):  # the input of layer i + 1 re-enters through index i - 1
            return (apply_drop_policy(hidden, table, self._index[i - 1])
                    if i <= len(self._index) else hidden)

        stack = RowStack(T.gather_rows(table, self._rows), self._groups)
        out = self.encoder.encode_text(stack, deep_hook=reenter if self._index else None)
        return out if self._unsort is None else T.gather_rows(out, self._unsort)

"""Miniature frozen dual encoder and the cosine-similarity scoring rule.

Every entry point takes a batch. The text side is a small pre-norm transformer
over a row stack, the rows of many composed sequences [R, d] in groups of one
length, read out at the end-sentinel position of each sequence. Its
LayerNorms, the final one too, have no affine and its MLPs no biases: frozen,
those would only ever hold ones and zeros. Each block keeps four weights: the
tied q/k projection and the value projection are one ``attn.wkv`` [d, 2d],
the form the fused attention reads, then ``attn.wo``, ``mlp.w1`` and ``mlp.w2``.
The image side is a 2-layer MLP over raw feature vectors [B, image_dim]. Both project into
a shared joint space and L2-normalize; class logits [B, C] are cosines over the fixed
``config.TEMPERATURE``, and each block's MLP is ``config.MLP_RATIO`` times d wide.

All encoder weights are sampled once from a seeded generator at
construction and are frozen (``requires_grad=False``): prompt learning only
ever trains soft tokens injected from outside. Internal projection matrices
use fan-in scaling so that token content actually propagates through
attention at this depth; token-embedding rows are copied verbatim from the
vocabulary, and the positional table and image biases use std 0.02.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .config import MLP_RATIO, TEMPERATURE, EncoderConfig
from .errors import CapacityError, CheckpointError, ConfigError, ShapeError
from .serialize import dump_artifact, load_artifact, numeric_array
from .tensor import Tensor
from .vocab import Vocabulary

CHECKPOINT_KIND = "encoder_checkpoint"


class RowStack(NamedTuple):
    """Composed sequences as one row stack: ``rows`` [R, d] in ``groups`` of (count, length).

    A group is ``count`` sequences of ``length`` rows each, one after another;
    the groups follow each other in row order and cover all R rows. The stack
    reads as the array of its rows (``shape``, ``ndim``), as callers that
    inspect ``encode_text``'s argument, such as the benchmark's tracer, expect.
    """

    rows: Tensor
    groups: tuple
    shape = property(lambda self: self.rows.shape)
    ndim = property(lambda self: self.rows.ndim)


class DualEncoder:
    """Frozen text transformer + frozen image MLP sharing a joint space."""

    def __init__(self, config: EncoderConfig, vocabulary: Vocabulary, seed: int):
        config.validate()
        if vocabulary.dim != config.embed_dim:
            raise ConfigError(
                f"vocabulary dim {vocabulary.dim} != config.embed_dim {config.embed_dim}"
            )
        self.config = config
        self.vocabulary = vocabulary
        self.seed = int(seed)
        self._params = self._init_params(np.random.default_rng(self.seed))

    # -- construction -----------------------------------------------------------

    def _init_params(self, rng) -> dict:
        cfg = self.config
        d, hid = cfg.embed_dim, MLP_RATIO * cfg.embed_dim

        def dense(rows, cols):
            # fan-in scaling keeps activations at unit order through the stack
            return rng.standard_normal((rows, cols)) * (rows**-0.5)

        def transport(rows, cols, noise=0.25):
            # identity plus noise: a frozen stand-in for the readable residual
            # subspaces a pretrained transformer maintains, so attention moves
            # token content between positions without scrambling it
            eye = np.eye(rows, cols)
            return eye + noise * dense(rows, cols)

        p: dict[str, np.ndarray] = {}
        p["token_embedding"] = self.vocabulary.vectors.copy()
        p["pos_embedding"] = rng.standard_normal((cfg.max_seq_len, d)) * 0.02
        for i in range(cfg.num_layers):
            base = f"layers.{i}."
            # one projection for queries and keys: random projections preserve
            # inner products, so tied q/k makes attention scores track
            # embedding similarity; independent projections are similarity-blind.
            # It is stored beside the value projection, as [wqk | wv]
            p[base + "attn.wkv"] = np.concatenate((dense(d, d), transport(d, d)), axis=1)
            p[base + "attn.wo"] = transport(d, d)
            # the feed-forward path stays a mild perturbation so it cannot
            # overwrite transported content
            p[base + "mlp.w1"] = dense(d, hid)
            p[base + "mlp.w2"] = dense(hid, d) * 0.25
        p["text_proj"] = transport(d, cfg.joint_dim, noise=0.1)
        p["image.w1"] = transport(cfg.image_dim, cfg.image_hidden_dim)
        p["image.b1"] = rng.standard_normal(cfg.image_hidden_dim) * 0.02
        p["image.w2"] = transport(cfg.image_hidden_dim, cfg.joint_dim)
        p["image.b2"] = rng.standard_normal(cfg.joint_dim) * 0.02
        return {name: Tensor(arr, requires_grad=False, name=name) for name, arr in p.items()}

    # -- introspection -----------------------------------------------------------

    def parameters(self) -> dict:
        return dict(self._params)

    @property
    def token_embedding(self) -> Tensor:
        return self._params["token_embedding"]

    def embed_tokens(self, ids) -> Tensor:
        """Rows of the frozen token table for a 1D id sequence."""
        return T.embedding(self._params["token_embedding"], ids)

    def weights_fingerprint(self) -> bytes:
        """Order-stable byte digest of every weight, for freeze-contract checks."""
        digest = hashlib.sha256()
        for name in sorted(self._params):
            digest.update(name.encode())
            digest.update(self._params[name].data.tobytes())
        return digest.digest()

    # -- text branch ---------------------------------------------------------------

    def _block(self, layer: int, h: Tensor, groups, readout: bool = False) -> Tensor:
        """One pre-norm block over a row stack; ``readout`` keeps each sequence's last row."""
        p = self._params
        base = f"layers.{layer}."
        # self-scores are masked out inside the attention op: with tied q/k
        # projections the diagonal always wins the softmax, which starves
        # cross-token routing; the residual stream already carries each
        # token's own content
        h = T.attention_sublayer(h, p[base + "attn.wkv"], p[base + "attn.wo"],
                                 self.config.num_heads, groups, readout)
        return T.mlp_sublayer(h, p[base + "mlp.w1"], p[base + "mlp.w2"])

    def encode_text(self, stack: RowStack, deep_hook=None) -> Tensor:
        """Joint-space features [C, joint] for the C composed sequences of a ``RowStack``.

        The sequences must already carry their sentinel positions; a feature
        is the L2-normalized projection of the hidden state at the final
        (end-sentinel) position. Row-wise work (norms, projections, residuals,
        the MLP) runs once over the whole stack; attention runs per group.
        ``deep_hook(i, hidden) -> hidden`` is invoked on the stack's hidden
        rows [R, d] after block ``i`` (1-based) for 1 <= i < num_layers, which
        is the injection point for deep prompt replacement. The last block
        reads keys and values from every row but computes the rest (queries,
        residual, MLP, final norm) at the read-out rows only.
        """
        cfg = self.config
        rows, groups = stack
        covered = sum(count * length for count, length in groups)
        if rows.ndim != 2 or rows.shape[1] != cfg.embed_dim or not groups or covered != rows.shape[0]:
            raise ShapeError(f"encode_text expects a row stack [R, {cfg.embed_dim}] that its groups "
                             f"cover, got rows {rows.shape} and groups {list(groups)}")
        longest = max(length for _, length in groups)
        if longest > cfg.max_seq_len:
            raise CapacityError(f"sequence length {longest} exceeds max_seq_len {cfg.max_seq_len}")
        positions = np.concatenate([np.tile(np.arange(length), count) for count, length in groups])
        h = rows + T.embedding(self._params["pos_embedding"], positions)
        last = cfg.num_layers - 1
        for i in range(cfg.num_layers):
            h = self._block(i, h, groups, readout=i == last)
            if deep_hook is not None and i < last:
                h = deep_hook(i + 1, h)
        h = T.layer_norm(h, Tensor(np.ones(cfg.embed_dim)), Tensor(np.zeros(cfg.embed_dim)))
        return T.l2_normalize(T.matmul(h, self._params["text_proj"]))

    def encode_class_names(self, names) -> Tensor:
        """Plain hard-token features for equal-length class names [N, joint]."""
        seqs = [self.vocabulary.encode_with_sentinels(n) for n in names]
        lengths = {len(s) for s in seqs}
        if len(lengths) != 1:
            raise ShapeError(f"class names must tokenize to equal lengths, got {sorted(lengths)}")
        rows = self.embed_tokens(np.concatenate(seqs))
        return self.encode_text(RowStack(rows, ((len(seqs), lengths.pop()),)))

    # -- image branch -----------------------------------------------------------------

    def encode_image(self, x) -> Tensor:
        """L2-normalized joint features [B, joint] for a batch of raw vectors [B, image_dim]."""
        t = Tensor(x)
        if t.ndim != 2 or t.shape[1] != self.config.image_dim:
            raise ShapeError(f"encode_image expects [B, {self.config.image_dim}], got {t.shape}")
        p = self._params
        h = T.gelu(T.matmul(t, p["image.w1"]) + p["image.b1"])
        return T.l2_normalize(T.matmul(h, p["image.w2"]) + p["image.b2"])

    # -- scoring ------------------------------------------------------------------------

    def class_logits(self, u: Tensor, class_features: Tensor) -> Tensor:
        """cos(u_b, w_c) / TEMPERATURE [B, N] for u [B, joint]; inputs must be normalized."""
        if u.ndim != 2 or class_features.ndim != 2:
            raise ShapeError(f"class_logits expects image features [B, joint] and class features "
                             f"[N, joint], got {u.shape} and {class_features.shape}")
        return T.scale(T.matmul(u, T.transpose_last(class_features)), 1.0 / TEMPERATURE)

    # -- persistence ----------------------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "config": self.config.to_dict(),
            "seed": self.seed,
            "vocabulary": self.vocabulary.to_dict(),
            "weights": {name: t.data.tolist() for name, t in sorted(self._params.items())},
        }
        dump_artifact(CHECKPOINT_KIND, payload, path)

    @classmethod
    def load(cls, path: str) -> "DualEncoder":
        payload = load_artifact(path, CHECKPOINT_KIND, {
            "config": EncoderConfig, "seed": int, "vocabulary": Vocabulary, "weights": dict})
        enc = cls(payload["config"], payload["vocabulary"], payload["seed"])
        weights = payload["weights"]
        unknown = sorted(set(weights) - set(enc._params))
        if unknown:
            raise CheckpointError(f"{path}: unknown weight {unknown[0]}")
        for name, tens in enc._params.items():
            if name not in weights:
                raise CheckpointError(f"{path}: missing weight {name}")
            stored = numeric_array(weights[name], f"{path}: weight {name}",
                                   CheckpointError)
            if stored.shape != tens.data.shape:
                raise CheckpointError(f"{path}: weight {name} has shape {stored.shape}, expected {tens.data.shape}")
            tens.data = stored
        return enc


def build_config_for(vocabulary: Vocabulary, **overrides) -> EncoderConfig:
    """EncoderConfig whose embed_dim matches an existing vocabulary."""
    return EncoderConfig(embed_dim=vocabulary.dim, **overrides).validate()

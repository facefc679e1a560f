"""Miniature frozen dual encoder and the cosine-similarity scoring rule.

The text side is a small pre-norm transformer read out at the end-sentinel
position; the image side is a 2-layer MLP over synthetic raw feature
vectors. Both project into a shared joint space and L2-normalize, and class
probabilities are a temperature-scaled softmax over cosine similarities.

All encoder weights are sampled once from a seeded generator at
construction and are frozen (``requires_grad=False``): prompt learning only
ever trains soft tokens injected from outside. Internal projection matrices
use fan-in scaling so that token content actually propagates through
attention at this depth; token-embedding rows are copied verbatim from the
vocabulary, and the positional table and image biases use std 0.02.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .errors import CapacityError, CheckpointError, ConfigError, ParameterError, ShapeError
from .serialize import dump_json, expect_version, load_json
from .tensor import Tensor
from .vocab import Vocabulary

CHECKPOINT_KIND = "encoder_checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    embed_dim: int = 32
    num_layers: int = 4
    num_heads: int = 4
    max_seq_len: int = 32
    joint_dim: int = 16
    image_dim: int = 16
    image_hidden_dim: int = 32
    mlp_ratio: int = 2
    temperature: float = 0.07

    def validate(self) -> "EncoderConfig":
        for field in (
            "vocab_size",
            "embed_dim",
            "num_layers",
            "num_heads",
            "max_seq_len",
            "joint_dim",
            "image_dim",
            "image_hidden_dim",
            "mlp_ratio",
        ):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be positive, got {getattr(self, field)}")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EncoderConfig":
        return cls(**payload).validate()


class DualEncoder:
    """Frozen text transformer + frozen image MLP sharing a joint space."""

    def __init__(self, config: EncoderConfig, vocabulary: Vocabulary, seed: int):
        config.validate()
        if len(vocabulary) != config.vocab_size:
            raise ConfigError(
                f"config.vocab_size {config.vocab_size} != vocabulary size {len(vocabulary)}"
            )
        if vocabulary.dim != config.embed_dim:
            raise ConfigError(
                f"vocabulary dim {vocabulary.dim} != config.embed_dim {config.embed_dim}"
            )
        self.config = config
        self.vocabulary = vocabulary
        self.seed = int(seed)
        self._params = self._init_params(np.random.default_rng(self.seed))
        self._rows: dict = {}
        self._rows_table = None

    # -- construction -----------------------------------------------------------

    def _init_params(self, rng) -> dict:
        cfg = self.config
        d, hid = cfg.embed_dim, cfg.mlp_ratio * cfg.embed_dim

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
            p[base + "ln1.gain"] = np.ones(d)
            p[base + "ln1.bias"] = np.zeros(d)
            # key projection tied to the query projection: random projections
            # preserve inner products, so tied q/k makes attention scores track
            # embedding similarity; independent projections are similarity-blind
            p[base + "attn.wq"] = dense(d, d)
            p[base + "attn.wk"] = p[base + "attn.wq"].copy()
            p[base + "attn.wv"] = transport(d, d)
            p[base + "attn.wo"] = transport(d, d)
            p[base + "ln2.gain"] = np.ones(d)
            p[base + "ln2.bias"] = np.zeros(d)
            # the feed-forward path stays a mild perturbation so it cannot
            # overwrite transported content
            p[base + "mlp.w1"] = dense(d, hid)
            p[base + "mlp.b1"] = np.zeros(hid)
            p[base + "mlp.w2"] = dense(hid, d) * 0.25
            p[base + "mlp.b2"] = np.zeros(d)
        p["ln_final.gain"] = np.ones(d)
        p["ln_final.bias"] = np.zeros(d)
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

    def frozen_rows(self, ids) -> Tensor:
        """``embed_tokens(ids)``, built once per id sequence while the table is frozen.

        Prompt composition asks for the same hard tokens (sentinels, attribute
        words, class names) at every step. The cache remembers the table array
        it was filled from, so replacing the weights (as ``load`` does)
        empties it; a table that requires gradients bypasses it.
        """
        table = self._params["token_embedding"]
        if table.requires_grad:
            return self.embed_tokens(ids)
        if self._rows_table is not table.data:
            self._rows, self._rows_table = {}, table.data
        key = tuple(map(int, ids))
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = self.embed_tokens(ids)
        return rows

    def weights_fingerprint(self) -> bytes:
        """Order-stable byte digest of every weight, for freeze-contract checks."""
        digest = hashlib.sha256()
        for name in sorted(self._params):
            digest.update(name.encode())
            digest.update(self._params[name].data.tobytes())
        return digest.digest()

    # -- text branch ---------------------------------------------------------------

    def _attention(self, layer: int, x: Tensor) -> Tensor:
        cfg = self.config
        p = self._params
        base = f"layers.{layer}."
        q = T.matmul(x, p[base + "attn.wq"])
        k = T.matmul(x, p[base + "attn.wk"])
        v = T.matmul(x, p[base + "attn.wv"])
        head_dim = cfg.embed_dim // cfg.num_heads
        inv_sqrt = 1.0 / math.sqrt(head_dim)
        # self-scores are masked out: with tied q/k projections the diagonal
        # always wins the softmax, which starves cross-token routing; the
        # residual stream already carries each token's own content
        seq_len = x.data.shape[-2]
        mask = Tensor(np.diag(np.full(seq_len, -1e9)), requires_grad=False)
        heads = []
        for h in range(cfg.num_heads):
            lo, hi = h * head_dim, (h + 1) * head_dim
            qh = T.narrow(q, -1, lo, hi)
            kh = T.narrow(k, -1, lo, hi)
            vh = T.narrow(v, -1, lo, hi)
            scores = T.scale(T.matmul(qh, T.transpose_last(kh)), inv_sqrt)
            heads.append(T.matmul(T.softmax(scores + mask, axis=-1), vh))
        return T.matmul(T.concat(heads, axis=-1), p[base + "attn.wo"])

    def _block(self, layer: int, h: Tensor) -> Tensor:
        p = self._params
        base = f"layers.{layer}."
        normed = T.layer_norm(h, p[base + "ln1.gain"], p[base + "ln1.bias"])
        h = h + self._attention(layer, normed)
        normed = T.layer_norm(h, p[base + "ln2.gain"], p[base + "ln2.bias"])
        inner = T.gelu(T.matmul(normed, p[base + "mlp.w1"]) + p[base + "mlp.b1"])
        return h + T.matmul(inner, p[base + "mlp.w2"]) + p[base + "mlp.b2"]

    def encode_text(self, embeds: Tensor, deep_hook=None) -> Tensor:
        """Joint-space feature(s) for one composed sequence [L, d] or a batch [C, L, d].

        The sequence must already carry its sentinel positions; the feature
        is the L2-normalized projection of the hidden state at the final
        (end-sentinel) position. ``deep_hook(i, hidden) -> hidden`` is
        invoked after block ``i`` (1-based) for 1 <= i < num_layers, which is
        the injection point for deep prompt replacement.
        """
        cfg = self.config
        if embeds.ndim not in (2, 3):
            raise ShapeError(f"encode_text expects [L, d] or [C, L, d], got {embeds.shape}")
        seq_len, dim = embeds.shape[-2], embeds.shape[-1]
        if dim != cfg.embed_dim:
            raise ShapeError(f"embedding dim {dim} != configured {cfg.embed_dim}")
        if seq_len > cfg.max_seq_len:
            raise CapacityError(
                f"sequence length {seq_len} exceeds max_seq_len {cfg.max_seq_len}"
            )
        pos = T.narrow(self._params["pos_embedding"], 0, 0, seq_len)
        h = embeds + pos
        for i in range(cfg.num_layers):
            h = self._block(i, h)
            if deep_hook is not None and i + 1 < cfg.num_layers:
                h = deep_hook(i + 1, h)
        h = T.layer_norm(h, self._params["ln_final.gain"], self._params["ln_final.bias"])
        last = T.narrow(h, -2, seq_len - 1, seq_len)
        if embeds.ndim == 3:
            last = T.reshape(last, (embeds.shape[0], cfg.embed_dim))
            feat = T.matmul(last, self._params["text_proj"])
        else:
            last = T.reshape(last, (1, cfg.embed_dim))
            feat = T.reshape(T.matmul(last, self._params["text_proj"]), (cfg.joint_dim,))
        return T.l2_normalize(feat)

    def encode_class_names(self, names) -> Tensor:
        """Plain hard-token features for equal-length class names [N, joint]."""
        seqs = [self.vocabulary.encode_with_sentinels(n) for n in names]
        lengths = {len(s) for s in seqs}
        if len(lengths) != 1:
            raise ShapeError(f"class names must tokenize to equal lengths, got {sorted(lengths)}")
        embeds = T.stack([self.embed_tokens(s) for s in seqs])
        return self.encode_text(embeds)

    # -- image branch -----------------------------------------------------------------

    def encode_image(self, x) -> Tensor:
        """L2-normalized joint feature(s) for raw vectors [image_dim] or [B, image_dim]."""
        cfg = self.config
        t = x if isinstance(x, Tensor) else Tensor(x)
        single = t.ndim == 1
        if single:
            t = T.reshape(t, (1, t.shape[0]))
        if t.ndim != 2 or t.shape[1] != cfg.image_dim:
            raise ShapeError(f"encode_image expects [*, {cfg.image_dim}], got {x.shape if isinstance(x, Tensor) else np.shape(x)}")
        p = self._params
        h = T.gelu(T.matmul(t, p["image.w1"]) + p["image.b1"])
        out = T.l2_normalize(T.matmul(h, p["image.w2"]) + p["image.b2"])
        if single:
            out = T.reshape(out, (cfg.joint_dim,))
        return out

    # -- scoring ------------------------------------------------------------------------

    def class_logits(self, u: Tensor, class_features: Tensor, temperature: float = None) -> Tensor:
        """cos(u, w_c) / temperature for every class c; inputs must be normalized."""
        tau = self.config.temperature if temperature is None else temperature
        if tau <= 0:
            raise ParameterError(f"temperature must be positive, got {tau}")
        if class_features.ndim != 2:
            raise ShapeError(f"class features must be [N, joint], got {class_features.shape}")
        single = u.ndim == 1
        if single:
            u = T.reshape(u, (1, u.shape[0]))
        logits = T.scale(T.matmul(u, T.transpose_last(class_features)), 1.0 / tau)
        if single:
            logits = T.reshape(logits, (class_features.shape[0],))
        return logits

    def class_probabilities(self, u: Tensor, class_features: Tensor, temperature: float = None) -> Tensor:
        return T.softmax(self.class_logits(u, class_features, temperature), axis=-1)

    # -- persistence ----------------------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "kind": CHECKPOINT_KIND,
            "format_version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "seed": self.seed,
            "vocabulary": self.vocabulary.to_dict(),
            "weights": {name: t.data.tolist() for name, t in sorted(self._params.items())},
        }
        dump_json(payload, path)

    @classmethod
    def load(cls, path: str, expected_config: EncoderConfig = None) -> "DualEncoder":
        payload = load_json(path)
        expect_version(payload, CHECKPOINT_KIND, CHECKPOINT_VERSION, path)
        config = EncoderConfig.from_dict(payload["config"])
        if expected_config is not None and config != expected_config:
            diffs = [
                f"{k}: checkpoint {v!r} != runtime {getattr(expected_config, k)!r}"
                for k, v in config.to_dict().items()
                if getattr(expected_config, k) != v
            ]
            raise CheckpointError(f"{path}: config mismatch ({'; '.join(diffs)})")
        vocabulary = Vocabulary.from_dict(payload["vocabulary"])
        enc = cls(config, vocabulary, payload["seed"])
        for name, tens in enc._params.items():
            stored = np.asarray(payload["weights"][name], dtype=np.float64)
            if stored.shape != tens.data.shape:
                raise CheckpointError(f"{path}: weight {name} has shape {stored.shape}, expected {tens.data.shape}")
            tens.data = stored
        return enc


def build_config_for(vocabulary: Vocabulary, **overrides) -> EncoderConfig:
    """EncoderConfig whose vocab fields match an existing vocabulary."""
    overrides.setdefault("vocab_size", len(vocabulary))
    overrides.setdefault("embed_dim", vocabulary.dim)
    return EncoderConfig(**overrides).validate()

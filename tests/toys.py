"""Small shared builders for vocabulary/encoder objects used across tests."""

import numpy as np

from promptlab.encoders import DualEncoder, EncoderConfig
from promptlab.vocab import EOS, SOS, Vocabulary

WORDS = [
    "a", "photo", "of", "red", "blue", "round", "square",
    "cat", "dog", "bird", "fish", "color", "shape", "size",
]


def make_vocab(words=None, dim=32, seed=0):
    words = WORDS if words is None else list(words)
    full = [SOS, EOS] + words
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((len(full), dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return Vocabulary(full, vecs)


def make_encoder(vocab=None, seed=7, **overrides):
    vocab = vocab or make_vocab(dim=overrides.get("embed_dim", 32))
    cfg = EncoderConfig(
        embed_dim=vocab.dim,
        **{k: v for k, v in overrides.items() if k != "embed_dim"},
    ).validate()
    return DualEncoder(cfg, vocab, seed)


def tiny_encoder(seed=7):
    """Small config for finite-difference work: 2 layers, dim 8."""
    vocab = make_vocab(dim=8)
    cfg = EncoderConfig(
        embed_dim=8, num_layers=2, num_heads=2,
        max_seq_len=16, joint_dim=6, image_dim=5, image_hidden_dim=7,
    )
    return DualEncoder(cfg, vocab, seed)

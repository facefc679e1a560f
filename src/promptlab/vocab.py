"""Word-level vocabulary: sentinel tokens, lookup, and embedding vectors.

Every text sequence fed to the encoder is wrapped in explicit ``[SOS]`` /
``[EOS]`` sentinels, and the text feature is read at the ``[EOS]`` position.
The vocabulary also owns the initial embedding vector for each word; the
encoder copies these into its (frozen) token table, so the vector geometry
chosen at task-generation time is what the encoder sees.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, PromptLabError, ShapeError, TokenizationError
from .serialize import check_fields, numeric_array

SOS = "[SOS]"
EOS = "[EOS]"

# default soft-token initialization phrase, CoOp-style
PHOTO_TEMPLATE = "a photo of a"

# the keys of a vocabulary's JSON form, both required
VOCABULARY_TYPES = {"words": tuple[str, ...], "vectors": tuple}


class Vocabulary:
    def __init__(self, words, vectors):
        words = list(words)
        vectors = np.asarray(vectors, dtype=np.float64)
        if len(set(words)) != len(words):
            repeated = sorted({w for w in words if words.count(w) > 1})
            raise DataError(f"vocabulary words must be unique; repeated: {', '.join(repeated)}")
        if SOS not in words or EOS not in words:
            raise DataError(f"vocabulary must contain the sentinels {SOS} and {EOS}")
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise ShapeError(
                f"vectors must be (num_words, dim), got {vectors.shape} for {len(words)} words"
            )
        self.words = words
        self.vectors = vectors
        self._ids = {w: i for i, w in enumerate(words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def sos_id(self) -> int:
        return self._ids[SOS]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS]

    def id_of(self, word: str) -> int:
        try:
            return self._ids[word]
        except KeyError:
            raise TokenizationError(f"word not in vocabulary: {word!r}")

    def encode(self, text: str) -> np.ndarray:
        """Whitespace-split, lowercased word ids. Unknown words, or none, are an error."""
        ids = [self.id_of(w) for w in text.lower().split()]
        if not ids:
            raise TokenizationError(f"text holds no word: {text!r}")
        return np.asarray(ids, dtype=np.int64)

    def encode_with_sentinels(self, text: str) -> np.ndarray:
        inner = self.encode(text)
        return np.concatenate(([self.sos_id], inner, [self.eos_id]))

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"words": self.words, "vectors": self.vectors.tolist()}

    @classmethod
    def from_dict(cls, payload, what: str = "Vocabulary") -> "Vocabulary":
        """The vocabulary a JSON object gives; both keys are required."""
        body = check_fields(VOCABULARY_TYPES, payload, what, VOCABULARY_TYPES)
        vectors = numeric_array(body["vectors"], f"{what}.vectors")
        try:
            return cls(body["words"], vectors)
        except PromptLabError as exc:
            raise type(exc)(f"{what}: {exc}") from None

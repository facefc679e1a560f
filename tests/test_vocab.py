import re

import numpy as np
import pytest

from promptlab.errors import DataError, TokenizationError
from promptlab.vocab import EOS, SOS, Vocabulary
from toys import make_vocab


def test_rejects_duplicate_words():
    with pytest.raises(DataError):
        Vocabulary([SOS, EOS, "cat", "cat"], np.zeros((4, 3)))


def test_duplicate_words_are_named():
    with pytest.raises(DataError, match="unique; repeated: cat, photo$"):
        Vocabulary([SOS, EOS, "photo", "cat", "dog", "cat", "photo"], np.zeros((7, 3)))


def test_requires_sentinels():
    with pytest.raises(DataError):
        Vocabulary(["cat", "dog"], np.zeros((2, 3)))


def test_encode_splits_and_lowercases():
    v = make_vocab()
    ids = v.encode("Red Cat")
    assert ids.tolist() == [v.id_of("red"), v.id_of("cat")]


def test_encode_unknown_word_names_it():
    v = make_vocab()
    with pytest.raises(TokenizationError) as err:
        v.encode("glowing cat")
    assert "glowing" in str(err.value)


@pytest.mark.parametrize("text", ["", " ", "\t\n"])
def test_encode_rejects_text_that_holds_no_word(text):
    with pytest.raises(TokenizationError, match=f"holds no word: {re.escape(repr(text))}$"):
        make_vocab().encode(text)


def test_encode_with_sentinels_wraps():
    v = make_vocab()
    ids = v.encode_with_sentinels("cat")
    assert ids[0] == v.sos_id and ids[-1] == v.eos_id
    assert len(ids) == 3


def test_dict_round_trip_is_exact():
    v = make_vocab()
    clone = Vocabulary.from_dict(v.to_dict())
    assert clone.words == v.words
    np.testing.assert_array_equal(clone.vectors, v.vectors)


def test_contains_and_len():
    v = make_vocab()
    assert "cat" in v and "zebra" not in v
    assert len(v) == len(v.words)

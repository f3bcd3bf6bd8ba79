"""Word-list validation: one duplicate check for validate_words and read_wordlist."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from editdict.errors import ValidationError
from editdict.index_io import read_wordlist
from editdict.util import first_copies, validate_words
from conftest import random_words

# Few short words over three letters, drawn with repeats: most lists hold
# copies, at random positions, and their sorted order is seldom the order
# they came in.
_WORD_LISTS = st.lists(st.sampled_from([b"b", b"a", b"ab", b"ba", b"c", b"cab", b"aa", b"bca"]),
                       max_size=40)


@settings(max_examples=200, deadline=None)
@given(words=_WORD_LISTS)
@example(words=[b"b", b"a", b"b", b"c", b"a"])
def test_first_copies_in_first_seen_order(words):
    want = list(dict.fromkeys(words))
    assert first_copies(list(words)) == want
    assert validate_words(words) == want
    assert validate_words(iter(words)) == want
    assert read_wordlist(b"".join(w + b"\n" for w in words)) == want


def test_a_list_without_copies_is_returned_as_it_is():
    words = [b"c", b"a", b"b"]
    assert first_copies(words) is words


@settings(max_examples=100, deadline=None)
@given(words=_WORD_LISTS.filter(lambda ws: len(set(ws)) < len(ws)),
       bad=st.sampled_from([b"x\0y", b"\0"]), data=st.data())
def test_an_invalid_word_after_a_copy_is_named_by_its_position(words, bad, data):
    # The first copy comes before the bad word, so the bad word's input
    # position counts the copies that deduplication drops.
    first_repeat = next(i for i, w in enumerate(words) if w in words[:i])
    at = data.draw(st.integers(first_repeat + 1, len(words)))
    listed = words[:at] + [bad] + words[at:]
    with pytest.raises(ValidationError, match=rf"^word #{at} contains a zero byte"):
        validate_words(listed)
    with pytest.raises(ValidationError, match=rf"^line {at + 1} contains a zero byte"):
        read_wordlist(b"".join(w + b"\n" for w in listed))


def test_validate_words_holds_few_bytes_per_distinct_word():
    # A list with no copies is checked by sorting references to its words,
    # about 8 bytes a word with the sort's buffer; a set of the words would
    # take over 100.
    words = random_words(random.Random(1), 20_000, min_len=16, max_len=40)
    assert len(words) == 20_000
    validate_words(words[:10])
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = validate_words(words)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert out == words
    assert peak < 32 * len(words), f"{peak / len(words):.1f} bytes per word"

"""Shared helpers: word validation and open-addressing capacity rules."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import eq

from .errors import IndexFormatError, TableFullError, TruncatedError, ValidationError

# Hard ceiling for incremental inserts, as a fraction of table capacity.
MAX_INSERT_LOAD = Fraction(19, 20)

# A word table's width, the length of its words, is a 16-bit field.
MAX_WORD_LENGTH = 0xFFFF


def capacity_for(count: int, alpha: Fraction) -> int:
    """Slot count for a table holding `count` entries at load factor alpha.

    ceil(count / alpha), but never smaller than count + 1 so that every
    table keeps at least one empty slot and probe scans always terminate.
    """
    if count < 0:
        raise ValidationError("entry count must be non-negative")
    num, den = alpha.numerator, alpha.denominator
    return max(-(-count * den // num), count + 1)


def check_headroom(current: int, added: int, capacity: int, what: str) -> None:
    """Raise TableFullError unless `added` more entries fit under the ceiling."""
    total = current + added
    if total > capacity - 1 or total * MAX_INSERT_LOAD.denominator > MAX_INSERT_LOAD.numerator * capacity:
        raise TableFullError(
            f"{what}: {added} new entries would raise load past "
            f"{float(MAX_INSERT_LOAD):.2f} ({current}/{capacity} used)"
        )


def check_loaded_table(what: str, count: int, capacity: int, empty_slot: bool) -> None:
    """Reject a table read from a file unless its count leaves a slot free
    and `empty_slot`, found in the slots themselves, says one is: every
    probe scan ends at an empty slot, so without one a scan for an absent
    key never ends.
    """
    if count >= capacity or not empty_slot:
        raise IndexFormatError(f"{what}: {count} entries, no empty slot among {capacity}")


def take(buf, offset: int, size: int, what: str):
    """buf[offset:offset + size]; TruncatedError if buf ends before that."""
    end = offset + size
    if end > len(buf):
        raise TruncatedError(f"{what} runs past the end of the file")
    return buf[offset:end]


def as_bytes(value, what: str = "word") -> bytes:
    """value as bytes: the bytes of a bytes-like value, or a str encoded
    as latin-1.  ValidationError, naming `what`, for anything else."""
    if type(value) is bytes:
        return value
    if isinstance(value, str):
        try:
            return value.encode("latin-1")
        except UnicodeEncodeError:
            raise ValidationError(f"{what} has a character above U+00FF") from None
    try:
        with memoryview(value) as view:
            return view.tobytes()
    except TypeError:
        raise ValidationError(f"{what} must be bytes-like or a str, "
                              f"not {type(value).__name__}") from None


def validate_word(word, where: str = "word") -> bytes:
    """A single word as bytes (see as_bytes), checked: non-empty, no NUL
    bytes, length under 2**16.  `where` names the word in the error message."""
    word = as_bytes(word, where)
    if len(word) == 0:
        raise ValidationError(f"{where} is empty")
    if len(word) > MAX_WORD_LENGTH:
        raise ValidationError(f"{where} is longer than {MAX_WORD_LENGTH} bytes")
    if 0 in word:
        raise ValidationError(f"{where} contains a zero byte (reserved as empty-slot sentinel)")
    return word


def first_copies(words: list[bytes]) -> list[bytes]:
    """words without the later copies of any word, in first-seen order.

    Sorts a copy of the list, which holds 8 bytes a word, and looks for
    two equal neighbours; only a list that has them pays for a set of its
    words.  words itself is returned when it holds no copies.
    """
    ordered = sorted(words)
    if not any(map(eq, ordered, islice(ordered, 1, None))):
        return words
    del ordered
    seen = set()
    return [w for w in words if not (w in seen or seen.add(w))]


def validate_words(words) -> list[bytes]:
    """Validate and deduplicate a word list, preserving first-seen order."""
    try:
        words = iter(words)
    except TypeError:
        raise ValidationError(f"word list must be iterable, not {type(words).__name__}") from None
    return first_copies([validate_word(word, f"word #{i}") for i, word in enumerate(words)])

"""Rank-supporting bit vector over 32-bit words.

In memory, bit i lives in bit i & 31 of data word i >> 5 of one
array('I'), and a second array('I') holds, for every data word, the
number of ones in the words before it, with the total as a last entry.
This is a one-level word rank directory in the style of rank9 (Vigna,
"Broadword Implementation of Rank/Select Queries", WEA 2008): rank1(i)
is ranks[i >> 5] plus the popcount of word i >> 5 below bit i, so the
probe loops of the compacted tables compute it inline.  Both arrays take
n_bits / 8 bytes each.

On disk (to_bytes / from_bytes) the same words are interleaved with
running counts: a header <QB of n_bits and delta, then one count word and
delta data words, repeated, all little-endian 32-bit.  Count number i
holds the number of ones in the data words before block i.  The file
therefore takes n_bits * (1 + 1/delta) bits plus rounding, delta = 4 by
default; loading recomputes the per-word ranks and rejects a file whose
stored counts disagree with them.

Compacted tables keep a linear-probing slot array as (occupancy bits,
dense payload): the payload of original slot s sits at dense[rank1(s)]
whenever bit s is set, and a run of ones that wraps past the end
continues at dense[0] because probing is circular.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import accumulate

from .errors import IndexFormatError
from .util import take

# Flag byte -> binary digit: 0 stays "0", any other value becomes "1".
_DIGITS = b"0" + b"1" * 255
_BIG_ENDIAN = sys.byteorder == "big"

# Flags (slots) per chunk where from_flags and SubstStore.compact stream
# over a slot array: the copies a chunk makes stay small beside the
# table, and there are few chunks to loop over.  A multiple of 32, so
# each chunk fills whole words.
_CHUNK = 1 << 16


def u32_array(data) -> array:
    """array('I') of the little-endian 32-bit words in data.

    Sized by repetition and filled through a byte view: frombytes would
    over-allocate by about 6%, and the array is kept for the index's life.
    """
    words = array("I", [0]) * (len(data) >> 2)
    memoryview(words).cast("B")[:] = data
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def u32_bytes(words: array) -> bytes:
    """The little-endian bytes of an array('I'); the inverse of u32_array."""
    if _BIG_ENDIAN:
        words = array("I", words)
        words.byteswap()
    return words.tobytes()


def run_of_ones(words, n_bits: int, i: int, limit: int) -> int:
    """Length of the run of ones starting at bit i, wrapping from the last
    bit to bit 0.

    Counts one 32-bit word at a time with the trailing-ones trick and
    stops as soon as the run reaches `limit`, so the result is exact below
    `limit` and some value >= `limit` otherwise.  Bits past n_bits in the
    last word must be clear.
    """
    run = 0
    while True:
        x = words[i >> 5] >> (i & 31)
        ones = (x ^ (x + 1)).bit_length() - 1  # trailing ones of x
        run += ones
        if run >= limit or not ones:
            return run
        i += ones
        if i == n_bits:
            i = 0
        elif i & 31:
            return run


class RankBitVector:
    """Static bit vector answering rank1 queries; run_of_ones scans its words."""

    __slots__ = ("n_bits", "delta", "total_ones", "words", "ranks")

    def __init__(self, n_bits: int, delta: int, words: array):
        self.n_bits = n_bits
        self.delta = delta
        self.words = words
        self.ranks = array("I", accumulate(map(int.bit_count, words), initial=0))
        self.total_ones = self.ranks[-1]

    @classmethod
    def from_flags(cls, flags, delta: int = 4) -> "RankBitVector":
        """Build from bytes or a bytearray holding one byte per bit, nonzero meaning set.

        Fills a preallocated word array one chunk of _CHUNK flags at a
        time, so the copies it makes besides the words and ranks it keeps
        are a few chunks long, not a few times len(flags).
        """
        if delta < 1:
            raise ValueError("delta must be >= 1")
        n_bits = len(flags)
        words = array("I", [0]) * ((n_bits + 31) >> 5)
        with memoryview(words).cast("B") as out:
            for a in range(0, n_bits, _CHUNK):
                chunk = flags[a : a + _CHUNK]
                # Bit i of the integer is chunk[i]; int() parses base 2 in linear time.
                value = int(chunk[::-1].translate(_DIGITS), 2)
                n_bytes = ((len(chunk) + 31) >> 5) << 2
                out[a >> 3 : (a >> 3) + n_bytes] = value.to_bytes(n_bytes, "little")
        if _BIG_ENDIAN:
            words.byteswap()
        return cls(n_bits, delta, words)

    def rank1(self, i: int) -> int:
        """Number of ones in positions [0, i); i may equal n_bits."""
        if i < 0 or i > self.n_bits:
            raise IndexError(f"rank position {i} out of range [0, {self.n_bits}]")
        if i == self.n_bits:
            return self.total_ones
        w = i >> 5
        return self.ranks[w] + (self.words[w] & ((1 << (i & 31)) - 1)).bit_count()

    def _stored_words(self) -> int:
        """Count words plus data words in the on-disk layout."""
        n_words = len(self.words)
        return n_words + -(-n_words // self.delta)

    def to_bytes(self) -> bytes:
        delta = self.delta
        step = delta + 1
        n_words = len(self.words)
        out = array("I", bytes(4 * self._stored_words()))
        out[0::step] = self.ranks[0:n_words:delta]
        for r in range(delta):
            out[r + 1 :: step] = self.words[r::delta]
        return struct.pack("<QB", self.n_bits, delta) + u32_bytes(out)

    @classmethod
    def from_bytes(cls, buf, offset: int = 0) -> tuple["RankBitVector", int]:
        """Parse from a buffer; returns (vector, offset past the vector).

        Raises IndexFormatError unless the stored block counts equal the
        prefix popcounts and the bits past n_bits are clear.
        """
        n_bits, delta = struct.unpack_from("<QB", buf, offset)
        offset += 9
        if delta < 1:
            raise IndexFormatError("rank bit vector has sampling interval 0")
        n_words = (n_bits + 31) >> 5
        size = 4 * (n_words + -(-n_words // delta))
        words = u32_array(take(buf, offset, size, f"rank bit vector of {n_bits} bits"))
        counts = words[0 :: delta + 1]
        del words[0 :: delta + 1]
        rbv = cls(n_bits, delta, words)
        if counts != rbv.ranks[0:n_words:delta]:
            raise IndexFormatError("rank bit vector counts disagree with its bits")
        if n_bits & 31 and words[-1] >> (n_bits & 31):
            raise IndexFormatError("rank bit vector has bits set past its length")
        return rbv, offset + size


def read_occupancy(buf, offset: int, n_slots: int, count: int,
                   what: str) -> tuple[RankBitVector, int]:
    """from_bytes for the occupancy bits of a table with n_slots slots
    holding count entries; IndexFormatError if the bits disagree."""
    occ, offset = RankBitVector.from_bytes(buf, offset)
    if occ.n_bits != n_slots:
        raise IndexFormatError(f"{what}: occupancy of {occ.n_bits} bits for {n_slots} slots")
    if occ.total_ones != count:
        raise IndexFormatError(f"{what}: {occ.total_ones} occupied slots, header count {count}")
    return occ, offset

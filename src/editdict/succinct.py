"""Rank-supporting bit vector over 64-bit words.

In memory, bit i lives in bit i & 63 of data word i >> 6 of one
array('Q'), and an array('I') holds, for every data word, the number of
ones in the words before it, with the total as a last entry.  This is a
one-level word rank directory in the style of rank9 (Vigna, "Broadword
Implementation of Rank/Select Queries", WEA 2008): rank1(i) is
ranks[i >> 6] plus the popcount of word i >> 6 below bit i, so the probe
loops of the compacted tables compute it inline.  The data words take
n_bits / 8 bytes and the ranks n_bits / 16.  The ranks are computed a
chunk of words at a time with no call per word: a 256-entry table
translates the words' bytes into their popcounts, and the eight strided
byte columns, read as integers and summed, hold one word's popcount per
byte (at most 64, so no byte carries into the next); one accumulate then
runs over those bytes.

On disk (to_bytes / from_bytes) the vector is its in-memory form: the
(n_bits + 63) // 64 data words as little-endian 64-bit words, then every
delta-th rank, ranks[0 : n_words : delta], as little-endian 32-bit
counts.  Count number i holds the number of ones in the data words before
word i * delta.  The vector has no header of its own: n_bits is the
capacity of the table it belongs to and delta the file header's.  The
file therefore takes n_bits * (1 + 1/(2 * delta)) bits plus rounding,
delta = 4 by default.  Loading computes the ranks from the bits and
rejects a file whose stored counts disagree with them or that sets a bit
past n_bits.

The file is little-endian whatever the host.  Only the three array
helpers below (u32_bytes, _u64_array, _u64_bytes) and the byteswap that
ends from_flags depend on the host's byte order; those big-endian
branches have not been run on a big-endian host.

A compacted table keeps its linear-probing payload arrays over entries
instead of slots, beside its occupancy bits: the payload of slot s sits
at entry rank1(s) whenever bit s is set, and a run of ones that wraps
past the end continues at entry 0 because probing is circular.  squeeze
gives those arrays: an empty slot's payload is zero bytes and an
occupied one holds none, so deleting the zero bytes keeps exactly the
occupied slots, in slot order.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate

from .errors import IndexFormatError
from .util import take

# Flag byte -> binary digit: 0 stays "0", any other value becomes "1".
_DIGITS = b"0" + b"1" * 255
# Byte -> the number of ones in it.
_POPCOUNT = bytes(map(int.bit_count, range(256)))
_BIG_ENDIAN = sys.byteorder == "big"

# Most flags (slots) per chunk where from_flags, the rank computation,
# squeeze and SubstStore.compact stream over a table: the copies a chunk makes stay
# small beside the table, and there are few chunks to loop over.  A
# multiple of 64, so each chunk fills whole words.
_CHUNK = 1 << 16


def chunk_size(n_bits: int) -> int:
    """Flags per chunk for a table of n_bits slots: about an eighth of
    the table, so that a small table's chunk copies stay small beside it,
    and at most _CHUNK; always a positive multiple of 64."""
    return min(_CHUNK, ((n_bits >> 9) + 1) << 6)


def squeeze(buf: bytearray) -> bytes:
    """The bytes of buf with every zero byte deleted.

    Works chunk_size(len(buf)) bytes at a time inside buf itself: each
    chunk's nonzero bytes move to the front of buf, whose write offset
    never passes the read offset, so beside buf only a chunk and the
    result are allocated.  buf's prefix is overwritten.
    """
    step = chunk_size(len(buf))
    d = 0
    for a in range(0, len(buf), step):
        run = buf[a : a + step].translate(None, b"\0")
        buf[d : d + len(run)] = run
        d += len(run)
    with memoryview(buf) as view:
        return view[:d].tobytes()


def u32_bytes(words: array) -> bytes:
    """The little-endian bytes of an array('I')."""
    if _BIG_ENDIAN:
        words = array("I", words)
        words.byteswap()
    return words.tobytes()


def _u64_array(data) -> array:
    """array('Q') of the little-endian 64-bit words in data.

    Sized by repetition and filled through a byte view: frombytes would
    over-allocate by about 6%, and the array is kept for the index's life.
    """
    words = array("Q", [0]) * (len(data) >> 3)
    memoryview(words).cast("B")[:] = data
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _u64_bytes(words: array) -> bytes:
    """The little-endian bytes of an array('Q'); the inverse of _u64_array."""
    if _BIG_ENDIAN:
        words = array("Q", words)
        words.byteswap()
    return words.tobytes()


def _ranks(words: array, chunk: int) -> array:
    """Ones in the words before each word, and the total as a last entry:
    an array('I') of exactly len(words) + 1 entries, filled chunk / 64
    words at a time.  A word's popcount does not depend on the order of
    its bytes, so this reads the host's bytes as they are."""
    n = len(words)
    ranks = array("I", [0]) * (n + 1)
    step = chunk >> 6
    with memoryview(words).cast("B") as raw:
        for a in range(0, n, step):
            b = min(a + step, n)
            counts = raw[a << 3 : b << 3].tobytes().translate(_POPCOUNT)
            per_word = sum(int.from_bytes(counts[j::8], "little") for j in range(8))
            ranks[a : b + 1] = array("I", accumulate(per_word.to_bytes(b - a, "little"),
                                                     initial=ranks[a]))
    return ranks


def run_of_ones(words, n_bits: int, i: int, limit: int) -> int:
    """Length of the run of ones starting at bit i, wrapping from the last
    bit to bit 0.

    Counts one 64-bit word at a time with the trailing-ones trick and
    stops as soon as the run reaches `limit`, so the result is exact below
    `limit` and some value >= `limit` otherwise.  Bits past n_bits in the
    last word must be clear.
    """
    run = 0
    while True:
        x = words[i >> 6] >> (i & 63)
        ones = (x ^ (x + 1)).bit_length() - 1  # trailing ones of x
        run += ones
        if run >= limit or not ones:
            return run
        i += ones
        if i == n_bits:
            i = 0
        elif i & 63:
            return run


class RankBitVector:
    """Static bit vector answering rank1 queries; run_of_ones scans its words."""

    __slots__ = ("n_bits", "delta", "total_ones", "words", "ranks")

    def __init__(self, n_bits: int, delta: int, words: array):
        """words: an array('Q') of (n_bits + 63) // 64 words, clear past n_bits."""
        self.n_bits = n_bits
        self.delta = delta
        self.words = words
        # The rank loop copies about 0.4 bytes per bit where from_flags
        # copies about 2 per flag, so its chunks are four times as long.
        self.ranks = _ranks(words, chunk_size(n_bits) << 2)
        self.total_ones = self.ranks[-1]

    @classmethod
    def from_flags(cls, flags, delta: int = 4) -> "RankBitVector":
        """Build from bytes or a bytearray holding one byte per bit, nonzero meaning set.

        Fills a preallocated word array one chunk of chunk_size(len(flags))
        flags at a time, so the copies it makes besides the words and ranks
        it keeps are a few chunks long, not a few times len(flags).
        """
        if delta < 1:
            raise ValueError("delta must be >= 1")
        n_bits = len(flags)
        words = array("Q", [0]) * ((n_bits + 63) >> 6)
        chunk = chunk_size(n_bits)
        with memoryview(words).cast("B") as out:
            for a in range(0, n_bits, chunk):
                b = min(a + chunk, n_bits)
                # flags[b - 1], ..., flags[a] in one slice, so bit i of the
                # integer is flags[a + i]; int() parses base 2 in linear time.
                value = int(flags[b - 1 : a - 1 if a else None : -1].translate(_DIGITS), 2)
                n_bytes = ((b - a + 63) >> 6) << 3
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
        w = i >> 6
        return self.ranks[w] + (self.words[w] & ((1 << (i & 63)) - 1)).bit_count()

    def to_bytes(self) -> bytes:
        """The data words, then every delta-th rank (see the module docstring)."""
        return _u64_bytes(self.words) + u32_bytes(self.ranks[0 : len(self.words) : self.delta])

    @classmethod
    def from_bytes(cls, buf, offset: int, n_bits: int, delta: int) -> tuple["RankBitVector", int]:
        """Parse the vector of n_bits bits sampled every delta words from a
        buffer; returns (vector, offset past the vector).

        Raises IndexFormatError unless the stored counts equal the prefix
        popcounts and the bits past n_bits are clear.
        """
        n_words = (n_bits + 63) >> 6
        size = 8 * n_words + 4 * -(-n_words // delta)
        data = take(buf, offset, size, f"rank bit vector of {n_bits} bits")
        words = _u64_array(data[: 8 * n_words])
        rbv = cls(n_bits, delta, words)
        if data[8 * n_words :] != u32_bytes(rbv.ranks[0:n_words:delta]):
            raise IndexFormatError("rank bit vector counts disagree with its bits")
        if n_bits & 63 and words[-1] >> (n_bits & 63):
            raise IndexFormatError("rank bit vector has bits set past its length")
        return rbv, offset + size


def read_occupancy(buf, offset: int, n_slots: int, count: int, delta: int,
                   what: str) -> tuple[RankBitVector, int]:
    """from_bytes for the occupancy bits of a table with n_slots slots
    holding count entries; IndexFormatError if the bits disagree."""
    occ, offset = RankBitVector.from_bytes(buf, offset, n_slots, delta)
    if occ.total_ones != count:
        raise IndexFormatError(f"{what}: {occ.total_ones} occupied slots, header count {count}")
    return occ, offset

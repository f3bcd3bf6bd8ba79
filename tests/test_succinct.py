"""Rank bit vector: rank, run scans, serialization."""

import math
import random
import struct
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from editdict import succinct
from editdict.errors import IndexFormatError
from editdict.succinct import RankBitVector, run_of_ones


def test_empty_vector():
    rbv = RankBitVector.from_flags(b"", 4)
    assert rbv.n_bits == 0
    assert rbv.rank1(0) == 0
    assert rbv.total_ones == 0


def test_total_ones_small():
    assert RankBitVector.from_flags(bytes([1, 1, 0, 1])).total_ones == 3


def test_rank_examples():
    rbv = RankBitVector.from_flags(bytes([1, 1, 0, 1]))
    assert rbv.rank1(0) == 0
    assert rbv.rank1(3) == 2
    assert rbv.rank1(4) == 3


def test_rank_matches_naive_counter():
    rng = random.Random(11)
    for density in (0.1, 0.5, 0.9):
        bits = [1 if rng.random() < density else 0 for _ in range(10_000)]
        rbv = RankBitVector.from_flags(bytes(bits), 4)
        running = 0
        for i, b in enumerate(bits):
            assert rbv.rank1(i) == running
            running += b
        assert rbv.rank1(len(bits)) == running


def test_rank_at_word_boundaries():
    for n in (31, 32, 33, 63, 64, 127, 128, 129):
        bits = [1] * n
        rbv = RankBitVector.from_flags(bytes(bits), 4)
        assert rbv.rank1(n) == n
        assert rbv.rank1(n - 1) == n - 1


def test_rank_out_of_range():
    rbv = RankBitVector.from_flags(bytes([1, 0, 1]))
    with pytest.raises(IndexError):
        rbv.rank1(4)
    with pytest.raises(IndexError):
        rbv.rank1(-1)


def test_delta_variants_agree():
    rng = random.Random(5)
    bits = [rng.randint(0, 1) for _ in range(500)]
    reference = RankBitVector.from_flags(bytes(bits), 4)
    for delta in (1, 2, 3, 7, 16):
        other = RankBitVector.from_flags(bytes(bits), delta)
        for i in range(0, 501, 7):
            assert other.rank1(i) == reference.rank1(i)


def test_scan_ones_examples():
    rbv = RankBitVector.from_flags(bytes([1, 1, 0, 1]))
    assert run_of_ones(rbv.words, 4, 0, 4) == 2
    assert run_of_ones(rbv.words, 4, 2, 4) == 0
    assert run_of_ones(rbv.words, 4, 3, 4) == 3  # wraps to positions 0 and 1


def test_scan_ones_all_set_caps_at_length():
    # A run that circles the whole vector stops at the limit or past it.
    rbv = RankBitVector.from_flags(bytes([1] * 40))
    assert run_of_ones(rbv.words, 40, 17, 40) >= 40


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=300), delta=st.integers(1, 8))
def test_rank_increment_equals_bit(bits, delta):
    rbv = RankBitVector.from_flags(bytes(bits), delta)
    for i, b in enumerate(bits):
        assert rbv.rank1(i + 1) - rbv.rank1(i) == b


def test_serialized_size_bound():
    # At delta = 4, bits on disk stay within n*(1 + 1/8) plus a small constant.
    for n in (0, 1, 31, 32, 33, 1000, 100_000):
        rbv = RankBitVector.from_flags(bytes([1] * n), 4)
        assert 8 * len(rbv.to_bytes()) <= n * 1.125 + 512


def test_bytes_roundtrip():
    rng = random.Random(2)
    for n in (0, 1, 50, 129, 4096):
        bits = [rng.randint(0, 1) for _ in range(n)]
        rbv = RankBitVector.from_flags(bytes(bits), 4)
        blob = rbv.to_bytes()
        back, consumed = RankBitVector.from_bytes(blob, 0, n, 4)
        assert consumed == len(blob)
        assert back.n_bits == rbv.n_bits
        assert back.total_ones == rbv.total_ones
        for i in range(0, n + 1, max(1, n // 13)):
            assert back.rank1(i) == rbv.rank1(i)


@pytest.mark.parametrize("n, delta", [(0, 4), (1, 1), (64, 1), (200, 3), (4096, 4)])
def test_byte_order_branches_swap_every_word_and_count(monkeypatch, n, delta):
    # The file is little-endian whatever the host.  With the host's byte
    # order flag flipped, the helpers' other branches run: the layout they
    # write is the real one with each 64-bit word and 32-bit count
    # byteswapped, and they read it back to the same vector.
    rng = random.Random(n)
    rbv = RankBitVector.from_flags(bytes(rng.randint(0, 1) for _ in range(n)), delta)
    blob = rbv.to_bytes()
    n_words = (n + 63) // 64
    split = 8 * n_words
    swapped = (b"".join(blob[i : i + 8][::-1] for i in range(0, split, 8))
               + b"".join(blob[i : i + 4][::-1] for i in range(split, len(blob), 4)))
    monkeypatch.setattr(succinct, "_BIG_ENDIAN", not succinct._BIG_ENDIAN)
    assert rbv.to_bytes() == swapped
    back, end = RankBitVector.from_bytes(swapped, 0, n, delta)
    assert end == len(swapped)
    assert (back.words, back.ranks) == (rbv.words, rbv.ranks)


def test_probe_replay_equivalence():
    # Scanning runs through the compacted form sees the payloads of the
    # original array, from every possible start position, wrap included.
    rng = random.Random(13)
    for trial in range(30):
        n = rng.randint(1, 24)
        slots = [rng.randrange(100) if rng.random() < 0.7 else None for _ in range(n)]
        if all(s is not None for s in slots):
            slots[rng.randrange(n)] = None
        occ = RankBitVector.from_flags(bytes([s is not None for s in slots]))
        dense = [s for s in slots if s is not None]
        for start in range(n):
            run = run_of_ones(occ.words, n, start, n)  # exact: one bit is clear
            expected = []
            pos = start
            while slots[pos] is not None:
                expected.append(slots[pos])
                pos = (pos + 1) % n
            assert run == len(expected)
            got = []
            if run:
                j = occ.rank1(start)
                total = len(dense)
                for _ in range(run):
                    got.append(dense[j])
                    j += 1
                    if j == total:
                        j = 0
            assert got == expected


def _reference_words(bits, width: int = 64) -> list[int]:
    """The data words of `width` bits: bit i in bit i % width of word i // width."""
    words = [0] * ((len(bits) + width - 1) // width)
    for i, b in enumerate(bits):
        words[i // width] |= bool(b) << (i % width)
    return words


def _reference_rank1(bits, i: int) -> int:
    """rank1 from 32-bit words and the ones before each of them, a layout
    the library does not use."""
    words = _reference_words(bits, 32)
    ranks = list(accumulate((bin(w).count("1") for w in words), initial=0))
    if i == len(bits):
        return ranks[-1]
    return ranks[i >> 5] + bin(words[i >> 5] & ((1 << (i & 31)) - 1)).count("1")


def _reference_bytes(bits, delta: int) -> bytes:
    """The on-disk layout, written out from its definition: the 64-bit
    data words, then the ones before every delta-th of them."""
    words = _reference_words(bits)
    counts = [sum(bin(w).count("1") for w in words[:j]) for j in range(0, len(words), delta)]
    return struct.pack(f"<{len(words)}Q{len(counts)}I", *words, *counts)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.sampled_from([0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129]),
       delta=st.integers(1, 8))
def test_bytes_roundtrip_identical(data, n, delta):
    bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    blob = RankBitVector.from_flags(bytes(bits), delta).to_bytes()
    assert blob == _reference_bytes(bits, delta)
    back, end = RankBitVector.from_bytes(blob, 0, n, delta)
    assert end == len(blob)
    assert back.to_bytes() == blob


# Lengths are drawn evenly from 0..300, so most vectors span several
# blocks; st.lists alone draws mostly short ones.
_BITS = st.integers(0, 300).flatmap(lambda n: st.lists(st.booleans(), min_size=n, max_size=n))


@settings(max_examples=120, deadline=None)
@given(flags=_BITS, delta=st.integers(1, 8), chunk=st.sampled_from([64, 128, 192, None]))
def test_from_flags_equals_from_bits(flags, delta, chunk):
    with pytest.MonkeyPatch.context() as mp:  # chunks of 64 to 192 flags, or chunk_size's
        if chunk is not None:
            mp.setattr(succinct, "chunk_size", lambda n_bits: chunk)
        a = RankBitVector.from_flags(bytes(flags), delta)
        b = RankBitVector.from_flags(bytearray(0xA5 * f for f in flags), delta)  # nonzero is set
    assert list(a.words) == list(b.words) == _reference_words(flags)
    assert list(a.ranks) == list(b.ranks) == list(accumulate(map(int.bit_count, a.words),
                                                             initial=0))
    assert (a.n_bits, a.delta, a.total_ones) == (b.n_bits, b.delta, b.total_ones)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 511, 512, 513, 10**5, 10**7])
def test_chunk_size_is_a_bounded_multiple_of_64(n):
    chunk = succinct.chunk_size(n)
    assert chunk > 0 and chunk % 64 == 0
    assert chunk <= min(succinct._CHUNK, n // 8 + 64)


def test_squeeze_of_an_empty_buffer():
    assert succinct.squeeze(bytearray()) == b""


# Lengths one below, at and one above a whole number of chunks: chunks of
# 64 bytes for the short ones, of succinct._CHUNK for the long ones.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 9 * succinct._CHUNK - 1,
                               9 * succinct._CHUNK, 9 * succinct._CHUNK + 1])
def test_squeeze_deletes_every_zero_byte(n):
    assert succinct.chunk_size(n) == (64 if n < 512 else succinct._CHUNK)
    half_zero = bytes(b if b & 1 else 0 for b in range(256))
    mixed = random.Random(n).randbytes(n).translate(half_zero)
    for buf in (bytes(n), b"\x07" * n, mixed):
        squeezed = succinct.squeeze(bytearray(buf))
        assert type(squeezed) is bytes
        assert squeezed == buf.replace(b"\0", b"")


def _naive_runs(bits) -> list[float]:
    """The run of ones from each start, wrapping; infinite when every bit is set."""
    n = len(bits)
    if all(bits):
        return [math.inf] * n
    runs = [0] * (2 * n + 1)
    for j in range(2 * n - 1, -1, -1):  # over bits twice, so a run may wrap once
        runs[j] = runs[j + 1] + 1 if bits[j % n] else 0
    return runs[:n]


@settings(max_examples=150, deadline=None)
@given(bits=_BITS, delta=st.integers(1, 8))
def test_matches_32_bit_reference(bits, delta):
    rbv = RankBitVector.from_flags(bytes(bits), delta)
    n = len(bits)
    assert [rbv.rank1(i) for i in range(n + 1)] == [_reference_rank1(bits, i)
                                                    for i in range(n + 1)]
    for start, expected in enumerate(_naive_runs(bits)):
        for limit in (1, 7, 63, 64, 65, 130, n + 1):
            run = run_of_ones(rbv.words, n, start, limit)
            if expected < limit:
                assert run == expected
            else:
                assert run >= limit
    blob = rbv.to_bytes()
    assert blob == _reference_bytes(bits, delta)
    back, end = RankBitVector.from_bytes(blob + b"tail", 0, n, delta)
    assert end == len(blob)
    assert (back.n_bits, back.delta, back.total_ones) == (n, delta, sum(bits))
    assert back.words == rbv.words and back.ranks == rbv.ranks
    assert back.to_bytes() == blob


def _word_by_word_run(words, n_bits: int, i: int, limit: int) -> int:
    """run_of_ones as one Python step per 64-bit word: the reference its
    count of whole words in C must equal, past the limit too."""
    run = 0
    while True:
        x = words[i >> 6] >> (i & 63)
        ones = (x ^ (x + 1)).bit_length() - 1
        run += ones
        if run >= limit or not ones:
            return run
        i += ones
        if i == n_bits:
            i = 0
        elif i & 63:
            return run


# Vectors of long runs: alternating runs of ones and zeros, each up to
# about five words, so runs cross several whole words, end at and beside
# word boundaries, and wrap; or every bit set.
_RUN_LENGTHS = st.lists(st.integers(1, 330), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(lengths=_RUN_LENGTHS, all_ones=st.booleans(), data=st.data())
def test_run_of_ones_equals_the_word_by_word_loop(lengths, all_ones, data):
    bits = [1 if all_ones or not j & 1 else 0 for j, n in enumerate(lengths) for _ in range(n)]
    n = len(bits)
    words = RankBitVector.from_flags(bytes(bits)).words
    naive = _naive_runs(bits)
    starts = {0, n - 1, data.draw(st.integers(0, n - 1))}
    starts.update(j for j in range(0, n, 64))  # word starts
    starts.update(j for j in range(n) if bits[j] and not bits[j - 1])  # run starts, wrapped ones too
    for start in starts:
        expected = naive[start]
        finite = int(min(expected, 2 * n))
        limits = {1, 64, 65, n, n + 1, 4080, max(finite, 1), finite + 1,
                  data.draw(st.integers(1, 2 * n + 70))}
        for limit in limits:
            run = run_of_ones(words, n, start, limit)
            assert run == _word_by_word_run(words, n, start, limit)
            assert run == expected if expected < limit else run >= limit


def test_run_of_ones_counts_a_long_run_to_the_limit_in_whole_words():
    # A 4,200-slot run from slot 100 of 6,000: at the limit 4,080 of a scan
    # at sigma = 255 it stops at the end of the word where the limit falls,
    # and a higher limit reads its exact length.
    bits = bytes(100) + b"\1" * 4200 + bytes(1700)
    words = RankBitVector.from_flags(bits).words
    assert run_of_ones(words, 6000, 100, 4080) == 4224 - 100
    assert run_of_ones(words, 6000, 100, 4201) == 4200
    assert run_of_ones(words, 6000, 164, 10**6) == 4136


def test_from_bytes_rejects_wrong_counts():
    # 200 bits take four 64-bit words (32 bytes); count i follows them at
    # byte 32 + 4 * i and holds the ones before word i * delta.
    for delta, count in [(1, 1), (1, 3), (2, 1), (3, 1)]:
        blob = bytearray(RankBitVector.from_flags(bytes([1] * 200), delta).to_bytes())
        blob[32 + 4 * count] ^= 1
        with pytest.raises(IndexFormatError, match="counts"):
            RankBitVector.from_bytes(bytes(blob), 0, 200, delta)


def test_from_bytes_rejects_bits_past_length():
    # 40 bits take one 64-bit word and 70 bits two, the rest of the last
    # word padding that must stay clear.
    for n_bits, byte, value in [(40, 5, 0x80),    # bit 47, in data word 0
                                (70, 10, 0x01)]:  # bit 80, in data word 1
        blob = bytearray(RankBitVector.from_flags(bytes([0] * n_bits), 4).to_bytes())
        blob[byte] = value
        with pytest.raises(IndexFormatError, match="past its length"):
            RankBitVector.from_bytes(bytes(blob), 0, n_bits, 4)

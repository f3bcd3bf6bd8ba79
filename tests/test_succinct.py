"""Rank bit vector: rank, run scans, serialization."""

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
    # At delta = 4, bits on disk stay within n*(1 + 1/4) plus a small constant.
    for n in (0, 1, 31, 32, 33, 1000, 100_000):
        rbv = RankBitVector.from_flags(bytes([1] * n), 4)
        assert 8 * len(rbv.to_bytes()) <= n * 1.25 + 512


def test_bytes_roundtrip():
    rng = random.Random(2)
    for n in (0, 1, 50, 129, 4096):
        bits = [rng.randint(0, 1) for _ in range(n)]
        rbv = RankBitVector.from_flags(bytes(bits), 4)
        blob = rbv.to_bytes()
        back, consumed = RankBitVector.from_bytes(blob, 0)
        assert consumed == len(blob)
        assert back.n_bits == rbv.n_bits
        assert back.total_ones == rbv.total_ones
        for i in range(0, n + 1, max(1, n // 13)):
            assert back.rank1(i) == rbv.rank1(i)


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


def _reference_words(bits) -> list[int]:
    words = [0] * ((len(bits) + 31) // 32)
    for i, b in enumerate(bits):
        words[i >> 5] |= bool(b) << (i & 31)
    return words


def _reference_bytes(bits, delta: int) -> bytes:
    """The on-disk layout, written out from its definition."""
    words = _reference_words(bits)
    stored, ones = [], 0
    for base in range(0, len(words), delta):
        stored.append(ones)
        for w in words[base : base + delta]:
            stored.append(w)
            ones += bin(w).count("1")
    return struct.pack("<QB", len(bits), delta) + struct.pack(f"<{len(stored)}I", *stored)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.sampled_from([0, 1, 31, 32, 33, 127, 128, 129]),
       delta=st.integers(1, 8))
def test_bytes_roundtrip_identical(data, n, delta):
    bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    blob = RankBitVector.from_flags(bytes(bits), delta).to_bytes()
    assert blob == _reference_bytes(bits, delta)
    back, end = RankBitVector.from_bytes(blob, 0)
    assert end == len(blob)
    assert back.to_bytes() == blob


@settings(max_examples=120, deadline=None)
@given(flags=st.lists(st.integers(0, 1), max_size=300), delta=st.integers(1, 8),
       chunk=st.sampled_from([32, 64, 96, succinct._CHUNK]))
def test_from_flags_equals_from_bits(flags, delta, chunk):
    with pytest.MonkeyPatch.context() as mp:  # small chunks: several per vector
        mp.setattr(succinct, "_CHUNK", chunk)
        a = RankBitVector.from_flags(bytes(flags), delta)
        b = RankBitVector.from_flags(bytearray(0xA5 * f for f in flags), delta)  # nonzero is set
    assert list(a.words) == list(b.words) == _reference_words(flags)
    assert list(a.ranks) == list(b.ranks) == list(accumulate(map(int.bit_count, a.words),
                                                             initial=0))
    assert (a.n_bits, a.delta, a.total_ones) == (b.n_bits, b.delta, b.total_ones)


def test_from_bytes_rejects_wrong_counts():
    blob = bytearray(RankBitVector.from_flags(bytes([1] * 200), 2).to_bytes())
    blob[9 + 4 * 3] ^= 1  # the count word of the second block
    with pytest.raises(IndexFormatError, match="counts"):
        RankBitVector.from_bytes(bytes(blob), 0)


def test_from_bytes_rejects_bits_past_length():
    blob = bytearray(RankBitVector.from_flags(bytes([0] * 40), 4).to_bytes())
    blob[9 + 4 * 2 + 1] = 0x80  # bit 47 of the second data word
    with pytest.raises(IndexFormatError, match="past its length"):
        RankBitVector.from_bytes(bytes(blob), 0)

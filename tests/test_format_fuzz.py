"""Structural fuzz of the index file format.

Each case sets one structural field of a valid saved index to another
value, re-computes the checksum, and loads the result.  The load must
raise IndexFormatError (or a subclass), or the loaded index must answer
a fixed sample of queries exactly as the unmutated one does.  Files of
error levels 0, 1 and 2 are fuzzed in all four layouts, so the zero
section lengths of absent stores and the error byte that declares them
are mutated too.

The structural fields are the header bytes, the three section lengths,
the word-table count, each word table's width, capacity and count, each
store's capacity and entry count, the first, second and last rank count
of every compacted bit vector, and the bits past a vector's length.
Each takes the values 0, 1, 2, 255, v + 1, v - 1, v ^ 1 and v ^ 0x80 of
its width; the bits past a vector's length are set one at a time (the
first and the last of its final 64-bit word) and all at once.

Content is out of scope: word bytes, store characters and signatures,
and the data words of a bit vector.  A set bit moved inside one rank
block changes no count, so it is content too.  Only the checksum guards
content against accidents.
"""

import io
import random
import struct
import zlib

import pytest

from editdict import BuildConfig, build_index, load, save
from editdict.errors import IndexFormatError

HEADER_SIZE = 56


def _words() -> list[bytes]:
    """40 short words, three of 17 bytes and two of 256: word tables below
    and above 16 bytes, and one above the 8-bit widths of format 5."""
    rng = random.Random(6)
    short = {bytes(rng.choice(b"abcdefg") for _ in range(rng.randint(2, 7))) for _ in range(40)}
    long = [bytes(rng.choice(b"abcdefgh") for _ in range(n)) for n in (17, 17, 17, 256, 256)]
    return sorted(short) + long


def _queries(words, errors: int) -> list[tuple[bytes, int]]:
    """(pattern, k) pairs: edited short words at k = 0, 1, 2 and edited long
    words at k = 1, each k up to errors."""
    rng = random.Random(7)
    out = []
    for w in rng.sample(words[:-5], 6) + words[-5:]:
        p = bytearray(w)
        p[rng.randrange(len(p))] = rng.choice(b"abcdefgh")
        for k in (0, 1, 2) if len(w) < 16 else (1,):
            if k < len(p) and k <= errors:
                out.append((bytes(p), k))
    return out


def _blob(errors: int, compact: bool, sig: bool) -> bytes:
    ix = build_index(_words(), BuildConfig(errors=errors, use_signatures=sig, compact=compact,
                                           rng_seed=3))
    sink = io.BytesIO()
    save(ix, sink)
    return sink.getvalue()


def _vector_size(n_bits: int, delta: int) -> int:
    n_words = (n_bits + 63) // 64
    return 8 * n_words + 4 * -(-n_words // delta)


def _layout(blob: bytes):
    """(fields, vectors) of a format-7 file: fields as (offset, size), and
    each compacted bit vector as (offset, n_bits)."""
    signed, compacted = blob[6] & 1, blob[6] & 2
    delta = blob[13]
    fields = [(i, 1) for i in range(HEADER_SIZE)] + [(32, 8), (40, 8), (48, 8)]
    vectors = []
    at = HEADER_SIZE
    (n_tables,) = struct.unpack_from("<H", blob, at)
    fields.append((at, 2))
    at += 2
    for _ in range(n_tables):
        width, capacity, count = struct.unpack_from("<HQQ", blob, at)
        fields += [(at, 2), (at + 2, 8), (at + 10, 8)]
        at += 18
        if compacted:
            vectors.append((at, capacity))
            at += _vector_size(capacity, delta) + count * width
        else:
            at += capacity * width
    for length in struct.unpack_from("<QQ", blob, 40):
        if length:
            capacity, count = struct.unpack_from("<QQ", blob, at)
            fields += [(at, 8), (at + 8, 8)]
            at += 16
            if compacted:
                vectors.append((at, capacity))
                at += _vector_size(capacity, delta) + count + ((count + 1) // 2 if signed else 0)
            else:
                at += capacity + ((capacity + 1) // 2 if signed else 0)
    assert at + 4 == len(blob)
    for at, n_bits in vectors:
        n_words = (n_bits + 63) // 64
        n_counts = -(-n_words // delta)
        fields += [(at + 8 * n_words + 4 * i, 4) for i in sorted({0, 1, n_counts - 1})
                   if i < n_counts]
    return fields, vectors


def _mutations(blob: bytes):
    """(description, mutated blob with a valid checksum) for every case."""
    fields, vectors = _layout(blob)
    cases = []
    for at, size in fields:
        fmt = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}[size]
        (v,) = struct.unpack_from(fmt, blob, at)
        mask = (1 << 8 * size) - 1
        for new in sorted({x & mask for x in (0, 1, 2, 255, v + 1, v - 1, v ^ 1, v ^ 0x80)} - {v}):
            cases.append((f"{size}-byte field at {at}: {v} -> {new}", at, fmt, new))
    for at, n_bits in vectors:
        past = n_bits & 63
        if past:
            last = at + 8 * ((n_bits + 63) // 64 - 1)
            (v,) = struct.unpack_from("<Q", blob, last)
            for bits in (1 << past, 1 << 63, -(1 << past) & (2**64 - 1)):
                cases.append((f"bits {bits:#x} past the {n_bits}-bit vector at {at}",
                              last, "<Q", v | bits))
    for what, at, fmt, new in cases:
        body = bytearray(blob[:-4])
        struct.pack_into(fmt, body, at, new)
        yield what, bytes(body) + struct.pack("<I", zlib.crc32(body))


LAYOUTS = [(False, False), (False, True), (True, False), (True, True)]


def _check_mutations(errors: int, compact: bool, sig: bool) -> None:
    blob = _blob(errors, compact, sig)
    queries = _queries(_words(), errors)
    base = load(blob)
    want = [base.query(p, k).matches for p, k in queries]
    assert any(want)
    wrong, loaded, refused = [], 0, 0
    for what, mutated in _mutations(blob):
        try:
            ix = load(mutated)
        except IndexFormatError:
            refused += 1
            continue
        loaded += 1
        try:
            got = [ix.query(p, k).matches for p, k in queries]
        except Exception as exc:  # a bare exception is a failure too
            got = repr(exc)
        if got != want:
            wrong.append(what)
    assert not wrong, wrong
    assert refused > loaded > 0


@pytest.mark.parametrize("compact, sig", LAYOUTS)
def test_structural_mutations_raise_or_answer_unchanged(compact, sig):
    _check_mutations(2, compact, sig)


@pytest.mark.parametrize("compact, sig", LAYOUTS)
@pytest.mark.parametrize("errors", [0, 1])
def test_structural_mutations_at_lower_error_levels_raise_or_answer_unchanged(errors, compact,
                                                                              sig):
    # Their headers declare absent stores: zero section lengths, and an
    # error byte that the mutations set against them.
    _check_mutations(errors, compact, sig)

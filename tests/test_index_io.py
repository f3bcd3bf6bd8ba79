"""Build configuration, index composition, and the file format."""

import hashlib
import io
import random
import struct
import tracemalloc
import zlib
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from editdict import BuildConfig, build_index, load, oracle_query, read_wordlist, save
from editdict.errors import (
    BadMagicError,
    ChecksumError,
    CompactedError,
    EditDictError,
    IndexFormatError,
    TableFullError,
    TruncatedError,
    ValidationError,
    VersionMismatchError,
)
from editdict.index_io import derive_seeds
from editdict.hashing import MODULUS
from editdict.succinct import RankBitVector
from conftest import random_pattern, random_words


def test_config_defaults():
    cfg = BuildConfig()
    assert cfg.errors == 1
    assert cfg.alpha == Fraction(7, 10)
    assert cfg.beta == 16
    assert cfg.delta == 4


def test_config_accepts_float_and_str_alpha():
    assert BuildConfig(alpha=0.7).alpha == Fraction(7, 10)
    assert BuildConfig(alpha="0.5").alpha == Fraction(1, 2)
    assert BuildConfig(alpha="3/10").alpha == Fraction(3, 10)


def test_config_validation():
    with pytest.raises(ValidationError):
        BuildConfig(errors=3)
    with pytest.raises(ValidationError):
        BuildConfig(alpha="0.1")
    with pytest.raises(ValidationError):
        BuildConfig(alpha="0.99")
    with pytest.raises(ValidationError):
        BuildConfig(beta=1)
    with pytest.raises(ValidationError):
        BuildConfig(delta=0)
    with pytest.raises(ValidationError):
        BuildConfig(rng_seed=-1)


@pytest.mark.parametrize("alpha", ["abc", None, "1/0", float("nan"), float("inf")])
def test_config_rejects_alpha_that_is_no_number(alpha):
    with pytest.raises(ValidationError, match="not a number"):
        BuildConfig(alpha=alpha)


@pytest.mark.parametrize("field, value", [("beta", None), ("beta", 2.5), ("delta", 1.5),
                                          ("rng_seed", 1.5), ("errors", 1.0)])
def test_config_rejects_fields_that_are_no_integers(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        BuildConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("compact", "no"), ("use_signatures", "off"),
                                          ("compact", None), ("use_signatures", 2)])
def test_config_rejects_flags_that_are_no_booleans(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be True or False"):
        BuildConfig(**{field: value})


def test_config_stores_flags_as_booleans():
    cfg = BuildConfig(compact=1, use_signatures=0.0)
    assert cfg.compact is True and cfg.use_signatures is False


@pytest.mark.parametrize("words", [None, 5])
def test_build_rejects_a_word_list_that_is_not_iterable(words):
    with pytest.raises(ValidationError, match="word list must be iterable"):
        build_index(words)


def test_derive_seeds_deterministic_distinct():
    a = derive_seeds(42)
    b = derive_seeds(42)
    assert a == b
    assert a[0] != a[1]
    assert all(1 <= s <= MODULUS - 2 for s in a)
    assert derive_seeds(43) != a


def test_zero_error_index_has_no_stores():
    ix = build_index([b"abc"], BuildConfig(errors=0, rng_seed=1))
    assert ix.stores == ()
    assert ix.query(b"abc", 0).matches == {b"abc"}


def test_store_entry_counts_for_known_word():
    ix = build_index([b"ALABAMA"], BuildConfig(errors=2, rng_seed=1))
    assert ix.stores[0].entry_count == 7
    assert ix.stores[1].entry_count == 21
    assert ix.word_count == 1
    assert ix.total_length == 7


def test_empty_dictionary_index():
    ix = build_index([], BuildConfig(errors=2, rng_seed=1))
    assert ix.word_count == 0
    assert ix.sigma == 0
    assert ix.query(b"abc", 2).matches == set()


def test_build_rejects_bad_word_with_position():
    with pytest.raises(ValidationError, match="word #2"):
        build_index([b"ok", b"fine", b"no\x00pe"], BuildConfig(rng_seed=1))


def _replay(ix, patterns, k=2):
    out = []
    for p in patterns:
        if k < len(p):
            r = ix.query(p, k)
            out.append((sorted(r.matches), r.stats.as_tuple()))
    return out


def test_save_load_replay_identical(rng, tmp_path):
    words = random_words(rng, 250, 1, 14, alphabet_size=9)
    patterns = [random_pattern(rng, words, alphabet_size=9, max_len=14) for _ in range(80)]
    for compact in (False, True):
        for sig in (False, True):
            ix = build_index(words, BuildConfig(errors=2, use_signatures=sig,
                                                compact=compact, rng_seed=17))
            path = tmp_path / f"ix_{compact}_{sig}.bin"
            save(ix, path)
            back = load(path)
            assert _replay(back, patterns) == _replay(ix, patterns)
            assert back.word_count == ix.word_count
            assert back.sigma == ix.sigma
            assert back.config == ix.config


def test_two_builds_byte_identical(rng):
    words = random_words(rng, 300, 1, 18)
    cfg = BuildConfig(errors=2, use_signatures=True, compact=True, rng_seed=123)
    a, b = io.BytesIO(), io.BytesIO()
    save(build_index(list(words), cfg), a)
    save(build_index(list(words), cfg), b)
    assert a.getvalue() == b.getvalue()


def test_saved_then_resaved_identical(rng, tmp_path):
    words = random_words(rng, 100, 1, 12)
    ix = build_index(words, BuildConfig(errors=1, compact=True, rng_seed=3))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save(ix, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _saved_blob(words=(b"alpha", b"beta", b"gamma"), **cfg):
    buf = io.BytesIO()
    save(build_index(list(words), BuildConfig(rng_seed=1, **cfg)), buf)
    return bytearray(buf.getvalue())


def test_load_truncated_file():
    blob = _saved_blob()
    with pytest.raises(TruncatedError):
        load(bytes(blob[: len(blob) - 9]))
    with pytest.raises(TruncatedError):
        load(b"ASDI")


def test_load_flipped_body_byte_is_checksum_error():
    blob = _saved_blob()
    blob[70] ^= 0xFF  # inside the exact-dictionary section
    with pytest.raises(ChecksumError):
        load(bytes(blob))


def test_trailer_is_crc32_of_the_body():
    for cfg in ({}, {"errors": 2, "compact": True}):
        blob = bytes(_saved_blob(**cfg))
        assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))


def test_load_flipped_byte_in_each_part_is_checksum_error():
    blob = _saved_blob(errors=2)
    exact_len, s1_len, s2_len = struct.unpack_from("<QQQ", blob, 32)
    s1 = 56 + exact_len
    s2 = s1 + s1_len
    end = s2 + s2_len
    assert end + 4 == len(blob)
    # bucket seed, each section's middle byte, the trailer's first byte
    for at in (16, 56 + exact_len // 2, s1 + s1_len // 2, s2 + s2_len // 2, end):
        flipped = bytearray(blob)
        flipped[at] ^= 0x01
        with pytest.raises(ChecksumError):
            load(bytes(flipped))


def test_load_bad_magic():
    blob = _saved_blob()
    blob[0:4] = b"JUNK"
    with pytest.raises(BadMagicError):
        load(bytes(blob))


def test_load_bad_version():
    # 1 had the interleaved plain-store layout, 2 signatures from a second
    # hash, 3 a 64-bit crc32 + adler32 trailer, 4 interleaved bit vectors,
    # 5 a long-word arena and 8-bit table widths, 6 a character byte that
    # held only its character: read as 7, its entries would be lost
    for version in (1, 2, 3, 4, 5, 6, 99):
        blob = _saved_blob()
        blob[4] = version
        with pytest.raises(VersionMismatchError):
            load(bytes(blob))


def test_load_trailing_garbage():
    blob = _saved_blob()
    with pytest.raises(IndexFormatError):
        load(bytes(blob) + b"extra")


def test_load_accepts_path_bytes_and_file(tmp_path):
    words = [b"one", b"two"]
    ix = build_index(words, BuildConfig(rng_seed=5))
    path = tmp_path / "ix.bin"
    save(ix, path)
    blob = path.read_bytes()
    for source in (path, str(path), blob, io.BytesIO(blob)):
        assert load(source).query(b"one", 1).matches == {b"one"}


def test_insert_word_updates_everything(rng):
    words = random_words(rng, 800, 4, 9)
    ix = build_index(words[:600], BuildConfig(errors=2, rng_seed=6))
    w = b"qqqqqqqqqqqq"  # length 12, absent from the build
    assert ix.insert_word(w) is True
    assert ix.insert_word(w) is False
    assert ix.query(w, 0).matches == {w}
    assert w in ix.query(w[:-1], 1).matches
    assert w in ix.query(w[:-2], 2).matches


def _tables(ix) -> list:
    return [ix.sigma, ix.exact.to_bytes()] + [store.to_bytes() for store in ix.stores]


def test_insert_word_atomic_on_store_overflow():
    # Exact table would fit, but the level-1 store will not: nothing changes.
    ix = build_index([b"abcd", b"bcda", b"cdab"], BuildConfig(errors=1, rng_seed=6))
    before = _tables(ix)
    with pytest.raises(TableFullError, match="level-1 store"):
        ix.insert_word(b"abcdefghijabcdefghij")
    assert _tables(ix) == before
    assert not ix.contains(b"abcdefghijabcdefghij")
    assert ix.word_count == 3


def test_full_word_table_refuses_new_words_not_present_ones():
    # A one-word table has capacity 2 and no headroom below the 0.95
    # ceiling; the presence probe comes before the headroom check.
    ix = build_index([b"abc"], BuildConfig(errors=0, rng_seed=6))
    before = _tables(ix)
    with pytest.raises(TableFullError, match="word table"):
        ix.insert_word(b"xyz")
    assert _tables(ix) == before
    assert not ix.contains(b"xyz")
    assert ix.insert_word(b"abc") is False


def test_insert_raises_sigma():
    ix = build_index([b"abcd", b"bcda", b"dcba", b"badc"], BuildConfig(errors=1, rng_seed=6))
    assert ix.sigma == ord("d")
    assert ix.insert_word(b"az") is True
    assert ix.sigma == ord("z")
    assert ix.stores[0].sigma == ord("z")


def _edited(rng, words, alphabet: bytes, count: int) -> list[bytes]:
    """count patterns: words with 0 to 2 random insertions or deletions."""
    out = []
    for _ in range(count):
        p = bytearray(rng.choice(words))
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(len(p) + 1)
            if rng.random() < 0.5 and len(p) > 2:
                del p[min(at, len(p) - 1)]
            else:
                p.insert(at, rng.choice(alphabet))
        out.append(bytes(p))
    return out


@pytest.mark.parametrize("signatures", [False, True])
@pytest.mark.parametrize("first, inserted", [
    (97, [b"ab\xc8dc", b"\xc8\xc8ab"]),  # a-d, then byte 200: 7 bits to 8
    (97, [bytes(range(97, 123)), b"ab\x80cd", b"zz\x80"]),  # a-z keeps 7 bits, 128 takes 8
    (1, [b"\x05\x06\x01", b"\x01\x0c\x02", b"a\x03\x04"]),  # bytes 1-4: 3 bits to 4 to 7
])
def test_insert_that_widens_sigma_answers_as_the_oracle(rng, first, inserted, signatures):
    # A signed store packs signature bits above each character's
    # sigma.bit_length() bits: an insert that lengthens them repacks every
    # entry, keeping the signature bits that still fit.
    words = random_words(rng, 150, 2, 8, alphabet_size=4, first=first)
    ix = build_index(words, BuildConfig(errors=2, alpha=Fraction(1, 2),
                                        use_signatures=signatures, rng_seed=9))
    alphabet = bytes(range(first, first + 4)) + b"".join(inserted)
    patterns = _edited(rng, words + inserted, alphabet, 60)
    for dictionary in (words, words + inserted):
        if dictionary is not words:
            for w in inserted:
                assert ix.insert_word(w) is True
            assert ix.sigma == ix.stores[0].sigma == ix.stores[1].sigma == max(map(max, inserted))
        for p in patterns:
            for k in (1, 2):
                if k < len(p):
                    assert ix.query(p, k).matches == oracle_query(dictionary, p, k), (p, k)
    back = load(_resaved(ix))
    assert [back.query(p, 1).matches for p in patterns] == [ix.query(p, 1).matches
                                                           for p in patterns]


def test_refused_insert_leaves_the_stores_unpacked(rng):
    # The exact table and the level-1 store have room for the word, the
    # level-2 store has not: the headroom checks come first, so no table
    # is written and neither store is repacked.
    words = random_words(rng, 150, 2, 8, alphabet_size=4)
    ix = build_index(words, BuildConfig(errors=2, rng_seed=9))
    before = _tables(ix)
    wide = bytes([200]) + b"abcd" * 15
    with pytest.raises(TableFullError, match="level-2 store"):
        ix.insert_word(wide)
    assert _tables(ix) == before
    assert ix.stores[0].sigma == ix.stores[1].sigma == ord("d")


def test_insert_into_compacted_index():
    ix = build_index([b"abc"], BuildConfig(errors=1, compact=True, rng_seed=1))
    with pytest.raises(CompactedError):
        ix.insert_word(b"xyz")


def test_read_wordlist(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"alpha\r\nbeta\n\nalpha\ngamma")
    assert read_wordlist(path) == [b"alpha", b"beta", b"gamma"]
    assert read_wordlist(b"a\nb\n") == [b"a", b"b"]
    with io.BytesIO(b"x\ny\n") as f:
        assert read_wordlist(f) == [b"x", b"y"]


def test_read_wordlist_rejects_nul():
    with pytest.raises(ValidationError, match="line 2"):
        read_wordlist(b"good\nb\x00ad\n")


def test_read_wordlist_rejects_overlong_line():
    with pytest.raises(ValidationError, match="line 2 is longer than 65535"):
        read_wordlist(b"good\n" + b"a" * 65536 + b"\n")


NOT_A_SOURCE = [None, 123, 2.5, [b"abc"]]


@pytest.mark.parametrize("source", NOT_A_SOURCE)
def test_load_rejects_a_source_that_is_no_path_bytes_or_file(source):
    with pytest.raises(ValidationError, match="index source must be"):
        load(source)


@pytest.mark.parametrize("source", NOT_A_SOURCE)
def test_read_wordlist_rejects_a_source_that_is_no_path_bytes_or_file(source):
    with pytest.raises(ValidationError, match="word list source must be"):
        read_wordlist(source)


@pytest.mark.parametrize("sink", [None, 123, b"ix.bin"])
def test_save_rejects_a_sink_that_is_no_path_or_file(sink):
    with pytest.raises(ValidationError, match="index sink must be"):
        save(build_index([b"abc"]), sink)


def test_load_and_read_wordlist_reject_a_text_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"abc\n")
    with open(path) as f:
        with pytest.raises(ValidationError, match="binary mode"):
            read_wordlist(f)
    with io.StringIO("ASDI") as f:
        with pytest.raises(ValidationError, match="binary mode"):
            load(f)


def test_save_rejects_a_text_sink_before_writing(tmp_path):
    ix = build_index([b"abc", b"abd"], BuildConfig(errors=1, rng_seed=1))
    with io.StringIO() as f:
        with pytest.raises(ValidationError, match="binary mode"):
            save(ix, f)
        assert f.getvalue() == ""
    path = tmp_path / "ix.bin"
    with open(path, "w") as f:
        with pytest.raises(ValidationError, match="binary mode"):
            save(ix, f)
    assert path.read_bytes() == b""


def test_stores_are_in_level_order():
    ix = build_index([b"ab", b"cde"], BuildConfig(errors=2, rng_seed=1))
    assert [s.level for s in ix.stores] == [1, 2]


def test_build_index_kwargs_shortcut():
    ix = build_index([b"abc"], errors=2, rng_seed=9, compact=True)
    assert ix.errors == 2
    assert ix.compacted


# -- structural validation at load ---------------------------------------------
#
# Each case damages a valid index, then saves it or re-checksums its bytes,
# so only the structural checks in load() stand between it and a query.

def _rechecksummed(blob: bytearray) -> bytes:
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _store1_offset(blob) -> int:
    (exact_len,) = struct.unpack_from("<Q", blob, 32)
    return 56 + exact_len


def _compact_blob(**cfg):
    words = [bytes([97 + i % 26, 97 + i // 26 % 26, 98, 99]) for i in range(200)]
    return _saved_blob(words, errors=1, compact=True, **cfg)


def test_load_rejects_wrong_rank_counts():
    blob = _compact_blob()
    store = _store1_offset(blob)
    (capacity,) = struct.unpack_from("<Q", blob, store)
    count = store + 16 + 8 * ((capacity + 63) // 64) + 4  # the second count
    blob[count] ^= 1
    with pytest.raises(IndexFormatError, match="counts disagree"):
        load(_rechecksummed(blob))


def test_load_rejects_occupancy_length_other_than_capacity():
    # The occupancy bits take their length from the capacity field.  One
    # more slot stays inside their last 64-bit word, so only the capacity
    # the build gives the entry count shows it.
    blob = _compact_blob()
    capacity = _store1_offset(blob)
    (value,) = struct.unpack_from("<Q", blob, capacity)
    assert value % 64 != 0
    struct.pack_into("<Q", blob, capacity, value + 1)
    with pytest.raises(IndexFormatError, match="capacity"):
        load(_rechecksummed(blob))


@pytest.mark.parametrize("errors", [0, 1])
def test_load_rejects_store_section_the_error_level_does_not_declare(errors):
    # Such a file used to load with a store no query reads.  A store's
    # level comes from its section's position, so an error level that
    # matched a section to the wrong level would drop matches.
    blob = _saved_blob([b"abcdef", b"ghijkl", b"mnopqr", b"stuvwx"], errors=2)
    blob[7] = errors
    with pytest.raises(IndexFormatError, match=f"declares {errors} errors"):
        load(_rechecksummed(blob))


def _resaved(ix) -> bytes:
    sink = io.BytesIO()
    save(ix, sink)
    return sink.getvalue()


def _vector(occ):
    return None if occ is None else (list(occ.words), list(occ.ranks))


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("signatures", [False, True])
def test_loaded_tables_hold_the_built_arrays(compact, signatures, rng):
    # One shape per table in both layouts: occupancy bits only when
    # compacted, and the same payload arrays, over slots or over entries,
    # in the built index and in the index loaded from its file.
    words = random_words(rng, 300, 1, 20)
    ix = build_index(words, BuildConfig(errors=2, use_signatures=signatures, compact=compact,
                                        rng_seed=5))
    back = load(_resaved(ix))
    for built, loaded in zip(ix.stores, back.stores, strict=True):
        assert (built.occupancy is None) == (loaded.occupancy is None) == (not compact)
        assert _vector(built.occupancy) == _vector(loaded.occupancy)
        assert (built.chars, built.sigs) == (loaded.chars, loaded.sigs)
        assert bool(built.sigs) == signatures
        assert len(built.chars) == (built.entry_count if compact else built.capacity)
    assert ix.exact.tables.keys() == back.exact.tables.keys()
    for width, built in ix.exact.tables.items():
        loaded = back.exact.tables[width]
        assert (built.occupancy is None) == (loaded.occupancy is None) == (not compact)
        assert _vector(built.occupancy) == _vector(loaded.occupancy)
        assert built.slots == loaded.slots
        assert len(built.slots) == width * (built.count if compact else built.capacity)


def test_loaded_plain_long_word_index_heap_within_file_size(rng):
    # Each plain word table loads into one bytearray, its slots as in the
    # file, so the loaded index is about the size of its file.
    words = random_words(rng, 2000, 16, 40)
    blob = _resaved(build_index(words, BuildConfig(errors=1, rng_seed=1)))
    tracemalloc.start()
    try:
        ix = load(blob)
        heap = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ix.word_count == len(words)
    assert heap <= 1.1 * len(blob)


def test_compacted_build_peak_is_bounded(rng):
    # Compaction writes only outputs of their final size and frees each
    # store's signatures before copying out its characters, so a compacted
    # build peaks at about 1.5 times the plain build.  Staging whole
    # nibble and character arrays beside the slot arrays takes about 1.8.
    words = random_words(rng, 3000)
    peaks = []
    for compact in (False, True):
        tracemalloc.start()
        try:
            build_index(words, BuildConfig(errors=2, compact=compact, rng_seed=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    plain, compacted = peaks
    assert compacted <= 1.6 * plain


@pytest.mark.parametrize("errors, level", [(1, 1), (2, 1), (2, 2)])
def test_load_rejects_store_entry_count_other_than_the_words_make(errors, level):
    # With the level-1 count of the errors=1 index at 0, such a file
    # loaded; one insert then took the store's last empty slot, and the
    # next raised "no empty slot left" after it had written its word to
    # the exact dictionary.
    blob = _saved_blob([b"abcd", b"bcda", b"cdab"], errors=errors)
    store = _store1_offset(blob)
    if level == 2:
        store += struct.unpack_from("<Q", blob, 40)[0]
    made = 12 if level == 1 else 18  # 3 words of 4 bytes: 4 or 6 entries each
    assert struct.unpack_from("<Q", blob, store + 8) == (made,)
    for count in (0, made - 1, made + 1):
        struct.pack_into("<Q", blob, store + 8, count)
        with pytest.raises(IndexFormatError, match=f"level-{level} store: entry count {count}, "
                                                   f"the stored words make {made}"):
            load(_rechecksummed(blob))


def test_load_rejects_popcount_other_than_count():
    ix = build_index([b"abc", b"abd", b"xyz"], BuildConfig(compact=True, rng_seed=1))
    ix.exact.tables[3].count -= 1
    with pytest.raises(IndexFormatError, match="occupied slots"):
        load(_resaved(ix))


def _fill(table, compact):
    """Occupy every slot of an exact-dictionary table, count included."""
    t = table.capacity
    if compact:
        table.occupancy = RankBitVector.from_flags(b"\1" * t)
        table.slots = b"q" * (table.width * t)
    else:
        table.slots = bytearray(b"q" * (table.width * t))
    table.count = t


@pytest.mark.parametrize("compact", [False, True])
def test_load_rejects_sigma_below_a_stored_byte(compact):
    # A capped scan returns the characters 1..sigma: with the header's sigma
    # at 10, the k=1 query for bytes([65, 64]) found 10 of its 64 matches.
    words = [bytes([c, 64]) for c in range(1, 65)]
    blob = _saved_blob(words, errors=1, compact=compact)
    assert blob[14] == 64
    blob[14] = 10
    with pytest.raises(IndexFormatError, match="above sigma"):
        load(_rechecksummed(blob))
    # Only a byte past the first of a word lies above sigma.
    blob = _saved_blob([b"ab", b"az"], errors=1, compact=compact)
    blob[14] = ord("b")
    with pytest.raises(IndexFormatError, match="above sigma"):
        load(_rechecksummed(blob))


@pytest.mark.parametrize("compact", [False, True])
def test_load_rejects_sigma_above_every_stored_byte(compact):
    # A store reads each character byte by sigma's bit length: with the
    # header's sigma at 232 for words over a-d (100), the store's signature
    # bits would be read as characters.
    blob = _saved_blob([b"abcd", b"dcba", b"bad"], errors=2, compact=compact)
    assert blob[14] == ord("d")
    for sigma in (ord("d") + 1, 127, 128, 232, 255):
        blob[14] = sigma
        with pytest.raises(IndexFormatError, match=f"sigma = {sigma} is above every stored byte"):
            load(_rechecksummed(blob))


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("long", [False, True])
def test_load_rejects_table_without_empty_slot(compact, long):
    # Such a table passed the checksum, and the first probe for an absent
    # word of its length never returned.
    words = [b"abcdefghijklmnopqrst", b"bcdefghijklmnopqrstu"] if long else [b"abc", b"abd"]
    ix = build_index(words, BuildConfig(compact=compact, rng_seed=1))
    _fill(ix.exact.tables[20 if long else 3], compact)
    with pytest.raises(IndexFormatError, match="no empty slot"):
        load(_resaved(ix))


@pytest.mark.parametrize("long", [False, True])
def test_load_rejects_full_plain_table_with_low_count(long):
    words = [b"abcdefghijklmnopqrst", b"bcdefghijklmnopqrstu"] if long else [b"abc", b"abd"]
    ix = build_index(words, BuildConfig(rng_seed=1))
    table = ix.exact.tables[20 if long else 3]
    count = table.count
    _fill(table, compact=False)
    table.count = count
    with pytest.raises(IndexFormatError, match="no empty slot"):
        load(_resaved(ix))


def test_load_rejects_plain_long_table_count_below_occupied_slots(rng):
    # Such a file used to load; inserts then filled the last empty slot,
    # and the next probe for an absent long word never returned.
    ix = build_index(random_words(rng, 12, 20, 20), BuildConfig(rng_seed=1))
    ix.exact.tables[20].count = 0
    with pytest.raises(IndexFormatError, match="12 occupied slots, header count 0"):
        load(_resaved(ix))


@pytest.mark.parametrize("count", [0, 4])
def test_load_rejects_plain_short_table_count_other_than_occupied_slots(count):
    # Such files used to load.  With count 0 the k=0 query for abcdef and
    # the k=1 query for abcdez returned nothing, since a probe skips a
    # length whose count is 0; with count 4 word_count read 4.
    blob = _saved_blob([b"abcdef", b"ghijkl", b"mnopqr"], errors=1)
    table = 56 + 2  # the length-6 table: width, capacity, count, slots
    assert blob[table] == 6
    assert struct.unpack_from("<QQ", blob, table + 2) == (5, 3)
    struct.pack_into("<Q", blob, table + 10, count)
    with pytest.raises(IndexFormatError, match=f"3 occupied slots, header count {count}"):
        load(_rechecksummed(blob))


@pytest.mark.parametrize("compact", [False, True])
def test_load_rejects_changed_bucket_seed(rng, compact):
    # Such a file used to load, and then every probe missed.  The index has
    # a table for each length from 1 to 20, so the first word of some
    # table is not found.
    words = [w for m in range(1, 21) for w in random_words(rng, 8, m, m)]
    blob = bytearray(_resaved(build_index(words, BuildConfig(compact=compact, rng_seed=1))))
    seed = struct.unpack_from("<I", blob, 16)[0]
    struct.pack_into("<I", blob, 16, seed % (MODULUS - 2) + 1)
    with pytest.raises(IndexFormatError, match="not found under bucket seed"):
        load(_rechecksummed(blob))


def test_load_rejects_zero_capacity_table():
    ix = build_index([b"abc"], BuildConfig(rng_seed=1))
    table = ix.exact.tables[3]
    table.capacity = table.count = 0
    table.slots = bytearray()
    with pytest.raises(IndexFormatError, match="no empty slot"):
        load(_resaved(ix))


def test_load_rejects_zero_byte_inside_stored_word():
    # A plain probe takes the first zero byte after its home slot for the
    # start of an empty slot; a zero inside a stored word would end the run
    # early and hide the words past it.
    ix = build_index([b"abc", b"abd"], BuildConfig(rng_seed=1))
    table = ix.exact.tables[3]
    occupied = next(i for i in range(table.capacity) if table.slots[3 * i])
    table.slots[3 * occupied + 1] = 0
    with pytest.raises(IndexFormatError, match="zero byte"):
        load(_resaved(ix))


# Widths of 16 bytes and more, which format versions up to 5 kept in a
# long-word arena, and a width above the 8 bits those versions gave a table.
WIDE = (20, 300)


def _wide_index(width: int, compact: bool = False, short=(b"ab",)):
    """30 words of `width` bytes over a-h, so sigma is "h", and the short
    words."""
    rng = random.Random(width)
    words = [bytes(rng.choice(b"abcdefgh") for _ in range(width)) for _ in range(30)]
    return build_index(words + list(short), BuildConfig(errors=1, compact=compact, rng_seed=1))


@pytest.mark.parametrize("width", WIDE)
def test_load_rejects_zero_byte_inside_wide_word(width):
    ix = _wide_index(width)
    table = ix.exact.tables[width]
    occupied = next(i for i in range(table.capacity) if table.slots[width * i])
    table.slots[width * occupied + width - 1] = 0
    with pytest.raises(IndexFormatError, match=f"length {width}.*zero byte"):
        load(_resaved(ix))


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("width", WIDE)
def test_load_rejects_wide_word_byte_above_sigma(width, compact):
    blob = bytearray(_resaved(_wide_index(width, compact)))
    assert blob[14] == ord("h")
    blob[14] = ord("b")  # the length-2 table holds "ab" only
    with pytest.raises(IndexFormatError, match=f"length {width}.*above sigma"):
        load(_rechecksummed(blob))


@pytest.mark.parametrize("count", [0, 29, 31])
@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("width", WIDE)
def test_load_rejects_wide_table_count_other_than_occupied_slots(width, compact, count):
    ix = _wide_index(width, compact)
    ix.exact.tables[width].count = count
    with pytest.raises(IndexFormatError, match=f"30 occupied slots, header count {count}"):
        load(_resaved(ix))


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("width", WIDE)
def test_load_rejects_changed_bucket_seed_on_wide_table(width, compact):
    blob = bytearray(_resaved(_wide_index(width, compact, short=())))
    seed = struct.unpack_from("<I", blob, 16)[0]
    struct.pack_into("<I", blob, 16, seed % (MODULUS - 2) + 1)
    with pytest.raises(IndexFormatError, match=rf"length {width}\): a stored word is not found"):
        load(_rechecksummed(blob))


def test_reserved_header_bytes_are_written_as_zero():
    # Byte 12 held beta up to format version 5; nothing reads either byte.
    for cfg in ({}, {"compact": True, "beta": 40}):
        blob = _saved_blob(**cfg)
        assert blob[12] == blob[15] == 0


def test_load_rejects_store_without_empty_slot():
    ix = build_index([b"abc", b"abd"], BuildConfig(rng_seed=1))
    ix.stores[0].chars[:] = b"a" * ix.stores[0].capacity
    with pytest.raises(IndexFormatError, match="no empty slot"):
        load(_resaved(ix))


def _width_blob():
    return _saved_blob([b"abcde", b"abcdf", b"xyzzyq"])


def test_load_rejects_word_table_lengths_not_increasing():
    blob = _width_blob()
    first = 56 + 2  # width of the first word table, after the table count
    assert blob[first] == 5
    (capacity,) = struct.unpack_from("<Q", blob, first + 2)
    second = first + 18 + 5 * capacity
    assert blob[second] == 6
    blob[second] = 5  # a second table for length 5 would replace the first
    with pytest.raises(IndexFormatError, match="must increase"):
        load(_rechecksummed(blob))


# sha256 of the saved file for each (compact, use_signatures, delta), all
# at errors=2 over _golden_words(), recorded from format version 7.
# A change that moves any of them changes the bytes an index is saved as.
# _golden_words() holds bytes above 127, so its character bytes keep no
# signature bits; GOLDEN_SHA256_AZ pins a signed index over a-z alone,
# whose character bytes keep one.
GOLDEN_SHA256 = {
    (False, True, 4): "5480b9cf9838a44c0ef760c2eed1c7abe4980a44c68efd113b14a766185e1763",
    (False, False, 4): "244fdd4a807e40b972e811b247e6a61fb0616ae4996805594fbb944e908d804e",
    (True, True, 4): "957da99f54331292768668364064fb3549ef65e1fdeb1bb5e7f4d1b6eb1fe9f2",
    (True, False, 4): "24954f8ee90ad2fa23c0e7daf0d5237ffc1b69ecdd96c91d5ba1881a2f43eee5",
    (True, True, 1): "e8c8612d552f78a695546008bcb7984816d9a0c6d04e211c4a2b34d4301fbdb5",
    (True, True, 3): "bea0bfba62f78c12fb1b4f6131dda5803b3e0f2d3cc270343fb81e742cba5bcd",
}
GOLDEN_SHA256_AZ = {
    (False, True, 4): "96680aa273009bca17ae44173d23fbd50c3f58747c713955c4cb7fafa2e27ef8",
}


def _golden_words(alphabet: bytes = b"abcdefghijklmnopqrstuvwxyz\xe9\xfc") -> list[bytes]:
    """400 distinct words of 2 to 24 bytes, by default over a-z plus two
    bytes above 127: word tables of 13 to 40 slots, 9 of them for words of
    16 bytes or more, and both stores."""
    rng = random.Random(20131)
    words = set()
    while len(words) < 400:
        n = rng.randint(2, 24)
        words.add(bytes(rng.choice(alphabet) for _ in range(n)))
    return sorted(words)


def test_saved_bytes_are_pinned():
    cases = [(_golden_words(), GOLDEN_SHA256),
             (_golden_words(b"abcdefghijklmnopqrstuvwxyz"), GOLDEN_SHA256_AZ)]
    for words, pinned in cases:
        for (compact, sig_on, delta), expected in pinned.items():
            index = build_index(words, errors=2, compact=compact, use_signatures=sig_on,
                                delta=delta, rng_seed=7)
            sink = io.BytesIO()
            save(index, sink)
            digest = hashlib.sha256(sink.getvalue()).hexdigest()
            assert digest == expected, (index.sigma, compact, sig_on, delta)


def test_bad_patterns_and_words_raise_validation_error():
    index = build_index([b"abc", b"abd", b"hello"], errors=1, alpha="1/5")  # room to insert
    for pattern in ("ab€", None, 5, [97, 300, 99], [97, 98, 99], 2.5):
        with pytest.raises(ValidationError):
            index.query(pattern, 1)
    for word in ("ab€", None, 5, [97, 300], [97, 98], "a\0b"):
        with pytest.raises(ValidationError):
            index.insert_word(word)
        with pytest.raises(ValidationError):
            build_index([b"abc", word])
    # A str is its latin-1 bytes, and any bytes-like value works.
    assert index.insert_word("ab\xe9")
    assert index.contains(b"ab\xe9") and index.contains("ab\xe9")
    assert index.query("abz", 1).matches == {b"abc", b"abd", b"ab\xe9"}
    assert index.query(memoryview(b"abz"), 1).matches == index.query(bytearray(b"abz"), 1).matches
    assert index.insert_word(array("B", b"xyz")) and index.contains(b"xyz")


_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.binary(max_size=6), st.binary(max_size=6).map(bytearray),
    st.binary(max_size=6).map(memoryview), st.lists(st.integers(-2, 300), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(value=_ANY_VALUE, k=st.one_of(st.integers(-1, 3), _ANY_VALUE))
def test_any_value_returns_or_raises_typed(value, k):
    index = build_index([b"abc", b"abd", b"hello"], errors=2)
    calls = [lambda: index.query(value, k), lambda: index.insert_word(value),
             lambda: index.contains(value), lambda: build_index([b"abc", value])]
    for call in calls:
        try:
            call()
        except EditDictError:
            pass

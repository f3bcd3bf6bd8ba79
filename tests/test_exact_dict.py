"""Exact-membership dictionary: build, probe, insert, compact."""

import math
from fractions import Fraction
from itertools import product

import pytest

from editdict.errors import CompactedError, TableFullError, ValidationError
from editdict.exact_dict import NEW_TABLE_CAPACITY, ExactDictionary, _WordTable, build_exact
from editdict.hashing import poly_hash
from editdict.index_io import BuildConfig, build_index
from conftest import random_words

ALPHA = Fraction(7, 10)


def test_empty_dictionary():
    d = build_exact([], ALPHA, seed=5)
    assert d.word_count == 0
    assert not d.contains(b"anything")
    assert not d.contains(b"")


def test_duplicates_removed():
    # build_exact takes the words build_index validated, repeats dropped.
    d = build_index([b"abc", b"abc"], BuildConfig(errors=0, rng_seed=5)).exact
    assert d.word_count == 1
    assert d.contains(b"abc")


def test_member_and_non_member():
    d = build_exact([b"ALABAMA"], ALPHA, seed=5)
    assert d.contains(b"ALABAMA")
    assert not d.contains(b"ALABAMX")
    assert not d.contains(b"ALABAM")
    assert not d.contains(b"ALABAMAA")


def test_zero_byte_rejected_with_index():
    with pytest.raises(ValidationError, match="word #1"):
        build_index([b"fine", b"ba\x00d"], BuildConfig(errors=0, rng_seed=5))


def test_empty_word_rejected():
    with pytest.raises(ValidationError, match="word #0"):
        build_index([b""], BuildConfig(errors=0, rng_seed=5))


def test_random_membership_oracle(rng):
    words = random_words(rng, 1000, 1, 20)
    d = build_exact(words, ALPHA, seed=77)
    members = set(words)
    for w in words:
        assert d.contains(w)
    misses = 0
    while misses < 1000:
        w = bytes(rng.randint(97, 122) for _ in range(rng.randint(1, 20)))
        if w in members:
            continue
        misses += 1
        assert not d.contains(w)


def test_long_words_use_inline_tables(rng):
    words = [bytes(rng.randint(97, 122) for _ in range(rng.randint(16, 60))) for _ in range(300)]
    words += [b"short", b"x", b"y" * 300, b"z" * 0xFFFF]  # the longest word allowed
    d = build_exact(words, ALPHA, seed=3)
    for w in set(words):
        assert d.contains(w)
    assert not d.contains(b"q" * 30)
    assert not d.contains(b"q" * 300)
    assert sum(t.count for m, t in d.tables.items() if m >= 16) == len(
        {w for w in words if len(w) >= 16})


def insert(d: ExactDictionary, word: bytes) -> None:
    """d.insert_word with the checks Index.insert_word makes first: the
    word is absent and its table has headroom."""
    assert not d.contains(word)
    d.check_headroom(len(word))
    d.insert_word(word, poly_hash(word, d.seed))


def test_insert_roundtrip(rng):
    words = random_words(rng, 500, 4, 10)
    d = build_exact(words[:400], ALPHA, seed=9)
    before = d.word_count
    insert(d, b"zyxwv")
    assert d.contains(b"zyxwv")
    assert d.word_count == before + 1


def test_insert_new_length_creates_table():
    d = build_exact([b"abcdef"], ALPHA, seed=9)
    insert(d, b"xy")
    assert d.contains(b"xy")


@pytest.mark.parametrize("width", [20, 300])
def test_insert_new_long_length_creates_small_table(width):
    # A long word of an unseen length gets the same small table as a
    # short one: a table per length, never grown.
    d = build_exact([b"abcdef", b"q" * 40], ALPHA, seed=9)
    word = bytes(97 + i % 7 for i in range(width))
    insert(d, word)
    assert d.contains(word) and not d.contains(word[::-1])
    assert d.tables[width].capacity == NEW_TABLE_CAPACITY


def test_insert_replay_then_found(rng):
    # Build on 70% of a corpus, insert the next 25%, everything findable.
    words = random_words(rng, 3000, 5, 9)
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    build, extra = [], []
    for ws in by_len.values():
        cut = math.ceil(0.7 * len(ws))
        build += ws[:cut]
        extra += ws[cut : cut + math.floor(0.25 * len(ws))]
    d = build_exact(build, ALPHA, seed=12)
    for w in extra:
        insert(d, w)
    for w in build + extra:
        assert d.contains(w)


def test_insert_hits_hard_ceiling():
    # A one-word table has capacity 2 and no headroom below the 0.95
    # ceiling; a length with no table has the room of a new one.
    d = build_exact([b"abc"], ALPHA, seed=1)
    with pytest.raises(TableFullError):
        d.check_headroom(3)
    d.check_headroom(4)


def test_insert_into_compacted_refused():
    # The dictionary only writes; Index.insert_word refuses a compacted
    # index before it reaches it.
    ix = build_index([b"abc", b"def"], BuildConfig(errors=0, compact=True, rng_seed=1))
    before = ix.exact.to_bytes()
    with pytest.raises(CompactedError):
        ix.insert_word(b"ghi")
    assert ix.exact.to_bytes() == before


def test_compact_differential(rng):
    words = random_words(rng, 1000, 1, 25)
    d = build_exact(words, ALPHA, seed=21)
    probes = list(words)
    while len(probes) < 2000:
        probes.append(bytes(rng.randint(97, 122) for _ in range(rng.randint(1, 25))))
    expected = [d.contains(w) for w in probes]
    d.compact()
    assert [d.contains(w) for w in probes] == expected


def test_compact_differential_full_tables(rng):
    # At load 0.95 probe runs are long, often wrap past the last slot, and
    # cross 32-slot words; every string of one to three letters is probed,
    # so slots that hold a word misaligned inside a run are exercised too.
    every = [bytes(p) for n in (1, 2, 3) for p in product(b"abcdef", repeat=n)]
    for trial in range(20):
        words = [w for w in every if rng.random() < 0.5]
        d = build_exact(words, Fraction(19, 20), seed=trial)
        expected = [d.contains(w) for w in every]
        d.compact()
        assert [d.contains(w) for w in every] == expected


def test_plain_probe_wrapping_runs_and_inserts_after_load(rng):
    # Small inline tables at load 0.8, reloaded, then filled by inserts to
    # the 0.95 ceiling: runs wrap past the last slot, and every probe and
    # insert is checked against a set of the stored words.
    every = [bytes(p) for n in (1, 2, 3) for p in product(b"abcdef", repeat=n)]
    wrapped = 0
    for trial in range(20):
        stored = {w for w in every if rng.random() < 0.4}
        d = build_exact(sorted(stored), Fraction(4, 5), seed=trial)
        d, _ = ExactDictionary.from_bytes(d.to_bytes(), 0, BuildConfig(alpha=Fraction(4, 5)),
                                          d.seed, ord("f"))
        for w in every:
            assert d.contains(w) == (w in stored)
        for w in rng.sample(every, len(every)):
            if d.contains(w):
                assert w in stored
                continue
            try:
                d.check_headroom(len(w))
            except TableFullError:
                continue
            d.insert_word(w, poly_hash(w, d.seed))
            stored.add(w)
        for w in every:
            assert d.contains(w) == (w in stored)
        wrapped += sum(t.slots[-1] != 0 for t in d.tables.values())
    assert wrapped


def _stored_at(table, slot: int) -> bytes:
    w = table.width
    return bytes(table.slots[slot * w : (slot + 1) * w])


@pytest.mark.parametrize("long", [False, True])
def test_insert_run_wraps_past_last_slot(long):
    # Three words whose home is the last slot: the first fills it, the
    # next two wrap to slots 0 and 1, and a probe finds each, also across
    # the wrap.  Long words are 20 bytes.
    t = 8
    table = _WordTable(20 if long else 3, t)
    prefix = b"q" * 17 if long else b""
    candidates = (prefix + bytes(p) for p in product(b"abcdef", repeat=3))
    words = [w for w in candidates if poly_hash(w, 5) % t == t - 1][:3]
    for w in words:
        table.insert(w, poly_hash(w, 5))
    assert [_stored_at(table, s) for s in (t - 1, 0, 1)] == words
    for w in words:
        assert table.contains(w, poly_hash(w, 5))
    assert table.count == 3


def test_compact_empty():
    d = build_exact([], ALPHA, seed=2)
    d.compact()
    assert not d.contains(b"x")


def test_compact_single_word_dense_payload():
    d = build_exact([b"abc"], ALPHA, seed=2)
    d.compact()
    table = d.tables[3]
    assert table.slots == b"abc"
    assert table.occupancy.total_ones == 1


def test_compact_idempotent():
    d = build_exact([b"ab", b"cd"], ALPHA, seed=2)
    d.compact()
    d.compact()
    assert d.contains(b"ab")


def test_distinct_lengths_bounded(rng):
    # L distinct lengths need at least 1 + 2 + ... + L total characters.
    for trial in range(10):
        words = random_words(rng, rng.randint(1, 400), 1, 30)
        d = build_exact(words, ALPHA, seed=trial)
        lengths = {len(w) for w in words}
        n = d.total_length
        m = len(lengths)
        assert m * (m + 1) // 2 <= n


def test_every_table_keeps_an_empty_slot(rng):
    words = random_words(rng, 700, 1, 22)
    d = build_exact(words, Fraction(19, 20), seed=4)  # most extreme allowed load
    for _, count, capacity in d.table_report():
        assert count < capacity


def test_table_report_shape():
    d = build_exact([b"ab", b"cd", b"efg"], ALPHA, seed=1)
    rows = dict((name, (count, cap)) for name, count, cap in d.table_report())
    assert rows["words[len=2]"][0] == 2
    assert rows["words[len=3]"][0] == 1
    assert list(rows) == ["words[len=2]", "words[len=3]"]

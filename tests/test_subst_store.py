"""Substitution stores: entry layout, list queries, caps, compaction."""

import math
import re
import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations, compress, zip_longest

import pytest
from hypothesis import event, example, given, settings, strategies as st

from editdict import subst_store, succinct
from editdict.errors import CompactedError, IndexFormatError, TableFullError, ValidationError
from editdict.hashing import WILDCARD, blank_keys, poly_hash
from editdict.subst_store import (
    _SCAN_LIMIT,
    SubstStore,
    build_store,
    entries_for,
    list_histogram,
)
from editdict.succinct import RankBitVector
from conftest import random_words

ALPHA = Fraction(7, 10)
SEEDS = dict(bucket_seed=0x1234567, sig_seed=0x89ABCDE)


def key_of(word: bytes, positions) -> tuple[int, ...]:
    """The symbolic store key: the word with the given positions blanked."""
    return tuple(WILDCARD if (i + 1) in positions else c for i, c in enumerate(word))


def ask(store: SubstStore, key: tuple[int, ...]):
    return store.list_query(poly_hash(key, store.bucket_seed))


def true_lists(words, level):
    """Exact key -> character list map, by direct enumeration."""
    out = {}
    for w in words:
        m = len(w)
        if level == 1:
            for j in range(1, m + 1):
                out.setdefault(key_of(w, (j,)), []).append(w[j - 1])
        else:
            for i, j in combinations(range(1, m + 1), 2):
                out.setdefault(key_of(w, (i, j)), []).append(w[i - 1])
    return out


def test_entries_for():
    assert entries_for(7, 1) == 7
    assert entries_for(7, 2) == 21
    assert entries_for(1, 2) == 0


def test_level1_word_walkthrough():
    store = build_store([b"ALABAMA"], 1, ALPHA, True, **SEEDS)
    assert store.entry_count == 7
    chars, capped = ask(store, key_of(b"ALABAMA", (6,)))
    assert not capped
    assert ord("M") in chars


def test_level2_word_walkthrough():
    store = build_store([b"ALABAMA"], 2, ALPHA, True, **SEEDS)
    assert store.entry_count == 21
    chars, capped = ask(store, key_of(b"ALABAMA", (2, 6)))
    assert not capped
    assert ord("L") in chars


def test_shared_list_collects_both_characters():
    store = build_store([b"ab", b"cb"], 1, ALPHA, True, **SEEDS)
    chars, capped = ask(store, key_of(b"ab", (1,)))
    assert not capped
    assert {ord("a"), ord("c")} <= set(chars)


def test_empty_store_returns_nothing():
    store = build_store([], 1, ALPHA, True, **SEEDS)
    chars, _ = store.list_query(12345)
    assert list(chars) == []


def test_cap_path_returns_full_alphabet():
    # sigma words of the shape <c>( share their first-position key, so its
    # list holds sigma characters and the scan returns the alphabet instead.
    sigma = 48
    words = [bytes([c, 40]) for c in range(1, sigma + 1)]
    for sig_on in (False, True):
        store = build_store(words, 1, ALPHA, sig_on, **SEEDS)
        assert store.sigma == sigma
        chars, capped = ask(store, key_of(words[0], (1,)))
        assert capped
        assert list(chars) == list(range(1, sigma + 1))


def test_list_query_is_superset_of_true_list(rng):
    for level in (1, 2):
        for sig_on in (False, True):
            words = random_words(rng, 80, 2, 8, alphabet_size=5)
            store = build_store(words, level, ALPHA, sig_on, **SEEDS)
            for key, want in true_lists(words, level).items():
                chars, capped = ask(store, key)
                if capped:
                    assert set(want) <= set(range(1, store.sigma + 1))
                else:
                    have = list(chars)
                    for c in set(want):
                        assert have.count(c) >= want.count(c)


def test_signatures_only_shrink_lists(rng):
    # A signed scan keeps a subset of the plain scan's run, so it caps only
    # where the plain scan caps, not conversely: a plain run of sigma or more
    # characters caps, the signed list of the same run may stay below sigma.
    # Bytes 1-6 (sigma = 6) make such caps common; bytes 97-102 make none.
    base = random_words(rng, 300, 2, 10, alphabet_size=6)
    for first in (97, 1):
        words = [bytes(c - 97 + first for c in w) for w in base]
        plain = build_store(words, 1, ALPHA, False, **SEEDS)
        signed = build_store(words, 1, ALPHA, True, **SEEDS)
        assert plain.capacity == signed.capacity
        total_plain = total_signed = caps_only_plain = 0
        for key in true_lists(words, 1):
            chars_p, cap_p = ask(plain, key)
            chars_s, cap_s = ask(signed, key)
            assert cap_p or not cap_s
            assert set(chars_s) <= set(chars_p)
            total_plain += len(chars_p)
            total_signed += len(chars_s)
            caps_only_plain += cap_p and not cap_s
        assert total_signed <= total_plain
        assert (caps_only_plain > 0) == (first == 1)


def test_insert_entries_counts():
    store = SubstStore(1, 64, True, SEEDS["bucket_seed"], sigma=122)
    assert store.insert_entries(b"abc") == 3
    assert store.entry_count == 3
    store2 = SubstStore(2, 64, True, SEEDS["bucket_seed"], sigma=122)
    assert store2.insert_entries(b"abcd") == 6
    assert store2.entry_count == 6


def test_insert_completeness_replay(rng):
    words = random_words(rng, 1200, 4, 8, alphabet_size=8)
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    build, extra = [], []
    for ws in by_len.values():
        cut = math.ceil(0.7 * len(ws))
        build += ws[:cut]
        extra += ws[cut : cut + math.floor(0.25 * len(ws))]
    store = build_store(build, 1, ALPHA, True, **SEEDS)
    for w in extra:
        store.insert_entries(w)
    assert store.entry_count == sum(len(w) for w in build + extra)
    for w in extra:
        for j in range(1, len(w) + 1):
            chars, capped = ask(store, key_of(w, (j,)))
            assert capped or w[j - 1] in chars


def test_insert_past_ceiling_refused():
    store = build_store([b"abcd"], 1, ALPHA, True, **SEEDS)  # capacity 6
    with pytest.raises(TableFullError):
        store.insert_entries(b"xyz")
    assert store.entry_count == 4


def test_insert_into_compacted_refused():
    store = build_store([b"abcd"], 1, ALPHA, True, **SEEDS)
    store.compact()
    with pytest.raises(CompactedError):
        store.insert_entries(b"zz")


def test_compact_differential(rng):
    for level in (1, 2):
        for sig_on in (False, True):
            words = random_words(rng, 200, 2, 10, alphabet_size=6)
            store = build_store(words, level, ALPHA, sig_on, **SEEDS)
            keys = list(true_lists(words, level))
            rng.shuffle(keys)
            keys = keys[:500]
            fake = [rng.randrange(2**32) for _ in range(2000)]
            before = [ask(store, k) for k in keys] + [store.list_query(h) for h in fake]
            store.compact()
            after = [ask(store, k) for k in keys] + [store.list_query(h) for h in fake]
            for (ca, fa), (cb, fb) in zip(before, after):
                assert list(ca) == list(cb)
                assert fa == fb


def test_compact_empty_store():
    store = build_store([], 1, ALPHA, True, **SEEDS)
    store.compact()
    assert store.chars == b""


def test_compacted_dense_is_packed():
    for nwords in (1, 2, 5):
        words = [bytes([97 + i] * 5) for i in range(nwords)]
        store = build_store(words, 1, ALPHA, True, **SEEDS)
        store.compact()
        entries = store.entry_count
        assert len(store.chars) + len(store.sigs) == entries + math.ceil(entries / 2)


def reference_compact(store: SubstStore, delta: int) -> None:
    """Compact in one shot: every step reads the whole slot array at once."""
    t = store.capacity
    chars = bytes(store.chars)
    if store.sigs:
        half = (t + 1) // 2
        nibbles = [store.sigs[i] & 15 if i < half else store.sigs[i - half] >> 4
                   for i in range(t)]
        kept = bytes(compress(nibbles, chars))
        h = (len(kept) + 1) // 2
        store.sigs = bytes(a | (b << 4) for a, b in zip_longest(kept[:h], kept[h:], fillvalue=0))
    value = int(chars[::-1].translate(b"0" + b"1" * 255), 2)
    words = array("Q", [(value >> (64 * i)) & (2**64 - 1) for i in range((t + 63) // 64)])
    store.occupancy = RankBitVector(t, delta, words)
    store.chars = chars.translate(None, b"\0")


def set_chunk(mp: pytest.MonkeyPatch, chunk: int) -> None:
    """Make every chunked loop take `chunk` slots at a time, and
    SubstStore.compact's signature pass a quarter of that."""
    mp.setattr(succinct, "chunk_size", lambda n_bits: chunk)
    mp.setattr(subst_store, "chunk_size", lambda n_bits: chunk)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), capacity=st.integers(1, 300), sig_on=st.booleans(),
       chunk=st.sampled_from([64, 128, 192]), delta=st.integers(1, 8))
def test_chunked_compaction_equals_one_shot(data, capacity, sig_on, chunk, delta):
    half = (capacity + 1) // 2
    occupied = data.draw(st.lists(st.booleans(), min_size=capacity, max_size=capacity))
    values = data.draw(st.binary(min_size=capacity, max_size=capacity))
    chars = bytes((v or 1) if o else 0 for o, v in zip(occupied, values))
    sigs = data.draw(st.binary(min_size=half, max_size=half))  # empty slots get nibbles too
    stores = [SubstStore(2, capacity, sig_on, SEEDS["bucket_seed"], 255)
              for _ in range(2)]
    for store in stores:
        store.chars[:] = chars
        if sig_on:
            store.sigs[:] = sigs
        store.entry_count = capacity - chars.count(0)
    chunked, one_shot = stores
    n = chunked.entry_count
    event(f"entries {'odd' if n % 2 else 'even'}")
    event(f"capacity % 32 {'== 0' if capacity % 32 == 0 else '!= 0'}")
    step = chunk >> 2  # compaction's chunk
    event(f"a chunk straddles the slots' half: {capacity > step and half % step != 0}")
    # dhalf splits the entries' signatures into low and high nibbles; a
    # chunk whose entries run across it writes both, and a later chunk's
    # high nibbles are OR-ed over low ones an earlier chunk wrote.
    dhalf = (n + 1) // 2
    entries_before = [b - chars[:b].count(0) for b in range(0, capacity, step)] + [n]
    straddles = [d < dhalf < e for d, e in zip(entries_before, entries_before[1:])]
    event("a chunk straddles the entries' half: "
          + ("the first" if straddles[0] else "a later one" if any(straddles) else "none"))
    with pytest.MonkeyPatch.context() as mp:
        set_chunk(mp, chunk)
        chunked.compact(delta)
    reference_compact(one_shot, delta)
    assert len(chunked.chars) == n
    assert len(chunked.sigs) == (dhalf if sig_on else 0)
    assert chunked.chars == one_shot.chars
    assert chunked.sigs == one_shot.sigs
    assert list(chunked.occupancy.words) == list(one_shot.occupancy.words)
    assert chunked.to_bytes() == one_shot.to_bytes()


def test_compact_transient_is_bounded(rng):
    # Compaction streams over the slot arrays and writes only outputs of
    # their final size: beyond the plain store it holds the occupancy bits
    # and ranks (3/16 byte per slot), half a byte per entry of signatures,
    # and one per entry of characters less the freed slot signatures (half
    # a byte per slot), about 0.74 byte per slot at load 7/10.  Staging a whole nibble or
    # character array beside the slot arrays takes 0.7 more; copying the
    # whole slot array several times, as a one-shot compaction does,
    # takes about 4.
    # The table is smaller than succinct._CHUNK, so at the default the
    # chunks come from chunk_size: compaction's are about a thirty-second
    # of the table, and a few of them are alive at once.
    words = random_words(rng, 1500, 6, 10)
    for chunk in (1024, None):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                set_chunk(mp, chunk)
            tracemalloc.start()
            try:
                store = build_store(words, 2, ALPHA, True, **SEEDS)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                store.compact()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 32 * 1024 <= store.capacity < succinct._CHUNK
        assert peak - before <= 1.0 * store.capacity, chunk


def test_histogram_single_word():
    hist = list_histogram([b"ALABAMA"], 1)
    assert hist.total_entries == 7
    assert hist.percentage(1) == 100.0
    assert hist.entries_by_size[1] == 7


def test_histogram_shared_list():
    hist = list_histogram([b"ab", b"cb"], 1)
    assert hist.total_entries == 4
    assert hist.percentage(1) == 50.0
    assert hist.percentage(2) == 50.0


def test_histogram_rows_sum_to_100(rng):
    words = random_words(rng, 400, 1, 12, alphabet_size=4)
    for level in (1, 2):
        hist = list_histogram(words, level)
        assert abs(sum(pct for _, _, pct in hist.rows()) - 100.0) < 0.01


def test_histogram_level2():
    hist = list_histogram([b"abcd"], 2)
    assert hist.total_entries == 6
    assert hist.percentage(1) == 100.0


@pytest.mark.parametrize("level", [0, 3, None, "1"])
def test_histogram_and_build_store_reject_a_level_other_than_1_or_2(level):
    # list_histogram(words, 3) used to return a level-2 histogram labelled
    # 3; build_store raised a bare ValueError.
    with pytest.raises(ValidationError, match="level must be 1 or 2"):
        list_histogram([b"abc"], level)
    with pytest.raises(ValidationError, match="level must be 1 or 2"):
        build_store([b"abc"], level, ALPHA, True, **SEEDS)


def test_histogram_matches_direct_enumeration(rng):
    words = random_words(rng, 150, 2, 8, alphabet_size=3)
    for level in (1, 2):
        hist = list_histogram(words, level)
        sizes = {}
        for key, chars in true_lists(words, level).items():
            sizes[len(chars)] = sizes.get(len(chars), 0) + len(chars)
        assert dict(hist.entries_by_size) == sizes


def test_serialization_roundtrip(rng):
    words = random_words(rng, 120, 2, 9, alphabet_size=7)
    for level in (1, 2):
        for sig_on in (False, True):
            for compacted in (False, True):
                store = build_store(words, level, ALPHA, sig_on, **SEEDS)
                if compacted:
                    store.compact()
                blob = store.to_bytes()
                back, consumed = SubstStore.from_bytes(
                    blob, 0, level, sig_on, compacted, 4, SEEDS["bucket_seed"], store.sigma
                )
                assert consumed == len(blob)
                assert back.entry_count == store.entry_count
                for key in list(true_lists(words, level))[:100]:
                    ca, fa = ask(store, key)
                    cb, fb = ask(back, key)
                    assert list(ca) == list(cb) and fa == fb


def fill_store(capacity: int, sig_on: bool, sigma: int, entries) -> SubstStore:
    """A plain level-1 store holding (home slot, signature, character) entries."""
    store = SubstStore(1, capacity, sig_on, SEEDS["bucket_seed"], sigma)
    for slot, sig, char in entries:
        store._place([slot + sig * capacity], [char])  # home slot, then nibble
    return store


@st.composite
def filled_store(draw):
    """A small plain store whose runs straddle word ends, wrap past the
    table end and reach the scan limit: capacities near a multiple of 32,
    homes drawn near word and table ends, and sigma either small, for a
    limit below or above a word's 32 slots, or above 32."""
    capacity = 32 * draw(st.integers(1, 4)) + draw(st.integers(-2, 2))
    sig_on = draw(st.booleans())
    sigma = draw(st.one_of(st.integers(1, 12), st.integers(33, 100)))
    near_end = st.integers(-3, 3).map(lambda d: d % capacity)
    near_word_end = st.integers(1, max(1, capacity // 32)).flatmap(
        lambda w: st.integers(32 * w - 3, 32 * w + 3)).map(lambda s: s % capacity)
    home = st.one_of(st.integers(0, capacity - 1), near_end, near_word_end)
    entries = draw(st.lists(st.tuples(home, st.integers(0, 15), st.integers(1, sigma)),
                            max_size=capacity - 1))
    return fill_store(capacity, sig_on, sigma, entries)


@settings(max_examples=150, deadline=None)
@given(store=filled_store())
def test_compacted_scan_equals_plain_scan(store):
    compacted, _ = SubstStore.from_bytes(store.to_bytes(), 0, 1, bool(store.sigs), False,
                                         4, SEEDS["bucket_seed"], store.sigma)
    compacted.compact()
    t = store.capacity
    for slot in range(t):
        for key_sig in range(16):
            key = slot + key_sig * t
            assert compacted.list_query(key) == store.list_query(key)


def reference_scan(store: SubstStore, slot: int, key_sig: int):
    """list_query of a plain store, one slot at a time from the layout's
    definition: chars[i] is slot i's character, 0 when empty; its
    signature is the low nibble of sigs[i] below half = (capacity + 1) // 2
    and the high nibble of sigs[i - half] from there on.  A run of
    _SCAN_LIMIT * sigma slots or more, or a kept list of sigma characters
    or more, caps the scan."""
    t, sigma = store.capacity, store.sigma
    half = (t + 1) // 2
    out = []
    for step in range(_SCAN_LIMIT * sigma):
        i = (slot + step) % t
        char = store.chars[i]
        if char == 0:
            return capped_by_count(out, sigma)
        if not store.sigs:
            out.append(char)
        elif (store.sigs[i] & 15 if i < half else store.sigs[i - half] >> 4) == key_sig:
            out.append(char)
    event("length cap")
    return list(range(1, sigma + 1)), True


def capped_by_count(out, sigma: int):
    """The result of a scan whose run ended with `out` kept."""
    if len(out) >= sigma:
        event("count cap")
        return list(range(1, sigma + 1)), True
    return out, False


# A run of _SCAN_LIMIT * sigma + 2 slots from slot 0, which the length cap
# ends, and a run of 2 * sigma slots from slot 40: two of its entries,
# signed 3, fill that signature's list to sigma, which the count cap ends,
# while signature 5 keeps a list of one.
BOTH_CAPS = dict(capacity=64, sigma=2,
                 entries=[(0, 1, 1)] * (_SCAN_LIMIT * 2 + 2)
                 + [(40, 3, 1), (40, 5, 2), (40, 3, 2), (40, 7, 1)])


@st.composite
def plain_store(draw):
    """A small plain store with odd or even capacity whose runs cross the
    signature split at half and wrap past the table end, with sigma either
    small or above 32."""
    capacity = draw(st.integers(2, 90))
    sig_on = draw(st.booleans())
    sigma = draw(st.one_of(st.integers(1, 12), st.integers(33, 100)))
    half = (capacity + 1) // 2
    near = lambda x: st.integers(-4, 2).map(lambda d: (x + d) % capacity)  # noqa: E731
    home = st.one_of(st.integers(0, capacity - 1), near(half), near(capacity))
    entries = draw(st.lists(st.tuples(home, st.integers(0, 15), st.integers(1, 255)),
                            max_size=capacity - 1))
    return fill_store(capacity, sig_on, sigma, entries)


@settings(max_examples=200, deadline=None)
@given(store=plain_store())
@example(store=fill_store(sig_on=True, **BOTH_CAPS))
@example(store=fill_store(sig_on=False, **BOTH_CAPS))
def test_plain_scan_equals_per_slot_reference(store):
    for slot in range(store.capacity):
        for key_sig in range(16):
            chars, capped = store.list_query(slot + key_sig * store.capacity)
            assert (list(chars), capped) == reference_scan(store, slot, key_sig)


def reference_compacted_scan(store: SubstStore, occupied, slot: int, key_sig: int):
    """list_query of a compacted store, one entry at a time from the
    payload's definition: entry i (the i-th occupied slot in slot order)
    has character chars[i] and, with half = (entry_count + 1) // 2, its
    signature in the low nibble of sigs[i] below half and in the high
    nibble of sigs[i - half] from there on.  A run of _SCAN_LIMIT * sigma
    slots or more, or a kept list of sigma characters or more, caps the
    scan."""
    t, sigma, n = store.capacity, store.sigma, store.entry_count
    half = (n + 1) // 2
    if sigma and not occupied[slot]:
        return [], False
    run = 0
    while run < _SCAN_LIMIT * sigma and occupied[(slot + run) % t]:
        run += 1
    if run >= _SCAN_LIMIT * sigma:
        event("length cap")
        return list(range(1, sigma + 1)), True
    first = sum(occupied[:slot])
    out = []
    for step in range(run):
        i = (first + step) % n
        if not store.sigs:
            out.append(store.chars[i])
        elif (store.sigs[i] & 15 if i < half else store.sigs[i - half] >> 4) == key_sig:
            out.append(store.chars[i])
    return capped_by_count(out, sigma)


@st.composite
def compacted_store(draw):
    """A small compacted store with odd or even entry counts, whose runs
    cross the entries' signature split and wrap past the last entry."""
    return compacted(draw(plain_store()))


def compacted(store: SubstStore):
    """The store compacted, with its slots' occupancy from before."""
    occupied = [c != 0 for c in store.chars]
    store.compact()
    return store, occupied


@settings(max_examples=200, deadline=None)
@given(drawn=compacted_store())
@example(drawn=compacted(fill_store(sig_on=True, **BOTH_CAPS)))
@example(drawn=compacted(fill_store(sig_on=False, **BOTH_CAPS)))
def test_compacted_scan_equals_per_entry_reference(drawn):
    store, occupied = drawn
    for slot in range(store.capacity):
        for key_sig in range(16):
            chars, capped = store.list_query(slot + key_sig * store.capacity)
            assert (list(chars), capped) == reference_compacted_scan(store, occupied, slot, key_sig)


@pytest.mark.parametrize("compact", [False, True])
def test_signature_is_low_nibble_of_quotient(compact):
    # One hash places and signs an entry: h + 16 * capacity has the same
    # home slot and nibble as h, h + capacity the same slot, another nibble.
    store = SubstStore(1, 64, True, SEEDS["bucket_seed"], sigma=122)
    h = 0x9E3779B1
    store._place([h], [97])
    if compact:
        store.compact()
    t = store.capacity
    assert list(store.list_query(h + 16 * t)[0]) == [97]
    assert list(store.list_query(h + t)[0]) == []


def reference_place(store: SubstStore, bucket_hash: int, char: int) -> None:
    """Write one entry the slow way: at the first empty slot from its home
    slot bucket_hash % capacity, circularly, with signature
    (bucket_hash // capacity) & 15 in the split-nibble layout."""
    t = store.capacity
    s = next((i % t for i in range(bucket_hash % t, bucket_hash % t + t) if not store.chars[i % t]),
             None)
    if s is None:
        raise IndexFormatError(f"level-{store.level} store: no empty slot left, "
                               f"its entry count {store.entry_count} is wrong")
    store.chars[s] = char
    if store.sigs:
        half = (t + 1) // 2
        sig = (bucket_hash // t) & 15
        if s < half:
            store.sigs[s] = (store.sigs[s] & 0xF0) | sig
        else:
            store.sigs[s - half] = (store.sigs[s - half] & 0x0F) | (sig << 4)
    store.entry_count += 1


@st.composite
def placed_batches(draw):
    """A store shape plus batches of (bucket hash, character) entries whose
    homes cluster near half and the last slot, so runs cross the signature
    split and wrap; at times more entries than the store has room for."""
    capacity = draw(st.integers(2, 70))
    half = (capacity + 1) // 2
    near = lambda x: st.integers(-3, 2).map(lambda d: (x + d) % capacity)  # noqa: E731
    home = st.one_of(st.integers(0, capacity - 1), near(half), near(capacity))
    entry = st.tuples(home, st.integers(0, 2**24), st.integers(1, 255)).map(
        lambda e: (e[0] + e[1] * capacity, e[2]))
    batches = draw(st.lists(st.lists(entry, min_size=1, max_size=8), max_size=capacity))
    return draw(st.sampled_from((1, 2))), capacity, draw(st.booleans()), batches


@settings(max_examples=300, deadline=None)
@given(drawn=placed_batches())
def test_place_equals_per_entry_reference(drawn):
    level, capacity, sig_on, batches = drawn
    fast = SubstStore(level, capacity, sig_on, SEEDS["bucket_seed"], 122)
    slow = SubstStore(level, capacity, sig_on, SEEDS["bucket_seed"], 122)
    for batch in batches:
        keys = [h for h, _ in batch]
        chars = bytes(c for _, c in batch)
        try:
            fast._place(keys, chars)
        except IndexFormatError as exc:
            with pytest.raises(IndexFormatError, match=re.escape(str(exc))):
                for h, c in batch:
                    reference_place(slow, h, c)
            event("full part-way through a batch")
            break
        for h, c in batch:
            reference_place(slow, h, c)
    assert fast.entry_count == slow.entry_count
    assert fast.to_bytes() == slow.to_bytes()


def test_word_keys_are_poly_hashes_of_blanked_words():
    for level, m in ((1, 9), (2, 9), (2, 1)):
        word = bytes(range(97, 97 + m))
        blanks = [(j,) for j in range(1, m + 1)] if level == 1 else \
            list(combinations(range(1, m + 1), 2))
        want = [poly_hash(key_of(word, b), SEEDS["bucket_seed"]) for b in blanks]
        assert blank_keys(word, SEEDS["bucket_seed"], level) == want


def test_insert_into_store_with_wrong_count_raises():
    # A loaded store whose entry count is below its occupied slots passes
    # the headroom check; filling its last empty slot must not wrap the
    # write onto an occupied one.
    store = SubstStore(1, 4, True, SEEDS["bucket_seed"], sigma=122)
    for slot in range(3):
        store._place([slot + 1 * store.capacity], [97])
    store.entry_count = 0
    with pytest.raises(IndexFormatError, match="no empty slot"):
        store.insert_entries(b"ab")
    assert store.entry_count == 1  # the first entry took the last empty slot


SIGMA = 4
LIMIT = _SCAN_LIMIT * SIGMA  # the run length that caps a scan


def one_run_store(compact: bool, sig_on: bool, home: int, entries) -> SubstStore:
    """A 64-slot store with sigma = SIGMA whose (signature, character)
    entries all have one home slot, so they fill the run from it."""
    store = fill_store(64, sig_on, SIGMA, [(home, sig, char) for sig, char in entries])
    if compact:
        store.compact()
    return store


layouts = pytest.mark.parametrize("compact", [False, True])
homes = pytest.mark.parametrize("home", [5, 28, 60])  # in a word, across a word, wrapping


@layouts
@homes
def test_one_entry_in_run_longer_than_sigma_is_listed(compact, home):
    # The key's one entry sits behind foreign ones in a run past sigma
    # slots but short of the length cap, so the filtered list is just it.
    store = one_run_store(compact, True, home, [(1, 1)] * (LIMIT - 2) + [(2, 3)])
    chars, capped = store.list_query(home + 2 * store.capacity)
    assert (list(chars), capped) == ([3], False)


@layouts
@homes
@pytest.mark.parametrize("sig_on", [False, True])
def test_sigma_entries_under_one_key_cap(compact, sig_on, home):
    store = one_run_store(compact, sig_on, home, [(2, 1), (1, 4), (2, 2), (2, 3), (2, 1)])
    chars, capped = store.list_query(home + 2 * store.capacity)
    assert (list(chars), capped) == ([1, 2, 3, 4], True)


@layouts
@homes
@pytest.mark.parametrize("sig_on", [False, True])
def test_run_of_limit_slots_caps(compact, sig_on, home):
    # None of the run's entries carries the key's signature 2: only the
    # run's length can cap the scan.
    store = one_run_store(compact, sig_on, home, [(1, 1)] * LIMIT)
    chars, capped = store.list_query(home + 2 * store.capacity)
    assert (list(chars), capped) == ([1, 2, 3, 4], True)


@layouts
@homes
def test_run_one_short_of_limit_is_filtered(compact, home):
    store = one_run_store(compact, True, home, [(1, 1)] * (LIMIT - 1))
    chars, capped = store.list_query(home + 2 * store.capacity)
    assert (list(chars), capped) == ([], False)

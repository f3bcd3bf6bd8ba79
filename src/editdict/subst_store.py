"""Wildcard-keyed substitution stores (one and two wildcards per key).

A level-1 store answers: given a pattern x..phi..y with one wildcard slot,
which characters, substituted at the wildcard, could yield a dictionary
word?  It is built by inserting, for every word and every position j, the
character w[j] keyed by the word with position j blanked out.  A level-2
store does the same for every pair of positions i < j, storing the
character at the leftmost blank.  A word's entries are made in one batch:
hashing.blank_keys gives its keys, the hashes of the word with j or i < j
blanked, and one loop places them in that order.  The query engine scans
the keys of a pattern with the same function.

All entries of one level share a single linear-probing character table;
the key only determines the starting slot (key hash mod capacity), so a
query scans from there to the next empty slot and returns a superset of
the true character list.  Two refinements keep that superset small and
bounded:

* an optional 4-bit signature of the key filters out most entries that
  belong to other keys colliding into the same run.  It comes from the
  same hash as the home slot: a key hashing to h has home slot
  h mod capacity and signature (h // capacity) & 15, the low nibble of
  the quotient the slot leaves unused, so each key is hashed once;
* a scan gives up and returns the whole alphabet [1..sigma] (sigma = the
  largest byte value stored) instead, still a superset, when its run from
  the home slot is _SCAN_LIMIT * sigma slots or longer, or when its
  signature-filtered list already holds sigma characters or more.  So no
  scan reads more than _SCAN_LIMIT * sigma slots or returns more than
  sigma characters.  The run limit is a multiple of sigma because at load
  alpha linear probing's expected unsuccessful run is about
  (1 + 1/(1 - alpha)**2) / 2 slots, 13 at alpha = 0.8: a limit of sigma =
  12 would cap ordinary runs there, not adversarial ones.

Keys with one home slot differ in their quotients, so their signatures
are as good as independent while h // capacity spans many multiples of
16.  Once capacity exceeds MODULUS / 16 the quotient takes fewer than 16
values and the filter passes more foreign entries; results stay exact,
because every candidate is checked against the exact dictionary.

A store has one shape, the same in memory and on disk: optional
occupancy bits and two payload arrays over n places, the capacity's
slots when plain and the entries when compacted.  `chars` holds one
character byte per place, 0 marking an empty slot.  `sigs` holds the
4-bit signatures, two to a byte, split at half = (n + 1) // 2: place
i < half keeps its signature in the low nibble of sigs[i], place
i >= half in the high nibble of sigs[i - half] (1.5 bytes per place in
all).  `sigs` is empty without signatures, so a store is signed exactly
when `sigs` is non-empty.  The one exception, a compacted store with no
entries, has an empty `sigs` either way, and its scans all end before
the signature test.  A run of places therefore has its characters in
one slice of `chars` and its signatures in one slice of `sigs` unless it
crosses half or the end.

A plain scan does its work in C: `chars.find(0, ...)` locates the empty
slot that ends the run (a second find when the run wraps), one
`translate` turns the run's signature bytes into nibbles, and a run
without a nibble equal to the key's signature is rejected by one `in`
test before any per-slot work.

Compaction freezes a store and drops its empty slots.  It adds the
occupancy bits (succinct.py: in memory, flat arrays of 64-bit data words
and a rank per data word, 3/16 byte per slot) and keeps the payload over
entries instead of slots: the characters of the occupied slots in slot
order, and their signatures.  The run of occupied slots from a home slot
is the run of entries from that slot's rank, so a compacted scan tests
the home bit, measures the run of ones inside the home slot's 64-bit
word with a trailing-ones bit trick (run_of_ones continues only a run
that reaches the word's end), decides the length cap from the run
alone, computes the home slot's rank inline, and then filters the run's
entries with the same `translate` and `in` test as a plain scan.

On disk a store section is its capacity and entry count (<QQ), then the
occupancy bits if compacted, then `chars` and `sigs`.  Everything else a
store needs comes from the file header (signatures, compaction, delta,
bucket seed, sigma) or from the section's position (its level), and each
array's length follows from the two counts.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress

from .errors import CompactedError, IndexFormatError, ValidationError
from .hashing import blank_keys
from .succinct import RankBitVector, chunk_size, read_occupancy, run_of_ones, squeeze
from .util import capacity_for, check_headroom, check_loaded_table, take, validate_words

_EMPTY: tuple[int, ...] = ()

# A run of _SCAN_LIMIT * sigma slots or more caps a scan.
_SCAN_LIMIT = 4

# Byte translation tables for reading signature nibbles.
_LOW_NIBBLE = bytes(b & 15 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))

# Fixed seeds for list_histogram key fingerprints; any two distinct values
# in [1, MODULUS - 2] work, these are arbitrary odd constants.
_HIST_SEED_A = 0x1F3D5B79
_HIST_SEED_B = 0x6A4C2E97


def _nibbles(sigs, half: int, a: int, b: int) -> bytes:
    """Signatures a..b-1 of a split-nibble array, in order; 0 <= a <= b <= 2 * half."""
    if b <= half:
        return sigs[a:b].translate(_LOW_NIBBLE)
    if a >= half:
        return sigs[a - half : b - half].translate(_HIGH_NIBBLE)
    return sigs[a:].translate(_LOW_NIBBLE) + sigs[: b - half].translate(_HIGH_NIBBLE)


def entries_for(word_length: int, level: int) -> int:
    """Number of store entries a single word contributes."""
    if level == 1:
        return word_length
    return word_length * (word_length - 1) // 2


class SubstStore:
    """Linear-probing character table keyed by wildcard patterns, hashed
    under bucket_seed: `chars` and `sigs` over slots, or over entries once
    compacted (occupancy set)."""

    __slots__ = ("level", "capacity", "entry_count", "bucket_seed", "sigma",
                 "chars", "sigs", "occupancy")

    def __init__(self, level: int, capacity: int, use_signatures: bool,
                 bucket_seed: int, sigma: int):
        self.level = level
        self.capacity = capacity
        self.entry_count = 0
        self.bucket_seed = bucket_seed
        self.sigma = sigma
        self.chars = bytearray(capacity)
        self.sigs = bytearray((capacity + 1) // 2 if use_signatures else 0)
        self.occupancy: RankBitVector | None = None

    # -- building ---------------------------------------------------------

    def _place(self, keys, chars) -> None:
        """Write one entry per (bucket hash, character) pair, in order: each
        at the first empty slot from its home slot, wrapping past the last."""
        t = self.capacity
        slots = self.chars
        sigs = self.sigs  # empty without signatures
        half = (t + 1) >> 1
        entries = zip(keys, chars)
        for h, c in entries:
            s = h % t
            if slots[s]:
                s = slots.find(0, s)
                if s < 0:
                    s = slots.find(0)
                    if s < 0:  # only a loaded store whose entry count was too low
                        # Count the entries placed before this one: all but it and the rest.
                        self.entry_count += len(keys) - 1 - sum(1 for _ in entries)
                        raise IndexFormatError(f"level-{self.level} store: no empty slot left, "
                                               f"its entry count {self.entry_count} is wrong")
            slots[s] = c
            if sigs:
                sig = (h // t) & 15
                if s < half:
                    sigs[s] = (sigs[s] & 0xF0) | sig
                else:
                    s -= half
                    sigs[s] = (sigs[s] & 0x0F) | (sig << 4)
        self.entry_count += len(keys)

    def _insert_word_entries(self, word) -> int:
        """Insert all level-appropriate entries for one word; O(1) each."""
        keys = blank_keys(word, self.bucket_seed, self.level)
        self._place(keys, word if self.level == 1 else [a for a, _ in combinations(word, 2)])
        return len(keys)

    def check_headroom(self, added: int) -> None:
        if self.occupancy is not None:
            raise CompactedError("cannot insert into a compacted store")
        check_headroom(self.entry_count, added, self.capacity,
                       f"level-{self.level} store")

    def insert_entries(self, word) -> int:
        """Add all entries for one new word; returns how many were added."""
        self.check_headroom(entries_for(len(word), self.level))
        return self._insert_word_entries(word)

    # -- querying ---------------------------------------------------------

    def list_query(self, bucket_hash: int):
        """Candidate characters for a key, as (characters, capped).

        Scans circularly from the key's home slot (bucket_hash mod
        capacity) to the next empty slot, keeping the characters whose
        stored signature equals the key's (all of them if the store has no
        signatures).  A run of _SCAN_LIMIT * sigma slots or more, or a kept
        list of sigma characters or more, returns the full alphabet
        instead, with capped = True.  The result is always a superset of
        the characters stored under this key.
        """
        t = self.capacity
        sigma = self.sigma
        s = bucket_hash % t
        chars = self.chars
        occ = self.occupancy
        if occ is None:
            if not chars[s] and sigma:  # an empty home slot: most scans end here
                return _EMPTY, False
            limit = _SCAN_LIMIT * sigma
            e = chars.find(0, s, s + limit)  # the empty slot ending the run, if < limit away
            if e < 0:
                e = chars.find(0, 0, s + limit - t) if s + limit > t else -1
                if e < 0:
                    return range(1, sigma + 1), True
            n = t
        else:
            bits = occ.words
            w = s >> 6
            off = s & 63
            x = bits[w] >> off
            if not x & 1 and sigma:  # an empty home slot: most scans end here
                return _EMPTY, False
            run = (x ^ (x + 1)).bit_length() - 1  # trailing ones: the run inside word w
            limit = _SCAN_LIMIT * sigma
            if off + run == 64 or s + run == t:
                run = run_of_ones(bits, t, s, limit)
            if run >= limit:
                return range(1, sigma + 1), True
            # From here on s and e index entries: the run's first entry is
            # the home slot's rank, and the run wraps past the last entry
            # when e ends up at or before s.
            s = occ.ranks[w] + (bits[w] & ((1 << off) - 1)).bit_count()
            n = self.entry_count
            e = s + run
            if e > n:
                e -= n
        # The run is chars[s:e], or chars[s:] + chars[:e] when it wraps.
        sigs = self.sigs
        if sigs:
            key_sig = (bucket_hash // t) & 15
            half = (n + 1) >> 1
            if s < e <= half:
                nibbles = sigs[s:e].translate(_LOW_NIBBLE)
            elif half <= s < e:
                nibbles = sigs[s - half : e - half].translate(_HIGH_NIBBLE)
            elif s < e:
                nibbles = _nibbles(sigs, half, s, e)
            else:
                nibbles = _nibbles(sigs, half, s, n) + _nibbles(sigs, half, 0, e)
            if key_sig not in nibbles:
                return _EMPTY, False
            run = chars[s:e] if s < e else chars[s:] + chars[:e]
            out = [c for c, g in zip(run, nibbles) if g == key_sig]
        else:
            out = list(chars[s:e] if s < e else chars[s:] + chars[:e])
        if len(out) >= sigma:
            return range(1, sigma + 1), True
        return out, False

    # -- compaction and serialization --------------------------------------

    def compact(self, delta: int = 4) -> None:
        """Add the occupancy bits and keep `chars` and `sigs` over the
        occupied slots only, in the plain layout over entries.

        One pass over the slot arrays, a quarter of chunk_size(capacity)
        slots at a time (about a thirty-second of the table, at most
        succinct._CHUNK / 4), writes the kept signatures straight into
        their final array, sized once from the occupancy bits' popcount:
        entries below dhalf = (entry_count + 1) // 2 into low nibbles by
        one slice assignment, later ones OR-ed into high nibbles by one
        integer join, which is safe because entry e arrives before entry
        e + dhalf.  Then the slot signatures are freed and succinct.squeeze
        deletes the empty slots' zero bytes from `chars`.  Beyond the plain
        store the peak is the occupancy bits and ranks (3/16 byte per
        slot), half a byte per entry of signatures, and one byte per entry
        of characters less the freed slot signatures (half a byte per
        slot): about 0.74 byte per slot at load 7/10.
        """
        if self.occupancy is not None:
            return
        t = self.capacity
        chars, sigs = self.chars, self.sigs
        occ = RankBitVector.from_flags(chars, delta)
        if sigs:
            # A chunk's slice, nibbles, kept signatures and the integers of
            # its high-nibble join are alive at once, so the chunks are a
            # quarter of chunk_size's: together they stay small beside the
            # table.
            step = chunk_size(t) >> 2
            dhalf = (occ.total_ones + 1) >> 1
            packed = bytearray(dhalf)
            half = (t + 1) >> 1
            d = 0
            for a in range(0, t, step):
                chunk = chars[a : a + step]
                kept = bytes(compress(_nibbles(sigs, half, a, a + len(chunk)), chunk))
                e = d + len(kept)
                m = max(d, min(e, dhalf))  # entries d..m-1 take low nibbles, m..e-1 high ones
                packed[d:m] = kept[: m - d]
                if m < e:
                    lo, hi = m - dhalf, e - dhalf
                    high = int.from_bytes(kept[m - d :], "little") << 4
                    packed[lo:hi] = (int.from_bytes(packed[lo:hi], "little") | high).to_bytes(
                        hi - lo, "little")
                d = e
            self.sigs = sigs = packed  # frees the slot signatures before the squeeze
        self.chars = squeeze(chars)
        self.occupancy = occ

    def to_bytes(self) -> bytes:
        occ = b"" if self.occupancy is None else self.occupancy.to_bytes()
        return (struct.pack("<QQ", self.capacity, self.entry_count) + occ
                + bytes(self.chars) + bytes(self.sigs))

    @classmethod
    def from_bytes(cls, buf, offset: int, level: int, use_signatures: bool, compacted: bool,
                   delta: int, bucket_seed: int, sigma: int):
        """Parse the section at offset; returns (store, end offset).  The
        file header gives all but the two counts, the level its position."""
        capacity, entry_count = struct.unpack_from("<QQ", buf, offset)
        offset += 16
        store = cls.__new__(cls)
        store.level = level
        store.capacity = capacity
        store.entry_count = entry_count
        store.bucket_seed = bucket_seed
        store.sigma = sigma
        what = f"level-{level} store"
        store.occupancy = None
        n = capacity
        if compacted:
            store.occupancy, offset = read_occupancy(buf, offset, capacity, entry_count,
                                                     delta, what)
            n = entry_count
        copy = bytes if compacted else bytearray
        n_sigs = (n + 1) // 2 if use_signatures else 0
        store.chars = copy(take(buf, offset, n, what))
        offset += n
        store.sigs = copy(take(buf, offset, n_sigs, what))
        offset += n_sigs
        # A compacted store's popcount is entry_count, checked to be below
        # capacity.  A plain store's `in` stops at the first empty slot, so
        # it costs next to nothing.
        check_loaded_table(what, entry_count, capacity, compacted or 0 in store.chars)
        return store, offset


def _check_level(level) -> None:
    if level not in (1, 2):
        raise ValidationError(f"store level must be 1 or 2, not {level!r}")


def build_store(words, level: int, alpha: Fraction, use_signatures: bool,
                bucket_seed: int, sig_seed: int, sigma: int | None = None,
                validated: bool = False) -> SubstStore:
    """Build a level-1 or level-2 store over a word list.

    Entries are placed and signed by one hash under bucket_seed; sig_seed
    is accepted and ignored.
    """
    _check_level(level)
    if not validated:
        words = validate_words(words)
    if sigma is None:
        sigma = max((max(w) for w in words), default=0)
    total = sum(entries_for(len(w), level) for w in words)
    store = SubstStore(level, capacity_for(total, alpha), use_signatures, bucket_seed, sigma)
    for w in words:
        store._insert_word_entries(w)
    return store


# -- diagnostics ------------------------------------------------------------

@dataclass
class ListSizeHistogram:
    """How store entries distribute over true per-key list sizes."""

    level: int
    total_entries: int
    entries_by_size: Counter

    BUCKETS = (1, 2, 3, 4, 5)

    def percentage(self, size: int) -> float:
        if self.total_entries == 0:
            return 0.0
        return 100.0 * self.entries_by_size[size] / self.total_entries

    def rows(self) -> list[tuple[str, int, float]]:
        """(label, entries, percentage) for sizes 1..5 and the >=6 bucket."""
        out = [(str(s), self.entries_by_size[s], self.percentage(s)) for s in self.BUCKETS]
        big = sum(c for s, c in self.entries_by_size.items() if s >= 6)
        pct = 100.0 * big / self.total_entries if self.total_entries else 0.0
        out.append((">=6", big, pct))
        return out


def list_histogram(words, level: int, validated: bool = False) -> ListSizeHistogram:
    """Distribution of entries over exact per-key list sizes.

    Keys are grouped by a combined 64-bit fingerprint (one 32-bit hash per
    seed) instead of materialized pattern strings; the collision odds are
    negligible at any realistic dictionary size, so this is an exact
    diagnostic in practice.
    """
    _check_level(level)
    if not validated:
        words = validate_words(words)
    key_counts: Counter = Counter()
    for w in words:
        key_counts.update([(a << 32) | b for a, b in zip(blank_keys(w, _HIST_SEED_A, level),
                                                         blank_keys(w, _HIST_SEED_B, level))])
    sizes = Counter(key_counts.values())  # list size -> keys with a list that long
    entries_by_size = Counter({size: size * keys for size, keys in sizes.items()})
    return ListSizeHistogram(level, sum(key_counts.values()), entries_by_size)

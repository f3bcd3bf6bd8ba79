"""Wildcard-keyed substitution stores (one and two wildcards per key).

A level-1 store answers: given a pattern x..phi..y with one wildcard slot,
which characters, substituted at the wildcard, could yield a dictionary
word?  It is built by inserting, for every word and every position j, the
character w[j] keyed by the word with position j blanked out.  A level-2
store does the same for every pair of positions i < j, storing the
character at the leftmost blank.  A word's entries are made in one batch:
hashing.blank_keys gives its keys, the hashes of the word with j or i < j
blanked, and one loop places them in that order.  SubstStore.insert_word
does this for build_store and for Index.insert_word alike, and only
writes: Index.insert_word is the checked writer, and checks the store's
headroom first.  The query engine makes the same keys of a pattern from
its HashContext.

All entries of one level share a single linear-probing character table;
the key only determines the starting slot (key hash mod capacity), so a
query scans from there to the next empty slot and returns a superset of
the true character list.  Two refinements keep that superset small and
bounded:

* an optional signature of the key filters out most entries that belong
  to other keys colliding into the same run.  It comes from the same
  hash as the home slot: a key hashing to h has home slot h mod capacity
  and signature the low 12 - b bits of the quotient q = h // capacity,
  which the slot leaves unused, so each key is hashed once.  Here
  b = sigma.bit_length() is the width of a character, and the signature
  (signature_bits) spends the bits a character byte leaves over: 8 bits
  at sigma <= 15, 5 on a-z (sigma = 122), 4 at sigma >= 128;
* a scan gives up and returns the whole alphabet [1..sigma] (sigma = the
  largest byte value stored) instead, still a superset, when its run from
  the home slot is _SCAN_LIMIT * sigma slots or longer, or when its
  signature-filtered list holds all sigma characters.  So no scan reads
  more than _SCAN_LIMIT * sigma slots or returns more than sigma
  distinct characters.  The run limit guards against pathological clusters
  only, so it sits far out in the tail of ordinary ones.  At load alpha
  linear probing's expected unsuccessful run is about
  (1 + 1/(1 - alpha)**2) / 2 slots, 13 at alpha = 0.8, and the tail is
  long: in the stores of a sigma = 12 dictionary filled to load 0.8 by
  inserts, 7% (level 1) and 10% (level 2) of the runs from an occupied
  slot reach 4 * sigma = 48 slots, 0.03% and 0.3% reach 16 * sigma.  A
  capped scan turns a list of a few characters into sigma candidates,
  each an exact probe or a store scan of about 1 us, while reading a
  run costs about 4 ns a slot in C.  So the limit is 16 * sigma, where a
  run is rare at any ordinary load and still bounded: at sigma = 255 the
  longest run a scan reads, 4,079 slots, takes about 38 us plain and
  40 us compacted when an unsigned store returns every character, and
  about 5 us plain and 9 us compacted when the signatures reject every
  entry; a capped compacted scan takes about 2 us.

Keys with one home slot differ in their quotients, so their signatures
are as good as independent while h // capacity spans many multiples of
2**(12 - b).  Once capacity exceeds MODULUS / 2**(12 - b), about
2**(20 + b) slots, the quotient takes fewer values than the signature
has and the filter passes more foreign entries; results stay exact,
because every candidate is checked against the exact dictionary.

A store has one shape, the same in memory and on disk: optional
occupancy bits and two payload arrays over n places, the capacity's
slots when plain and the entries when compacted.  `chars` holds one
character byte per place, 0 marking an empty slot.  `sigs` holds the
signatures' low nibbles q & 15, two to a byte, split at
half = (n + 1) // 2: place i < half keeps its nibble in the low nibble
of sigs[i], place i >= half in the high nibble of sigs[i - half] (1.5
bytes per place in all).  A signed store's character byte holds the
character c in its low b bits and the rest of the signature above:
c | ((q >> 4) & (2**(8 - b) - 1)) << b, which is c alone at b = 8.
An insert whose word lengthens b first repacks every character byte by
one translate, keeping the low bits of each byte's signature field.
`sigs` is empty without signatures, so a store is signed exactly
when `sigs` is non-empty; an unsigned store's bytes are the characters.
The one exception, a compacted store with no entries, has an empty
`sigs` either way, and its scans all end before the signature test.  A
run of places therefore has its characters in one slice of `chars` and
its signatures in one slice of `sigs` unless it crosses half or the end.

A plain scan does its work in C: `chars.find(0, ...)` locates the empty
slot that ends the run (a second find when the run wraps), one
`translate` per signature half turns the run's signature bytes into a
mask, 0xFF where the nibble is the key's and 0 elsewhere, a run without
a 0xFF is rejected by one `in` test, and `_keep` keeps the run's
character bytes under the mask without a per-slot Python step.  Most
runs end at one of these steps.  On the rarer path where a nibble
matches, one more translate deletes the kept bytes whose high bits are
not the rest of the key's signature and maps the others to their
characters; a list left empty is rejected there.  The count cap counts
the distinct characters left after that filter, and only for a list of
sigma characters or more.

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
entries with the same mask, `in` test and `_keep` as a plain scan.

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
from functools import cache
from itertools import combinations, compress
from operator import itemgetter

from .errors import IndexFormatError, ValidationError
from .hashing import blank_keys
from .succinct import RankBitVector, chunk_size, read_occupancy, run_of_ones, squeeze
from .util import capacity_for, check_headroom, check_loaded_table, take, validate_words

_EMPTY: tuple[int, ...] = ()

# A run of _SCAN_LIMIT * sigma slots or more caps a scan.
_SCAN_LIMIT = 16

# Byte translation tables for reading signature nibbles.
_LOW_NIBBLE = bytes(b & 15 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))
# Per signature g, the tables that map a signature byte to 0xFF where its
# low (or high) nibble is g and to 0 elsewhere.
_SIG_MASKS = [(bytes(255 if b & 15 == g else 0 for b in range(256)),
               bytes(255 if b >> 4 == g else 0 for b in range(256))) for g in range(16)]


def signature_bits(sigma: int) -> int:
    """The signature width of a signed store over characters 1..sigma: a
    nibble in `sigs`, and the 8 - sigma.bit_length() high bits of each
    character byte."""
    return 12 - sigma.bit_length()


@cache
def _high_filters(b: int):
    """For a signed store whose characters take b bits, 1 <= b <= 7: the
    table mapping a character byte to its character, its low b bits, and
    per value g of the byte's high 8 - b bits the bytes whose high bits
    are not g.  One translate with both keeps a run's bytes signed g and
    decodes them."""
    low = bytes(x & ((1 << b) - 1) for x in range(256))
    return low, [bytes(x for x in range(256) if x >> b != g) for g in range(1 << (8 - b))]


# Fixed seeds for list_histogram key fingerprints; any two distinct values
# in [1, MODULUS - 2] work, these are arbitrary odd constants.
_HIST_SEED_A = 0x1F3D5B79
_HIST_SEED_B = 0x6A4C2E97


def _nibbles(sigs, half: int, a: int, b: int, low=_LOW_NIBBLE, high=_HIGH_NIBBLE) -> bytes:
    """Signatures a..b-1 of a split-nibble array, in order, each low nibble
    translated by `low` and each high one by `high`; 0 <= a <= b <= 2 * half."""
    if b <= half:
        return sigs[a:b].translate(low)
    if a >= half:
        return sigs[a - half : b - half].translate(high)
    return sigs[a:].translate(low) + sigs[: b - half].translate(high)


def _keep(run, mask) -> bytes:
    """The bytes of run where mask, of the same length, is 0xFF (0
    elsewhere), in order; run holds no zero byte.

    Done in C either way: a short run by compress, a longer one by one AND
    of both as integers, whose zero bytes are then deleted.
    """
    if len(run) < 32:
        return bytes(compress(run, mask))
    kept = int.from_bytes(run, "little") & int.from_bytes(mask, "little")
    return kept.to_bytes(len(run), "little").translate(None, b"\0")


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
                 "chars", "sigs", "occupancy", "filters")

    def __init__(self, level: int, capacity: int, use_signatures: bool,
                 bucket_seed: int, sigma: int, entry_count: int = 0, chars=None, sigs=None,
                 occupancy: RankBitVector | None = None):
        """An empty plain store, or a loaded one with its count and arrays."""
        self.level = level
        self.capacity = capacity
        self.entry_count = entry_count
        self.bucket_seed = bucket_seed
        self.chars = bytearray(capacity) if chars is None else chars
        self.sigs = bytearray((capacity + 1) // 2 if use_signatures else 0) if sigs is None else sigs
        self.occupancy = occupancy
        self._set_sigma(sigma)

    def _set_sigma(self, sigma: int) -> None:
        """Set sigma, and the filters a signed store's scans decode its
        character bytes with: _high_filters(b), or None where a byte keeps
        no signature bits (b = 8) or no character (b = 0)."""
        self.sigma = sigma
        b = sigma.bit_length()
        self.filters = _high_filters(b) if self.sigs and 0 < b < 8 else None

    # -- building ---------------------------------------------------------

    def _place(self, keys, chars) -> None:
        """Write one entry per (bucket hash, character) pair, in order: each
        at the first empty slot from its home slot, wrapping past the last,
        signed by the hash's quotient if the store has signatures."""
        t = self.capacity
        slots = self.chars
        sigs = self.sigs  # empty without signatures
        entries = zip(keys, chars)
        if not sigs:
            for h, c in entries:
                s = h % t
                if slots[s]:
                    s = slots.find(0, s)
                    if s < 0:
                        s = self._first_empty(len(keys), entries)
                slots[s] = c
        else:
            b = self.sigma.bit_length()
            half = (t + 1) >> 1
            for h, c in entries:
                s = h % t
                if slots[s]:
                    s = slots.find(0, s)
                    if s < 0:
                        s = self._first_empty(len(keys), entries)
                q = h // t
                sig = q & 15
                slots[s] = c | (q >> 4 << b) & 255  # the quotient's bits 4.. above c
                if s < half:
                    sigs[s] = (sigs[s] & 0xF0) | sig
                else:
                    s -= half
                    sigs[s] = (sigs[s] & 0x0F) | (sig << 4)
        self.entry_count += len(keys)

    def _first_empty(self, n_keys: int, entries) -> int:
        """The first empty slot, for _place's entry whose run wraps past the
        last slot; `entries` holds the batch's n_keys entries after it."""
        s = self.chars.find(0)
        if s < 0:  # only a loaded store whose entry count was too low
            # Count the entries placed before this one: all but it and the rest.
            self.entry_count += n_keys - 1 - sum(1 for _ in entries)
            raise IndexFormatError(f"level-{self.level} store: no empty slot left, "
                                   f"its entry count {self.entry_count} is wrong")
        return s

    def _widen(self, sigma: int) -> None:
        """Raise the store's sigma to `sigma`, the largest character it will
        hold.  Where the characters take more bits, a signed store keeps
        the low bits of each character byte's signature field, moved above
        them."""
        b, wide = self.sigma.bit_length(), sigma.bit_length()
        if self.sigs and wide > b:
            self.chars = self.chars.translate(
                bytes(x & ((1 << b) - 1) | (x >> b << wide) & 255 for x in range(256)))
        self._set_sigma(sigma)

    def check_headroom(self, added: int) -> None:
        """Raise TableFullError if `added` more entries will not fit."""
        check_headroom(self.entry_count, added, self.capacity, f"level-{self.level} store")

    def insert_word(self, word, sigma: int) -> None:
        """Place all level-appropriate entries of one word, O(1) each, first
        raising the store's sigma to `sigma`, at least the word's largest
        byte, if that is above it.  It only writes: build_store sizes the
        store for its words, and Index.insert_word checks headroom first."""
        if sigma > self.sigma:
            self._widen(sigma)
        keys = blank_keys(word, self.bucket_seed, self.level)
        chars = word if self.level == 1 else map(itemgetter(0), combinations(word, 2))
        self._place(keys, chars)

    # -- querying ---------------------------------------------------------

    def list_query(self, bucket_hash: int):
        """Candidate characters for a key, as (characters, capped).

        Scans circularly from the key's home slot (bucket_hash mod
        capacity) to the next empty slot, keeping the characters whose
        stored signature equals the key's (all of them if the store has no
        signatures), as bytes in slot order, repeats included.  A run of
        _SCAN_LIMIT * sigma slots or more, or a kept list that holds sigma
        distinct characters, returns the full alphabet range(1, sigma + 1)
        instead, with capped = True.  The run limit is far above an
        ordinary run at any load, so it caps pathological clusters only
        (see the module docstring); the count limit caps a list that holds
        the whole alphabet.  The result is always a superset of the
        characters stored under this key.
        """
        t = self.capacity
        sigma = self.sigma
        s = bucket_hash % t
        chars = self.chars
        occ = self.occupancy
        if occ is None:
            if not chars[s]:  # an empty home slot: most scans end here
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
            if not x & 1:  # an empty home slot: most scans end here
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
            # One translate maps each of the run's signature bytes to 0xFF
            # where its nibble is the low nibble of the key's signature and
            # to 0 elsewhere.
            q = bucket_hash // t
            low, high = _SIG_MASKS[q & 15]
            half = (n + 1) >> 1
            if s < e <= half:
                mask = sigs[s:e].translate(low)
            elif half <= s < e:
                mask = sigs[s - half : e - half].translate(high)
            elif s < e:
                mask = _nibbles(sigs, half, s, e, low, high)
            else:
                mask = _nibbles(sigs, half, s, n, low, high) + _nibbles(sigs, half, 0, e, low, high)
            if 255 not in mask:
                return _EMPTY, False
            out = _keep(chars[s:e] if s < e else chars[s:] + chars[:e], mask)
            filters = self.filters
            if filters is not None:
                # One more translate keeps the bytes whose high bits are the
                # rest of the key's signature, as their characters.
                decode, deletes = filters
                out = out.translate(decode, deletes[(q >> 4) % len(deletes)])
                if not out:
                    return _EMPTY, False
        else:
            out = bytes(chars[s:e] if s < e else chars[s:] + chars[:e])
        # A list as long as the alphabet may hold all of it: only then is it
        # the alphabet.
        if len(out) >= sigma and len(set(out)) >= sigma:
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
        slot) and half a byte per entry of signatures: about 0.54 byte per
        slot at load 7/10.  The squeeze peaks at its final join, which
        holds the kept characters twice: 0.4 byte per slot above `chars`,
        after the slot signatures (half a byte per slot) are freed, so it
        stays below that.
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
    def from_bytes(cls, buf, offset: int, level: int, config, bucket_seed: int, sigma: int):
        """Parse the section at offset; returns (store, end offset).  The
        file header gives all but the two counts (config: its layout
        flags, delta and load factor), the level its position."""
        capacity, entry_count = struct.unpack_from("<QQ", buf, offset)
        offset += 16
        what = f"level-{level} store"
        # n: the slots a plain store holds, or a compacted one's entries.
        occupancy, n, offset = read_occupancy(buf, offset, capacity, entry_count, config, what)
        copy = bytearray if occupancy is None else bytes
        n_sigs = (n + 1) // 2 if config.use_signatures else 0
        chars = copy(take(buf, offset, n, what))
        offset += n
        sigs = copy(take(buf, offset, n_sigs, what))
        offset += n_sigs
        # read_occupancy checked that a compacted store leaves a slot free.
        # A plain store's `in` stops at the first empty slot, so it costs
        # next to nothing.
        if occupancy is None:
            check_loaded_table(what, entry_count, capacity, 0 in chars)
        return cls(level, capacity, config.use_signatures, bucket_seed, sigma, entry_count,
                   chars, sigs, occupancy), offset


def build_store(words, level: int, alpha: Fraction, use_signatures: bool,
                bucket_seed: int, sig_seed: int, sigma: int,
                validated: bool = False) -> SubstStore:
    """Build a level-1 or level-2 store over the words build_index
    validated, whose largest byte is sigma.

    Entries are placed and signed by one hash under bucket_seed; sig_seed
    and validated are accepted and ignored.
    """
    total = sum(entries_for(len(w), level) for w in words)
    store = SubstStore(level, capacity_for(total, alpha), use_signatures, bucket_seed, sigma)
    for w in words:
        store.insert_word(w, sigma)
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


def list_histogram(words, level: int) -> ListSizeHistogram:
    """Distribution of entries over exact per-key list sizes.

    Keys are grouped by a combined 64-bit fingerprint (one 32-bit hash per
    seed) instead of materialized pattern strings; the collision odds are
    negligible at any realistic dictionary size, so this is an exact
    diagnostic in practice.
    """
    if level not in (1, 2):
        raise ValidationError(f"store level must be 1 or 2, not {level!r}")
    words = validate_words(words)
    key_counts: Counter = Counter()
    for w in words:
        key_counts.update([(a << 32) | b for a, b in zip(blank_keys(w, _HIST_SEED_A, level),
                                                         blank_keys(w, _HIST_SEED_B, level))])
    sizes = Counter(key_counts.values())  # list size -> keys with a list that long
    entries_by_size = Counter({size: size * keys for size, keys in sizes.items()})
    return ListSizeHistogram(level, sum(key_counts.values()), entries_by_size)

"""Wildcard-keyed substitution stores (one and two wildcards per key).

A level-1 store answers: given a pattern x..phi..y with one wildcard slot,
which characters, substituted at the wildcard, could yield a dictionary
word?  It is built by inserting, for every word and every position j, the
character w[j] keyed by the word with position j blanked out.  A level-2
store does the same for every pair of positions i < j, storing the
character at the leftmost blank.

All entries of one level share a single linear-probing character table;
the key only determines the starting slot (key hash mod capacity), so a
query scans from there to the next empty slot and returns a superset of
the true character list.  Two refinements keep that superset small and
bounded:

* an optional 4-bit signature of the key (hash under a second seed) is
  stored next to each character and filters out most entries that belong
  to other keys colliding into the same run;
* a scan that would visit more than sigma slots (sigma = alphabet size)
  gives up and returns the whole alphabet [1..sigma] instead, bounding the
  worst case while staying a superset.

With signatures the slots are packed two to a block of 3 bytes: character
of the even slot, one byte holding both 4-bit signatures (even slot in the
low nibble, odd slot in the high nibble), character of the odd slot.
Without signatures a slot is a single character byte.  Byte 0 marks an
empty slot either way.  A plain (not compacted) store has this one slot
array both in memory and on disk.

Compaction freezes a store and drops its empty slots.  On disk, a
compacted store holds the occupancy bits in the interleaved count/data
layout of succinct.py, then the payload: the entries of the occupied
slots in slot order, packed as above (3 bytes per two entries with
signatures, 1 byte per entry without).  In memory, the payload is the
same bytes and the occupancy bits are flat arrays of 32-bit data words
and per-word ranks.  A compacted scan tests the home bit, measures the
run of ones one word at a time with a trailing-ones bit trick, decides
the cap from the run length alone, and only then computes the home slot's
rank inline and reads that run's entries.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import or_

from .errors import CompactedError, IndexFormatError
from .hashing import MODULUS, WILDCARD, HashContext
from .succinct import RankBitVector, read_occupancy, run_of_ones
from .util import capacity_for, check_headroom, check_loaded_table, take, validate_words

_EMPTY: tuple[int, ...] = ()

# Byte translation tables for splitting and joining signature nibbles.
_LOW_NIBBLE = bytes(b & 15 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))
_TO_HIGH_NIBBLE = bytes((b << 4) & 0xFF for b in range(256))

# Fixed seeds for list_histogram key fingerprints; any two distinct values
# in [1, MODULUS - 2] work, these are arbitrary odd constants.
_HIST_SEED_A = 0x1F3D5B79
_HIST_SEED_B = 0x6A4C2E97


def _interleave(even, odd) -> bytes:
    """even[0], odd[0], even[1], odd[1], ...; len(even) == len(odd)."""
    out = bytearray(2 * len(even))
    out[0::2] = even
    out[1::2] = odd
    return bytes(out)


def entries_for(word_length: int, level: int) -> int:
    """Number of store entries a single word contributes."""
    if level == 1:
        return word_length
    return word_length * (word_length - 1) // 2


class SubstStore:
    """Linear-probing character table keyed by wildcard patterns."""

    __slots__ = (
        "level",
        "capacity",
        "entry_count",
        "use_signatures",
        "bucket_seed",
        "sig_seed",
        "sigma",
        "slots",
        "compacted",
        "occupancy",
        "dense",
    )

    def __init__(self, level: int, capacity: int, use_signatures: bool,
                 bucket_seed: int, sig_seed: int, sigma: int):
        self.level = level
        self.capacity = capacity
        self.entry_count = 0
        self.use_signatures = use_signatures
        self.bucket_seed = bucket_seed
        self.sig_seed = sig_seed
        self.sigma = sigma
        if use_signatures:
            self.slots = bytearray(3 * ((capacity + 1) // 2))
        else:
            self.slots = bytearray(capacity)
        self.compacted = False
        self.occupancy: RankBitVector | None = None
        self.dense: bytes | None = None

    # -- building ---------------------------------------------------------

    def _insert_entry(self, bucket_hash: int, sig: int, char: int) -> None:
        t = self.capacity
        s = bucket_hash % t
        slots = self.slots
        if self.use_signatures:
            while True:
                base = 3 * (s >> 1)
                cpos = base + ((s & 1) << 1)
                if slots[cpos] == 0:
                    break
                s += 1
                if s == t:
                    s = 0
            slots[cpos] = char
            mid = base + 1
            if s & 1:
                slots[mid] = (slots[mid] & 0x0F) | (sig << 4)
            else:
                slots[mid] = (slots[mid] & 0xF0) | sig
        else:
            while slots[s]:
                s += 1
                if s == t:
                    s = 0
            slots[s] = char
        self.entry_count += 1

    def _insert_word_entries(self, word) -> int:
        """Insert all level-appropriate entries for one word; O(1) each."""
        m = len(word)
        level = self.level
        if level == 2 and m < 2:
            return 0
        sig_on = self.use_signatures
        bctx = HashContext(word, self.bucket_seed)
        hb = bctx.total
        pb = bctx.powers
        db = [0] * (m + 1)
        for j in range(1, m + 1):
            db[j] = (WILDCARD - word[j - 1]) * pb[j] % MODULUS
        if sig_on:
            sctx = HashContext(word, self.sig_seed)
            hs = sctx.total
            ps = sctx.powers
            ds = [0] * (m + 1)
            for j in range(1, m + 1):
                ds[j] = (WILDCARD - word[j - 1]) * ps[j] % MODULUS
        insert = self._insert_entry
        if level == 1:
            for j in range(1, m + 1):
                sig = ((hs + ds[j]) % MODULUS) & 15 if sig_on else 0
                insert((hb + db[j]) % MODULUS, sig, word[j - 1])
            return m
        for i in range(1, m):
            bi = (hb + db[i]) % MODULUS
            si = (hs + ds[i]) % MODULUS if sig_on else 0
            ci = word[i - 1]
            for j in range(i + 1, m + 1):
                sig = ((si + ds[j]) % MODULUS) & 15 if sig_on else 0
                insert((bi + db[j]) % MODULUS, sig, ci)
        return m * (m - 1) // 2

    def check_headroom(self, added: int) -> None:
        if self.compacted:
            raise CompactedError("cannot insert into a compacted store")
        check_headroom(self.entry_count, added, self.capacity,
                       f"level-{self.level} store")

    def insert_entries(self, word) -> int:
        """Add all entries for one new word; returns how many were added."""
        self.check_headroom(entries_for(len(word), self.level))
        return self._insert_word_entries(word)

    # -- querying ---------------------------------------------------------

    def list_query(self, bucket_hash: int, key_sig: int = 0):
        """Candidate characters for a key, as (characters, capped).

        Scans circularly from the key's slot to the next empty slot,
        keeping characters whose stored signature matches key_sig (all of
        them if the store has no signatures).  A scan past sigma slots
        returns the full alphabet instead, with capped = True.  The result
        is always a superset of the characters stored under this key.
        """
        t = self.capacity
        sigma = self.sigma
        s = bucket_hash % t
        steps = 0
        out = None
        if not self.compacted:
            slots = self.slots
            if self.use_signatures:
                while True:
                    steps += 1
                    if steps > sigma:
                        return range(1, sigma + 1), True
                    base = 3 * (s >> 1)
                    odd = s & 1
                    char = slots[base + (odd << 1)]
                    if char == 0:
                        break
                    sig = (slots[base + 1] >> (odd << 2)) & 15
                    if sig == key_sig:
                        if out is None:
                            out = [char]
                        else:
                            out.append(char)
                    s += 1
                    if s == t:
                        s = 0
            else:
                while True:
                    steps += 1
                    if steps > sigma:
                        return range(1, sigma + 1), True
                    char = slots[s]
                    if char == 0:
                        break
                    if out is None:
                        out = [char]
                    else:
                        out.append(char)
                    s += 1
                    if s == t:
                        s = 0
            return (out if out is not None else _EMPTY), False
        occ = self.occupancy
        bits = occ.words
        w = s >> 5
        off = s & 31
        x = bits[w] >> off
        if not x & 1 and sigma:  # an empty home slot: most scans end here
            return _EMPTY, False
        run = (x ^ (x + 1)).bit_length() - 1  # trailing ones: the run inside word w
        if off + run == 32 or s + run == t:
            run = run_of_ones(bits, t, s, sigma)
        if run >= sigma:
            return range(1, sigma + 1), True
        j = occ.ranks[w] + (bits[w] & ((1 << off) - 1)).bit_count()
        dense = self.dense
        n = self.entry_count
        if not self.use_signatures:
            if j + run <= n:
                return list(dense[j : j + run]), False
            return list(dense[j:] + dense[: j + run - n]), False
        out = []
        for j in range(j, j + run):
            if j >= n:
                j -= n
            base = 3 * (j >> 1)
            if j & 1:
                if dense[base + 1] >> 4 == key_sig:
                    out.append(dense[base + 2])
            elif dense[base + 1] & 15 == key_sig:
                out.append(dense[base])
        return (out or _EMPTY), False

    # -- compaction and serialization --------------------------------------

    def compact(self, delta: int = 4) -> None:
        """Replace the slot array with occupancy bits plus packed payload."""
        if self.compacted:
            return
        slots = self.slots
        if not self.use_signatures:
            chars = bytes(slots)
            dense = chars.translate(None, b"\0")
        else:
            chars = _interleave(slots[0::3], slots[2::3])[: self.capacity]
            kept_chars = chars.translate(None, b"\0")
            # Signature nibbles in slot order, then those of the occupied
            # slots, repacked two to a byte between their characters.
            sig_bytes = slots[1::3]
            sigs = _interleave(sig_bytes.translate(_LOW_NIBBLE), sig_bytes.translate(_HIGH_NIBBLE))
            kept_sigs = bytes(compress(sigs, chars))
            if len(kept_chars) & 1:
                kept_chars += b"\0"
                kept_sigs += b"\0"
            packed = bytearray(3 * (len(kept_chars) >> 1))
            packed[0::3] = kept_chars[0::2]
            packed[1::3] = bytes(map(or_, kept_sigs[0::2],
                                     kept_sigs[1::2].translate(_TO_HIGH_NIBBLE)))
            packed[2::3] = kept_chars[1::2]
            dense = bytes(packed)
        self.occupancy = RankBitVector.from_flags(chars, delta)
        self.dense = dense
        self.slots = None
        self.compacted = True

    def to_bytes(self) -> bytes:
        flags = (1 if self.use_signatures else 0) | (2 if self.compacted else 0)
        head = struct.pack("<BBQQ", self.level, flags, self.capacity, self.entry_count)
        if self.compacted:
            return head + self.occupancy.to_bytes() + struct.pack("<Q", len(self.dense)) + self.dense
        return head + struct.pack("<Q", len(self.slots)) + bytes(self.slots)

    @classmethod
    def from_bytes(cls, buf, offset: int, bucket_seed: int, sig_seed: int, sigma: int):
        level, flags, capacity, entry_count = struct.unpack_from("<BBQQ", buf, offset)
        offset += 18
        store = cls.__new__(cls)
        store.level = level
        store.use_signatures = bool(flags & 1)
        store.compacted = bool(flags & 2)
        store.capacity = capacity
        store.entry_count = entry_count
        store.bucket_seed = bucket_seed
        store.sig_seed = sig_seed
        store.sigma = sigma
        what = f"level-{level} store"
        if store.compacted:
            store.slots = None
            store.occupancy, offset = read_occupancy(buf, offset, capacity, entry_count, what)
            (dense_len,) = struct.unpack_from("<Q", buf, offset)
            offset += 8
            want = 3 * ((entry_count + 1) // 2) if store.use_signatures else entry_count
            if dense_len != want:
                raise IndexFormatError(f"{what}: payload of {dense_len} bytes, "
                                       f"{entry_count} entries need {want}")
            store.dense = bytes(take(buf, offset, dense_len, what))
            offset += dense_len
        else:
            (slots_len,) = struct.unpack_from("<Q", buf, offset)
            offset += 8
            want = 3 * ((capacity + 1) // 2) if store.use_signatures else capacity
            if slots_len != want:
                raise IndexFormatError(f"{what}: slot array of {slots_len} bytes, "
                                       f"{capacity} slots need {want}")
            store.slots = bytearray(take(buf, offset, slots_len, what))
            offset += slots_len
            store.occupancy = None
            store.dense = None
        # Compacted, popcount = entry_count < capacity leaves a clear bit.  A
        # plain store is not searched for an empty slot: that would add a
        # strided pass over the largest array of the file to every load, and
        # its scans stop after sigma slots whether or not it has one.
        check_loaded_table(what, entry_count, capacity, True)
        return store, offset


def build_store(words, level: int, alpha: Fraction, use_signatures: bool,
                bucket_seed: int, sig_seed: int, sigma: int | None = None,
                validated: bool = False) -> SubstStore:
    """Build a level-1 or level-2 store over a word list."""
    if level not in (1, 2):
        raise ValueError("store level must be 1 or 2")
    if not validated:
        words = validate_words(words)
    if sigma is None:
        sigma = max((max(w) for w in words), default=0)
    total = sum(entries_for(len(w), level) for w in words)
    store = SubstStore(level, capacity_for(total, alpha), use_signatures,
                       bucket_seed, sig_seed, sigma)
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
    if not validated:
        words = validate_words(words)
    key_counts: Counter = Counter()
    for w in words:
        m = len(w)
        if level == 2 and m < 2:
            continue
        ctx_a = HashContext(w, _HIST_SEED_A)
        ctx_b = HashContext(w, _HIST_SEED_B)
        ha, pa = ctx_a.total, ctx_a.powers
        hb, pbw = ctx_b.total, ctx_b.powers
        da = [0] * (m + 1)
        db = [0] * (m + 1)
        for j in range(1, m + 1):
            da[j] = (WILDCARD - w[j - 1]) * pa[j] % MODULUS
            db[j] = (WILDCARD - w[j - 1]) * pbw[j] % MODULUS
        if level == 1:
            for j in range(1, m + 1):
                key_counts[(((ha + da[j]) % MODULUS) << 32) | ((hb + db[j]) % MODULUS)] += 1
        else:
            for i in range(1, m):
                ai = (ha + da[i]) % MODULUS
                bi = (hb + db[i]) % MODULUS
                for j in range(i + 1, m + 1):
                    key_counts[(((ai + da[j]) % MODULUS) << 32) | ((bi + db[j]) % MODULUS)] += 1
    entries_by_size: Counter = Counter()
    for count in key_counts.values():
        entries_by_size[count] += count
    return ListSizeHistogram(level, sum(key_counts.values()), entries_by_size)

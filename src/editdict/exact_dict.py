"""Exact-membership dictionary over byte-string words.

Every word lives inline in one linear-probing table per length: the slot
width is the word length, up to util.MAX_WORD_LENGTH, and an empty slot
is all zero bytes, which is why words must not contain NUL bytes.  A
length unseen at build time gets a table of NEW_TABLE_CAPACITY slots on
its first insert.

Probing starts at poly_hash(word) mod capacity and scans circularly until
the word or an empty slot is found.  Every table keeps at least one empty
slot, so scans terminate; loading rejects a table that has none.  An
insert writes into the empty slot that ends its word's run, and does
nothing else: Index.insert_word is the checked writer, and it makes
every check (not compacted, a valid and absent word, headroom) first.
In a plain table the first zero byte at or after the home slot is the
start of the empty slot that ends the run, so a probe is one
`bytes.find(0, ...)` plus one aligned `bytes.find(word, ...)` over the
run (two of each when the run wraps past the last slot); loading rejects
a table whose occupied slots hold a zero byte, which would break this.
A table has one shape in both layouts: optional occupancy bits
(succinct.py) and `slots`, held over slots when plain and, once
compacted, over entries, the occupied slots back to back in slot order.
Compaction freezes the structure; probes measure the run of ones from
the home slot inside its 64-bit word (run_of_ones only when the run
reaches the word's end), compute the home slot's rank inline from the
bit vector's word and rank arrays, and search the run's bytes with the
same aligned find.  On disk a table is the same: its occupancy bits if
compacted, then `slots`.
Loading also rejects a table, in either layout, that holds a byte above
the index's sigma (capped scans return only 1..sigma), whose count
differs from its occupied slots, or whose first stored word is not found
under the bucket seed.
"""

from __future__ import annotations

import struct
from collections import Counter
from fractions import Fraction

from .errors import IndexFormatError
from .hashing import poly_hash
from .succinct import RankBitVector, read_occupancy, run_of_ones, squeeze
from .util import capacity_for, check_headroom, check_loaded_table, take, validate_words

# Capacity of a per-length table created on demand by insert_word for a
# length unseen at build time.  Tables are never grown.
NEW_TABLE_CAPACITY = 16

# A table's header: width (the word length), capacity and count.
_TABLE_HEAD = struct.Struct("<HQQ")


def _holds(slots, word, lo: int, hi: int, width: int) -> bool:
    """True if word fills one of the width-byte slots of slots[lo:hi];
    lo is a multiple of width."""
    i = slots.find(word, lo, hi)
    while i >= 0 and i % width:
        i = slots.find(word, i + 1, hi)
    return i >= 0


class _WordTable:
    """Inline table for the words of one length: `slots` holds width bytes
    per slot, or per entry once compacted (occupancy set)."""

    __slots__ = ("width", "capacity", "count", "slots", "occupancy")

    def __init__(self, width: int, capacity: int, count: int = 0, slots=None,
                 occupancy: RankBitVector | None = None):
        """An empty plain table, or a loaded one with its count and arrays."""
        self.width = width
        self.capacity = capacity
        self.count = count
        self.slots = bytearray(width * capacity) if slots is None else slots
        self.occupancy = occupancy

    def contains(self, word, h: int) -> bool:
        t = self.capacity
        w = self.width
        s = h % t
        slots = self.slots
        occ = self.occupancy
        if occ is None:
            lo = s * w
            if not slots[lo]:
                return False
            hi = slots.find(0, lo)  # the empty slot ending the run
            if hi >= 0:
                return _holds(slots, word, lo, hi, w)
            return (_holds(slots, word, lo, len(slots), w)
                    or _holds(slots, word, 0, slots.find(0), w))
        # Compacted: a stored word whose probe passed the home slot lies in
        # the run of ones from there, whose entries sit back to back in
        # slots from byte w * rank1(s) on.
        bits = occ.words
        i = s >> 6
        off = s & 63
        x = bits[i] >> off
        if not x & 1:
            return False
        run = (x ^ (x + 1)).bit_length() - 1  # trailing ones: the run inside word i
        if off + run == 64 or s + run == t:
            run = run_of_ones(bits, t, s, t)
        lo = w * (occ.ranks[i] + (bits[i] & ((1 << off) - 1)).bit_count())
        hi = lo + w * run
        n = len(slots)
        if hi <= n:
            return _holds(slots, word, lo, hi, w)
        return _holds(slots, word, lo, n, w) or _holds(slots, word, 0, hi - n, w)

    def insert(self, word, h: int) -> None:
        """Write a word into the empty slot that ends its probe run.  The
        caller has checked that the word is absent and that the table has
        headroom, which leaves an empty slot for the run to end at."""
        w = self.width
        slots = self.slots
        lo = h % self.capacity * w
        if slots[lo]:  # an occupied home slot: write past the end of its run
            lo = slots.find(0, lo)
            if lo < 0:  # the run wraps past the last slot
                lo = slots.find(0)
        slots[lo : lo + w] = word
        self.count += 1

    def compact(self, delta: int) -> None:
        """Add the occupancy bits and keep only the occupied slots, back to
        back.  A word holds no zero byte and an empty slot is all zero
        (load checks both), so squeezing out the zero bytes leaves exactly
        those slots, in slot order.  A compacted table stays as it is."""
        if self.occupancy is not None:
            return
        self.occupancy = RankBitVector.from_flags(self.slots[0 :: self.width], delta)
        self.slots = squeeze(self.slots)

    def to_bytes(self) -> bytes:
        occ = b"" if self.occupancy is None else self.occupancy.to_bytes()
        return _TABLE_HEAD.pack(self.width, self.capacity, self.count) + occ + bytes(self.slots)

    @classmethod
    def from_bytes(cls, buf, offset: int, config, min_width: int, seed: int, sigma: int):
        width, capacity, count = _TABLE_HEAD.unpack_from(buf, offset)
        offset += _TABLE_HEAD.size
        what = f"word table (length {width})"
        # Tables are written by increasing length: a repeated length would
        # replace a table.
        if width < min_width:
            raise IndexFormatError(f"{what}: lengths must increase from {min_width}")
        # n: the slots a plain table holds, or a compacted one's entries.
        occupancy, n, offset = read_occupancy(buf, offset, capacity, count, config, what)
        compacted = occupancy is not None
        slots = (bytes if compacted else bytearray)(take(buf, offset, n * width, what))
        offset += n * width
        if compacted:
            # Deleting bytes 0..sigma leaves only those above it, and
            # writes less than mapping every byte would.
            above_sigma = bool(slots.translate(None, bytes(range(sigma + 1))))
        else:
            # 0 for a zero byte, 1 for a byte in 1..sigma, 2 for one above sigma
            bands = bytes([0]) + bytes([1]) * sigma + bytes([2]) * (255 - sigma)
            firsts = slots[0::width].translate(bands)
            # A byte of firsts has one bit set if its slot is occupied and
            # none if not.  A popcount has no data-dependent branch, where
            # firsts.count(0) mispredicts on random occupancy and takes
            # about 2.5 times as long.
            occupied = int.from_bytes(firsts, "little").bit_count()
            check_loaded_table(what, count, capacity, occupied < capacity)
            # A probe skips a length whose count is 0, and word_count sums
            # the counts, so each must equal the table's occupied slots
            # (read_occupancy checks a compacted table's).
            if occupied != count:
                raise IndexFormatError(f"{what}: {occupied} occupied slots, header count {count}")
            above_sigma = 2 in firsts
        # A capped scan returns only the characters 1..sigma, so a stored
        # byte above sigma would drop matches silently.
        if above_sigma:
            raise IndexFormatError(f"{what}: a stored byte is above sigma = {sigma}")
        # A plain probe takes the first zero byte after its home slot for the
        # start of an empty slot: each slot must be all zero or hold none.
        # With the first bytes all 0 or 1, a column that differs holds a
        # zero byte inside a word or a byte above sigma.
        if not compacted and any(slots[i::width].translate(bands) != firsts
                                 for i in range(1, width)):
            raise IndexFormatError(f"{what}: a slot holds a zero byte inside a word "
                                   "or a byte above sigma")
        # A wrong seed: the table must find its first stored word under it.
        lo = 0 if compacted else firsts.find(1) * width  # the first occupied slot, or -width
        word = slots[lo : lo + width]
        table = cls(width, capacity, count, slots, occupancy)
        if word and not table.contains(word, poly_hash(word, seed)):
            raise IndexFormatError(f"{what}: a stored word is not found under bucket seed {seed:#x}")
        return table, offset


class ExactDictionary:
    """Membership structure over the unmodified dictionary words."""

    __slots__ = ("seed", "tables")

    def __init__(self, seed: int):
        self.seed = seed
        self.tables: dict[int, _WordTable] = {}  # word length -> its table

    @property
    def word_count(self) -> int:
        return sum(t.count for t in self.tables.values())

    @property
    def total_length(self) -> int:
        """Bytes in all stored words."""
        return sum(w * t.count for w, t in self.tables.items())

    def contains(self, word, h: int | None = None) -> bool:
        """True iff the word was stored.  h may carry a precomputed hash."""
        table = self.tables.get(len(word))
        if table is None:
            return False
        return table.contains(word, poly_hash(word, self.seed) if h is None else h)

    def probe_for_length(self, length: int):
        """Bound membership probe for candidates of one length, or None.

        None means no stored word can have this length, so a caller
        enumerating candidates of that length may skip them wholesale.
        """
        table = self.tables.get(length)
        if table is None or table.count == 0:
            return None
        return table.contains

    def check_headroom(self, length: int) -> None:
        """Raise TableFullError if one more word of this length will not fit."""
        table = self.tables.get(length)
        if table is not None:
            check_headroom(table.count, 1, table.capacity, f"word table (length {length})")

    def insert_word(self, word, h: int) -> None:
        """Write one word whose hash is h.  A length unseen at build time
        gets a small fresh table; tables are never grown.

        Index.insert_word makes every check first: the dictionary is not
        compacted, the word is valid and absent, and its table has
        headroom.
        """
        table = self.tables.get(len(word))
        if table is None:
            table = self.tables[len(word)] = _WordTable(len(word), NEW_TABLE_CAPACITY)
        table.insert(word, h)

    def compact(self, delta: int = 4) -> None:
        """Compact every table: occupancy bits plus its occupied slots."""
        for table in self.tables.values():
            table.compact(delta)

    def table_report(self) -> list[tuple[str, int, int]]:
        """(name, entries, capacity) per table, for occupancy statistics."""
        return [(f"words[len={w}]", t.count, t.capacity) for w, t in sorted(self.tables.items())]

    def to_bytes(self) -> bytes:
        parts = [struct.pack("<H", len(self.tables))]
        for width in sorted(self.tables):
            parts.append(self.tables[width].to_bytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf, offset: int, config, seed: int, sigma: int):
        """Parse the section at offset; returns (dictionary, end offset).

        config is the file header's: its layout flags, delta and load
        factor.  sigma is the index's largest stored byte: a table holding
        a byte above it is rejected, and so is a sigma no table holds.
        """
        d = cls(seed)
        (n_tables,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        min_width = 1
        for _ in range(n_tables):
            table, offset = _WordTable.from_bytes(buf, offset, config, min_width, seed, sigma)
            d.tables[table.width] = table
            min_width = table.width + 1
        # A store decodes its characters by sigma's bit length, so a sigma
        # above every stored byte would misread them.
        if sigma and not any(sigma in t.slots for t in d.tables.values()):
            raise IndexFormatError(f"sigma = {sigma} is above every stored byte")
        return d, offset


def build_exact(words, alpha: Fraction, beta: int = 16, seed: int = 1,
                validated: bool = False) -> ExactDictionary:
    """Build the membership structure for a word list.

    Duplicates are dropped; words containing NUL bytes are rejected with a
    diagnostic naming the offending input position.  validated=True skips
    that step for words validate_words returned, so each is written with
    no presence probe.  beta is accepted by position and ignored: every
    word is stored inline.
    """
    if not validated:
        words = validate_words(words)
    d = ExactDictionary(seed)
    tables = d.tables
    for width, count in Counter(map(len, words)).items():
        tables[width] = _WordTable(width, capacity_for(count, alpha))
    for w in words:
        tables[len(w)].insert(w, poly_hash(w, seed))
    return d

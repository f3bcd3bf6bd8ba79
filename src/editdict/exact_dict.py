"""Exact-membership dictionary over byte-string words.

Words shorter than the threshold beta live inline in one linear-probing
table per length (slot width = word length, an empty slot is all zero
bytes, which is why words must not contain NUL bytes).  Words of length
beta or more live in a single table of 32-bit offsets into an arena of
length-prefixed word bytes; the all-ones offset marks an empty slot.  The
offsets are one array('I') in both layouts.

Probing starts at poly_hash(word) mod capacity and scans circularly until
the word or an empty slot is found.  Every table keeps at least one empty
slot, so scans terminate; loading rejects a table that has none.  An
insert runs its table's probe and writes into the empty slot that ends
the run.  In a plain inline table the first zero byte at or after the
home slot is the start of the empty slot that ends the run, so a probe is
one `bytes.find(0, ...)` plus one aligned `bytes.find(word, ...)` over
the run (two of each when the run wraps past the last slot); loading
rejects a table whose occupied slots hold a zero byte, which would break
this.  Compaction replaces each slot array with an occupancy bit vector
(succinct.py) plus a dense payload, the occupied slots in slot order, and
freezes the structure; probes measure the run of ones from the home slot
inside its 64-bit word (run_of_ones only when the run reaches the word's
end), compute the home slot's rank inline from the bit vector's word and
rank arrays, and search the run's bytes with the same aligned find.
Loading also rejects an inline table, in either layout, that holds a
byte above the index's sigma: capped scans return only 1..sigma.
"""

from __future__ import annotations

import struct
from array import array
from fractions import Fraction
from itertools import compress

from .errors import CompactedError, IndexFormatError, ValidationError
from .hashing import poly_hash
from .succinct import RankBitVector, read_occupancy, run_of_ones, u32_array, u32_bytes
from .util import (capacity_for, check_headroom, check_loaded_table, take,
                   validate_word, validate_words)

EMPTY_OFFSET = 0xFFFFFFFF

# Capacity of a per-length table created on demand by insert_word for a
# length unseen at build time.  Tables are never grown.
NEW_TABLE_CAPACITY = 16


def _holds(slots, word, lo: int, hi: int, width: int) -> bool:
    """True if word fills one of the width-byte slots of slots[lo:hi];
    lo is a multiple of width."""
    i = slots.find(word, lo, hi)
    while i >= 0 and i % width:
        i = slots.find(word, i + 1, hi)
    return i >= 0


def _check_seed(table, word, seed: int, what: str) -> None:
    """Reject a wrong seed: the table must find its first stored word, if any, under it."""
    if word and not table.contains(word, poly_hash(word, seed)):
        raise IndexFormatError(f"{what}: a stored word is not found under bucket seed {seed:#x}")


class _ShortTable:
    """Inline table for words of one fixed length below beta."""

    __slots__ = ("width", "capacity", "count", "slots", "occupancy", "dense")

    def __init__(self, width: int, capacity: int):
        self.width = width
        self.capacity = capacity
        self.count = 0
        self.slots = bytearray(width * capacity)
        self.occupancy: RankBitVector | None = None
        self.dense: bytes | None = None

    def contains(self, word, h: int) -> bool:
        t = self.capacity
        w = self.width
        s = h % t
        slots = self.slots
        if slots is not None:
            lo = s * w
            if not slots[lo]:
                return False
            hi = slots.find(0, lo)  # the empty slot ending the run
            if hi >= 0:
                return _holds(slots, word, lo, hi, w)
            return (_holds(slots, word, lo, len(slots), w)
                    or _holds(slots, word, 0, slots.find(0), w))
        # Compacted: a stored word whose probe passed the home slot lies in
        # the run of ones from there, whose slots sit back to back in dense
        # from byte w * rank1(s) on.
        occ = self.occupancy
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
        dense = self.dense
        n = len(dense)
        if hi <= n:
            return _holds(dense, word, lo, hi, w)
        return _holds(dense, word, lo, n, w) or _holds(dense, word, 0, hi - n, w)

    def insert(self, word, h: int) -> bool:
        """Insert unless present; returns True if the word was new."""
        w = self.width
        slots = self.slots
        lo = h % self.capacity * w
        if slots[lo]:  # an occupied home slot: the word may be in its run
            if self.contains(word, h):
                return False
            lo = slots.find(0, lo)  # the empty slot ending the run
            if lo < 0:  # the run wraps past the last slot
                lo = slots.find(0)
                if lo < 0:  # only a loaded table whose count was too low
                    raise IndexFormatError(f"word table (length {w}): no empty slot left, "
                                           f"its count {self.count} is wrong")
        slots[lo : lo + w] = word
        self.count += 1
        return True

    def compact(self, delta: int) -> None:
        w = self.width
        slots = self.slots
        firsts = slots[0::w]  # 0 marks an empty slot
        dense = bytearray(self.count * w)
        for i in range(w):
            dense[i::w] = bytes(compress(slots[i::w], firsts))
        self.occupancy = RankBitVector.from_flags(firsts, delta)
        self.dense = bytes(dense)
        self.slots = None

    def to_bytes(self) -> bytes:
        head = struct.pack("<BQQ", self.width, self.capacity, self.count)
        if self.slots is not None:
            return head + bytes(self.slots)
        return head + self.occupancy.to_bytes() + self.dense

    @classmethod
    def from_bytes(cls, buf, offset: int, compacted: bool, delta: int,
                   min_width: int, beta: int, seed: int, sigma: int):
        width, capacity, count = struct.unpack_from("<BQQ", buf, offset)
        offset += 17
        what = f"word table (length {width})"
        # Tables are written by increasing length, all below beta: a repeated
        # length would replace a table, one at beta or above would never be
        # probed.
        if not min_width <= width < beta:
            raise IndexFormatError(f"{what}: lengths must increase from {min_width} "
                                   f"and stay below beta = {beta}")
        table = cls.__new__(cls)
        table.width = width
        table.capacity = capacity
        table.count = count
        if compacted:
            table.slots = None
            table.occupancy, offset = read_occupancy(buf, offset, capacity, count, delta, what)
            table.dense = bytes(take(buf, offset, count * width, what))
            offset += count * width
            occupied = count  # read_occupancy checked the popcount
            # Deleting bytes 0..sigma leaves only those above it, and
            # writes less than mapping every byte would.
            above_sigma = bool(table.dense.translate(None, bytes(range(sigma + 1))))
        else:
            slots = table.slots = bytearray(take(buf, offset, capacity * width, what))
            table.occupancy = None
            table.dense = None
            offset += capacity * width
            # 0 for a zero byte, 1 for a byte in 1..sigma, 2 for one above sigma
            bands = bytes([0]) + bytes([1]) * sigma + bytes([2]) * (255 - sigma)
            firsts = slots[0::width].translate(bands)
            # A byte of firsts has one bit set if its slot is occupied and
            # none if not.  A popcount has no data-dependent branch, where
            # firsts.count(0) mispredicts on random occupancy and takes
            # about 2.5 times as long.
            occupied = int.from_bytes(firsts, "little").bit_count()
            above_sigma = 2 in firsts
        check_loaded_table(what, count, capacity, occupied < capacity)
        # A probe skips a length whose count is 0, and word_count sums the
        # counts, so each must equal the table's occupied slots.
        if occupied != count:
            raise IndexFormatError(f"{what}: {occupied} occupied slots, header count {count}")
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
        lo = 0 if compacted else firsts.find(1) * width  # the first occupied slot, or -width
        _check_seed(table, (table.dense if compacted else slots)[lo : lo + width], seed, what)
        return table, offset


class _LongTable:
    """Offset table plus arena for words of length >= beta."""

    __slots__ = ("capacity", "count", "offsets", "arena", "occupancy", "dense")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.count = 0
        self.offsets: array | None = array("I", [EMPTY_OFFSET]) * capacity
        self.arena = bytearray()
        self.occupancy: RankBitVector | None = None
        self.dense: array | None = None

    def contains(self, word, h: int) -> bool:
        t = self.capacity
        s = h % t
        m = len(word)
        arena = self.arena
        if self.offsets is not None:
            offsets = self.offsets
            while True:
                o = offsets[s]
                if o == EMPTY_OFFSET:
                    return False
                if (arena[o] | (arena[o + 1] << 8)) == m and arena[o + 2 : o + 2 + m] == word:
                    return True
                s += 1
                if s == t:
                    s = 0
        occ = self.occupancy
        bits = occ.words
        i = s >> 6
        off = s & 63
        x = bits[i] >> off
        if not x & 1:
            return False
        run = (x ^ (x + 1)).bit_length() - 1  # trailing ones: the run inside word i
        if off + run == 64 or s + run == t:
            run = run_of_ones(bits, t, s, t)
        j = occ.ranks[i] + (bits[i] & ((1 << off) - 1)).bit_count()
        dense = self.dense
        end = j + run
        n = len(dense)
        for o in dense[j:end] if end <= n else dense[j:] + dense[: end - n]:
            if (arena[o] | (arena[o + 1] << 8)) == m and arena[o + 2 : o + 2 + m] == word:
                return True
        return False

    def insert(self, word, h: int) -> bool:
        if self.contains(word, h):
            return False
        offsets = self.offsets
        try:
            s = offsets.index(EMPTY_OFFSET, h % self.capacity)
        except ValueError:  # the run wraps past the last slot
            s = offsets.index(EMPTY_OFFSET)
        o = len(self.arena)
        if o + 2 + len(word) >= EMPTY_OFFSET:
            raise ValidationError("long-word arena exceeds 32-bit offsets")
        self.arena += struct.pack("<H", len(word))
        self.arena += word
        offsets[s] = o
        self.count += 1
        return True

    def compact(self, delta: int) -> None:
        offsets = self.offsets
        flags = bytes(map(EMPTY_OFFSET.__ne__, offsets))
        self.dense = array("I", compress(offsets, flags))
        self.occupancy = RankBitVector.from_flags(flags, delta)
        self.offsets = None

    def to_bytes(self) -> bytes:
        head = struct.pack("<QQ", self.capacity, self.count)
        if self.offsets is not None:
            body = u32_bytes(self.offsets)
        else:
            body = self.occupancy.to_bytes() + u32_bytes(self.dense)
        return head + body + struct.pack("<Q", len(self.arena)) + bytes(self.arena)

    @classmethod
    def from_bytes(cls, buf, offset: int, compacted: bool, delta: int, seed: int):
        capacity, count = struct.unpack_from("<QQ", buf, offset)
        offset += 16
        what = "long-word table"
        table = cls.__new__(cls)
        table.capacity = capacity
        table.count = count
        if compacted:
            table.offsets = None
            table.occupancy, offset = read_occupancy(buf, offset, capacity, count, delta, what)
            table.dense = u32_array(take(buf, offset, 4 * count, what))
            offset += 4 * count
            empty_slot = count < capacity
            stored = table.dense
        else:
            table.offsets = u32_array(take(buf, offset, 4 * capacity, what))
            table.occupancy = None
            table.dense = None
            offset += 4 * capacity
            occupied = capacity - table.offsets.count(EMPTY_OFFSET)
            empty_slot = occupied < capacity
            stored = filter(EMPTY_OFFSET.__ne__, table.offsets)
        check_loaded_table(what, count, capacity, empty_slot)
        # Inserts trust count: one below the occupied slots lets them fill
        # the last empty slot, and then a probe never ends.
        if not compacted and occupied != count:
            raise IndexFormatError(f"{what}: {occupied} occupied slots, header count {count}")
        (arena_len,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        table.arena = arena = bytearray(take(buf, offset, arena_len, what))
        offset += arena_len
        # A probe reads the 2-byte length prefix at each stored offset.
        if max(stored, default=-2) + 2 > arena_len:
            raise IndexFormatError(f"{what}: a word offset points past the "
                                   f"end of its {arena_len}-byte arena")
        o = next(filter(EMPTY_OFFSET.__ne__, table.dense if compacted else table.offsets), None)
        if o is not None:
            _check_seed(table, arena[o + 2 : o + 2 + (arena[o] | (arena[o + 1] << 8))], seed, what)
        return table, offset


class ExactDictionary:
    """Membership structure over the unmodified dictionary words."""

    __slots__ = (
        "alpha",
        "beta",
        "seed",
        "short_tables",
        "long_table",
        "compacted",
    )

    def __init__(self, alpha: Fraction, beta: int, seed: int):
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.short_tables: dict[int, _ShortTable] = {}
        self.long_table = _LongTable(capacity_for(0, alpha))
        self.compacted = False

    @property
    def word_count(self) -> int:
        return sum(t.count for t in self.short_tables.values()) + self.long_table.count

    @property
    def total_length(self) -> int:
        """Bytes in all stored words; a long word's arena entry is its
        2-byte length prefix and its bytes."""
        long = self.long_table
        return (sum(w * t.count for w, t in self.short_tables.items())
                + len(long.arena) - 2 * long.count)

    def contains(self, word, h: int | None = None) -> bool:
        """True iff the word was stored.  h may carry a precomputed hash."""
        m = len(word)
        if m == 0:
            return False
        if h is None:
            h = poly_hash(word, self.seed)
        if m < self.beta:
            table = self.short_tables.get(m)
            return table.contains(word, h) if table is not None else False
        return self.long_table.contains(word, h)

    def probe_for_length(self, length: int):
        """Bound membership probe for candidates of one length, or None.

        None means no stored word can have this length, so a caller
        enumerating candidates of that length may skip them wholesale.
        """
        if length <= 0:
            return None
        if length < self.beta:
            table = self.short_tables.get(length)
            if table is None or table.count == 0:
                return None
            return table.contains
        if self.long_table.count == 0:
            return None
        return self.long_table.contains

    def check_headroom(self, length: int) -> None:
        """Raise TableFullError if one more word of this length will not fit."""
        if length < self.beta:
            table = self.short_tables.get(length)
            if table is None:
                return
            check_headroom(table.count, 1, table.capacity, f"word table (length {length})")
        else:
            check_headroom(self.long_table.count, 1, self.long_table.capacity, "long-word table")

    def insert_word(self, word, h: int | None = None) -> bool:
        """Add one word; returns False if it was already present.

        Only available before compaction.  A length unseen at build time
        gets a small fresh table; tables are never grown, so sustained
        inserts into one length eventually raise TableFullError.
        """
        if self.compacted:
            raise CompactedError("cannot insert into a compacted dictionary")
        word = validate_word(word)
        m = len(word)
        if h is None:
            h = poly_hash(word, self.seed)
        self.check_headroom(m)
        if m < self.beta:
            table = self.short_tables.get(m)
            if table is None:
                table = _ShortTable(m, NEW_TABLE_CAPACITY)
                self.short_tables[m] = table
        else:
            table = self.long_table
        return table.insert(word, h)

    def compact(self, delta: int = 4) -> None:
        """Replace every slot array with occupancy bits plus dense payload."""
        if self.compacted:
            return
        for table in self.short_tables.values():
            table.compact(delta)
        self.long_table.compact(delta)
        self.compacted = True

    def table_report(self) -> list[tuple[str, int, int]]:
        """(name, entries, capacity) per table, for occupancy statistics."""
        rows = [
            (f"words[len={w}]", t.count, t.capacity)
            for w, t in sorted(self.short_tables.items())
        ]
        rows.append(("words[long]", self.long_table.count, self.long_table.capacity))
        return rows

    def to_bytes(self) -> bytes:
        parts = [struct.pack("<B", len(self.short_tables))]
        for width in sorted(self.short_tables):
            parts.append(self.short_tables[width].to_bytes())
        parts.append(self.long_table.to_bytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf, offset: int, alpha: Fraction, beta: int, seed: int,
                   compacted: bool, delta: int, sigma: int):
        """Parse the section at offset; returns (dictionary, end offset).

        sigma is the index's largest stored byte: a short table holding a
        byte above it is rejected.  The long-word arena is not checked.
        """
        d = cls(alpha, beta, seed)
        (n_short,) = struct.unpack_from("<B", buf, offset)
        offset += 1
        min_width = 1
        for _ in range(n_short):
            table, offset = _ShortTable.from_bytes(buf, offset, compacted, delta,
                                                   min_width, beta, seed, sigma)
            d.short_tables[table.width] = table
            min_width = table.width + 1
        d.long_table, offset = _LongTable.from_bytes(buf, offset, compacted, delta, seed)
        d.compacted = compacted
        return d, offset


def build_exact(words, alpha: Fraction, beta: int = 16, seed: int = 1,
                validated: bool = False) -> ExactDictionary:
    """Build the membership structure for a word list.

    Duplicates are dropped; words containing NUL bytes are rejected with a
    diagnostic naming the offending input position.
    """
    if not validated:
        words = validate_words(words)
    d = ExactDictionary(alpha, beta, seed)
    counts: dict[int, int] = {}
    n_long = 0
    for w in words:
        if len(w) < beta:
            counts[len(w)] = counts.get(len(w), 0) + 1
        else:
            n_long += 1
    for width, count in counts.items():
        d.short_tables[width] = _ShortTable(width, capacity_for(count, alpha))
    d.long_table = _LongTable(capacity_for(n_long, alpha))
    for w in words:
        m = len(w)
        h = poly_hash(w, seed)
        table = d.short_tables[m] if m < beta else d.long_table
        table.insert(w, h)
    return d

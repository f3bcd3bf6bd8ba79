"""Build pipeline and bit-exact serialization of the composed index.

File layout (all little-endian):

    offset  size  field
    0       4     magic "ASDI"
    4       1     format version (6)
    5       1     checksum id (2 = crc32 of the body)
    6       1     flags: bit0 signatures, bit1 compacted
    7       1     error level (0, 1 or 2)
    8       2     load factor numerator
    10      2     load factor denominator
    12      1     reserved (0; beta up to version 5)
    13      1     delta (rank sampling interval, in 64-bit words)
    14      1     sigma (alphabet size = largest byte value stored)
    15      1     reserved (0)
    16      4     bucket seed
    20      4     signature seed (written, read back, used by no hash)
    24      8     build rng seed (echo)
    32      8     exact-dictionary section length
    40      8     level-1 store section length (0 if absent)
    48      8     level-2 store section length (0 if absent)
    56      ...   sections, in that order
    end-4   4     crc32 of everything before it

The exact section is the number of word tables (<H), then each of them
by increasing width: <HQQ width, capacity and count, then its occupancy
bits if compacted, then its slots (exact_dict.py).  A store section is
<QQ capacity and entry count, then the same: its occupancy bits if
compacted, then its characters and signatures (subst_store.py).  A
compacted table's occupancy bits follow succinct.py: its capacity gives
their length and the header's delta their sampling, and its arrays hold
its entries instead of its slots.  Nothing else is stored twice: a
store's level comes from its section's position and its flags from the
header, and a store section the header's error level does not declare
is refused, as is a compacted table whose capacity is not the one its
count and the load factor give.

The crc32 trailer only catches accidents: a file that passes it but is
structurally inconsistent is rejected by the checks made while parsing.
A file of versions 1-5 is refused: their signatures, checksums, section
headers or long-word storage differ from this layout, and no code reads
them.

The load factor is kept as a rational so capacity arithmetic is exact and
identical on every platform; building twice from the same words and seed
produces byte-identical files.
"""

from __future__ import annotations

import operator
import os
import random
import struct
import zlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from . import query_engine
from .errors import (
    BadMagicError,
    ChecksumError,
    CompactedError,
    IndexFormatError,
    TruncatedError,
    ValidationError,
    VersionMismatchError,
)
from .exact_dict import ExactDictionary, build_exact
from .hashing import poly_hash, random_seed
from .subst_store import SubstStore, build_store, entries_for
from .util import as_bytes, capacity_for, validate_word, validate_words

MAGIC = b"ASDI"
VERSION = 6
CHECKSUM_ID = 2  # crc32 of the body
_HEADER = struct.Struct("<4sBBBBHHBBBBIIQQQQ")
_TRAILER = struct.Struct("<I")

ALPHA_MIN = Fraction(1, 5)
ALPHA_MAX = Fraction(19, 20)


def _as_fraction(alpha) -> Fraction:
    try:
        f = Fraction(alpha)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"load factor {alpha!r} is not a number: {exc}") from exc
    if isinstance(alpha, float):
        f = f.limit_denominator(1000)
    if not ALPHA_MIN <= f <= ALPHA_MAX:
        raise ValidationError(f"load factor {alpha} outside [{ALPHA_MIN}, {ALPHA_MAX}]")
    if f.numerator > 0xFFFF or f.denominator > 0xFFFF:
        raise ValidationError("load factor needs numerator/denominator below 2**16")
    return f


@dataclass(frozen=True)
class BuildConfig:
    """Everything that determines the built index, bit for bit.

    beta is validated and read by nothing: every word is stored inline
    since format version 6.  It stays for callers that pass it, and it
    takes no part in comparisons.
    """

    errors: int = 1
    alpha: Fraction = Fraction(7, 10)
    use_signatures: bool = True
    compact: bool = False
    beta: int = field(default=16, compare=False)
    delta: int = 4
    rng_seed: int = 1

    def __post_init__(self):
        for name, lo, hi in (("errors", 0, 2), ("beta", 2, 255), ("delta", 1, 255),
                             ("rng_seed", 0, 2**64 - 1)):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ValidationError(f"{name} must be an integer, "
                                      f"not {type(value).__name__}") from None
            if not lo <= value <= hi:
                raise ValidationError(f"{name} must be in [{lo}, {hi}]")
            object.__setattr__(self, name, value)
        for name in ("use_signatures", "compact"):
            value = getattr(self, name)
            if value not in (False, True):
                raise ValidationError(f"{name} must be True or False, not {value!r}")
            object.__setattr__(self, name, bool(value))
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))


def derive_seeds(rng_seed: int) -> tuple[int, int]:
    """Two independent polynomial seeds, deterministic in the build seed.

    The first is the bucket seed every table hashes under.  The second,
    the signature seed, is kept in the index and its file header, but no
    hash uses it: store signatures come from the bucket hash.
    """
    rng = random.Random(rng_seed)
    bucket = random_seed(rng)
    sig = random_seed(rng)
    while sig == bucket:
        sig = random_seed(rng)
    return bucket, sig


class Index:
    """The composed dictionary: exact membership plus 0-2 substitution stores.

    sig_seed is carried into the file header; no hash uses it.
    """

    __slots__ = ("config", "exact", "store1", "store2", "bucket_seed", "sig_seed", "sigma")

    def __init__(self, config: BuildConfig, exact: ExactDictionary,
                 store1: SubstStore | None, store2: SubstStore | None,
                 bucket_seed: int, sig_seed: int, sigma: int):
        self.config = config
        self.exact = exact
        self.store1 = store1
        self.store2 = store2
        self.bucket_seed = bucket_seed
        self.sig_seed = sig_seed
        self.sigma = sigma

    @property
    def errors(self) -> int:
        return self.config.errors

    @property
    def compacted(self) -> bool:
        return self.config.compact

    @property
    def word_count(self) -> int:
        return self.exact.word_count

    @property
    def total_length(self) -> int:
        return self.exact.total_length

    def query(self, pattern, k: int) -> query_engine.QueryResult:
        return query_engine.query(self, pattern, k)

    def contains(self, word) -> bool:
        """True iff the word, bytes-like or a latin-1 str, is stored."""
        return self.exact.contains(as_bytes(word))

    def insert_word(self, word) -> bool:
        """Add a word and all of its store entries; False if already present.

        Checks headroom everywhere before touching anything, so a
        TableFullError leaves the index unchanged.
        """
        if self.compacted:
            raise CompactedError("cannot insert into a compacted index")
        word = validate_word(word)
        h = poly_hash(word, self.exact.seed)
        if self.exact.contains(word, h):
            return False
        m = len(word)
        self.exact.check_headroom(m)
        if self.store1 is not None:
            self.store1.check_headroom(entries_for(m, 1))
        if self.store2 is not None:
            self.store2.check_headroom(entries_for(m, 2))
        self.exact.insert_word(word, h)
        if self.store1 is not None:
            self.store1.insert_entries(word)
        if self.store2 is not None:
            self.store2.insert_entries(word)
        top = max(word)
        if top > self.sigma:
            self.sigma = top
            if self.store1 is not None:
                self.store1.sigma = top
            if self.store2 is not None:
                self.store2.sigma = top
        return True

    def table_report(self) -> list[tuple[str, int, int]]:
        """(table, entries, capacity) rows across all components."""
        rows = self.exact.table_report()
        for store in (self.store1, self.store2):
            if store is not None:
                rows.append((f"store[level={store.level}]", store.entry_count, store.capacity))
        return rows


def build_index(words, config: BuildConfig | None = None, **overrides) -> Index:
    """Build the full index for a word list.

    `words` is an iterable of byte strings; duplicates are dropped and
    invalid words rejected with their input position.  Keyword overrides
    are applied on top of the given (or default) config.
    """
    if config is None:
        config = BuildConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    words = validate_words(words)
    bucket_seed, sig_seed = derive_seeds(config.rng_seed)
    sigma = max((max(w) for w in words), default=0)
    exact = build_exact(words, config.alpha, config.beta, bucket_seed, validated=True)
    store1 = store2 = None
    if config.errors >= 1:
        store1 = build_store(words, 1, config.alpha, config.use_signatures,
                             bucket_seed, sig_seed, sigma, validated=True)
    if config.errors >= 2:
        store2 = build_store(words, 2, config.alpha, config.use_signatures,
                             bucket_seed, sig_seed, sigma, validated=True)
    if config.compact:
        exact.compact(config.delta)
        if store1 is not None:
            store1.compact(config.delta)
        if store2 is not None:
            store2.compact(config.delta)
    return Index(config, exact, store1, store2, bucket_seed, sig_seed, sigma)


def _read_all(source, what: str) -> bytes:
    """The bytes of a bytes-like value, a binary file object or the file
    at a path; ValidationError, naming `what`, for anything else."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source)
    if hasattr(source, "read"):
        data = source.read()
        if not isinstance(data, (bytes, bytearray)):
            raise ValidationError(f"{what} must be opened in binary mode")
        return bytes(data)
    if isinstance(source, (str, os.PathLike)):
        return Path(source).read_bytes()
    raise ValidationError(f"{what} must be a path, bytes-like value or binary file object, "
                          f"not {type(source).__name__}")


def save(index: Index, sink) -> int:
    """Serialize to a path or binary file object; returns bytes written."""
    if not (hasattr(sink, "write") or isinstance(sink, (str, os.PathLike))):
        raise ValidationError(f"index sink must be a path or binary file object, "
                              f"not {type(sink).__name__}")
    cfg = index.config
    exact_bytes = index.exact.to_bytes()
    s1 = index.store1.to_bytes() if index.store1 is not None else b""
    s2 = index.store2.to_bytes() if index.store2 is not None else b""
    flags = (1 if cfg.use_signatures else 0) | (2 if cfg.compact else 0)
    header = _HEADER.pack(
        MAGIC, VERSION, CHECKSUM_ID, flags, cfg.errors,
        cfg.alpha.numerator, cfg.alpha.denominator,
        0, cfg.delta, index.sigma, 0,
        index.bucket_seed, index.sig_seed, cfg.rng_seed,
        len(exact_bytes), len(s1), len(s2),
    )
    body = header + exact_bytes + s1 + s2
    blob = body + _TRAILER.pack(zlib.crc32(body))
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        Path(sink).write_bytes(blob)
    return len(blob)


def load(source) -> Index:
    """Read an index back from a path, bytes, or binary file object."""
    blob = _read_all(source, "index source")
    if len(blob) < _HEADER.size + _TRAILER.size:
        raise TruncatedError(f"file is {len(blob)} bytes, shorter than any valid index")
    (magic, version, checksum_id, flags, errors, num, den, _reserved12, delta, sigma,
     _reserved15, bucket_seed, sig_seed, rng_seed, exact_len, s1_len, s2_len,
     ) = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionMismatchError(f"format version {version}, expected {VERSION}")
    if checksum_id != CHECKSUM_ID:
        raise IndexFormatError(f"unknown checksum id {checksum_id}")
    body_len = _HEADER.size + exact_len + s1_len + s2_len
    expected = body_len + _TRAILER.size
    if len(blob) < expected:
        raise TruncatedError(f"file is {len(blob)} bytes, layout declares {expected}")
    if len(blob) > expected:
        raise IndexFormatError(f"{len(blob) - expected} trailing bytes after checksum")
    (stored_sum,) = _TRAILER.unpack_from(blob, body_len)
    # Sections are parsed from a view, so each is copied once, into its table.
    view = memoryview(blob)
    if zlib.crc32(view[:body_len]) != stored_sum:
        raise ChecksumError("checksum mismatch, file body is corrupt")
    use_signatures = bool(flags & 1)
    compacted = bool(flags & 2)
    try:
        config = BuildConfig(
            errors=errors, alpha=Fraction(num, den), use_signatures=use_signatures,
            compact=compacted, delta=delta, rng_seed=rng_seed,
        )
    except (ValidationError, ZeroDivisionError) as exc:
        raise IndexFormatError(f"invalid header field: {exc}") from exc
    offset = _HEADER.size
    try:
        exact, end = ExactDictionary.from_bytes(
            view, offset, config.alpha, bucket_seed, compacted, delta, sigma
        )
        if end != offset + exact_len:
            raise IndexFormatError("exact-dictionary section length mismatch")
        offset = end
        stores = [None, None]
        for level, length in ((1, s1_len), (2, s2_len)):
            # The level comes from the section's position, so only the
            # sections the error level declares may be there.
            if bool(length) != (errors >= level):
                raise IndexFormatError(f"header declares {errors} errors, but the level-{level} "
                                       f"store is {'present' if length else 'missing'}")
            if length:
                stores[level - 1], end = SubstStore.from_bytes(
                    view, offset, level, use_signatures, compacted, delta, bucket_seed, sigma)
                if end != offset + length:
                    raise IndexFormatError(f"level-{level} store section length mismatch")
                offset = end
    except struct.error as exc:
        raise TruncatedError(f"section parsing ran off the end: {exc}") from exc
    index = Index(config, exact, *stores, bucket_seed, sig_seed, sigma)
    # A compacted index takes no inserts, so each table keeps the capacity
    # its build gave it; the occupancy bits alone would not show a
    # capacity moved within their last word.
    if compacted:
        for name, count, capacity in index.table_report():
            if capacity != capacity_for(count, config.alpha):
                raise IndexFormatError(f"{name}: capacity {capacity} for {count} entries at "
                                       f"load factor {config.alpha}")
    return index


def read_wordlist(source) -> list[bytes]:
    """Load a word list: raw bytes, one word per LF-terminated line.

    Trailing CR is stripped, empty lines are skipped, duplicates are
    dropped (first occurrence wins), and a NUL byte or a line over 65,535
    bytes is an error naming the line.
    """
    data = _read_all(source, "word list source")
    words = []
    seen = set()
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if line.endswith(b"\r"):
            line = line[:-1]
        if not line:
            continue
        validate_word(line, f"line {lineno}")
        if line not in seen:
            seen.add(line)
            words.append(line)
    return words

"""editdict: a compact approximate string dictionary.

Build an index over a word list once, then ask for every stored word
within edit distance k (k = 0, 1 or 2) of a query pattern.  Lookups run on
linear-probing hash tables with incremental polynomial hashing; optional
key signatures of 12 - sigma.bit_length() bits (4 to 11, sigma being the
largest stored byte) filter collisions, and optional bit-vector
compaction shrinks the finished tables to roughly their payload size.
"""

from .baseline import (
    build_partition_index,
    levenshtein,
    oracle_query,
    partition_query,
    partition_stats,
)
from .errors import (
    BadMagicError,
    ChecksumError,
    CompactedError,
    EditDictError,
    IndexFormatError,
    TableFullError,
    TruncatedError,
    UnsupportedQueryError,
    ValidationError,
    VersionMismatchError,
)
from .index_io import BuildConfig, Index, build_index, load, read_wordlist, save
from .query_engine import QueryResult, QueryStats, query
from .subst_store import list_histogram

__version__ = "0.1.0"

__all__ = [
    "BuildConfig",
    "Index",
    "build_index",
    "load",
    "save",
    "read_wordlist",
    "query",
    "QueryResult",
    "QueryStats",
    "levenshtein",
    "oracle_query",
    "build_partition_index",
    "partition_query",
    "partition_stats",
    "list_histogram",
    "EditDictError",
    "ValidationError",
    "TableFullError",
    "CompactedError",
    "UnsupportedQueryError",
    "IndexFormatError",
    "BadMagicError",
    "VersionMismatchError",
    "TruncatedError",
    "ChecksumError",
    "__version__",
]

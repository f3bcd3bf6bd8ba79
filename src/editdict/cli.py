"""Command-line interface.

Subcommands:

    build            build an index file from a word list
    query            run a single query (or one per stdin line)
    bench            latency benchmark over randomly edited dictionary words
    stats            substitution-list size histogram, table occupancy and
                     signature widths
    heuristic-bench  candidate-list sizes of the split-in-half baseline
    verify           compare sampled query results against the reference scan

Exit codes: 0 success, 1 runtime failure (including verify mismatches
and a path that cannot be read or written, such as a directory or an
output in a missing directory), 2 usage error, 3 missing input file, 4
malformed index file.

Randomized commands take --seed; when omitted, the EDITDICT_SEED
environment variable is used, then 1.  Words are treated as raw bytes.
A `query --pattern` is the raw bytes of its argument (os.fsencode), a
`query --stdin` line is read as a word-list line, and plain-text matches
are written as raw bytes, so a pattern finds the word-list line with the
same bytes; --json output decodes words as latin-1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass

from .baseline import build_partition_index, oracle_query_bounded, partition_stats
from .errors import EditDictError, IndexFormatError, UnsupportedQueryError, ValidationError
from .index_io import BuildConfig, Index, build_index, load, read_wordlist, save
from .query_engine import QueryStats, check_k
from .subst_store import list_histogram, signature_bits

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_INDEX = 4


def _decode(word: bytes) -> str:
    return word.decode("latin-1")


# -- randomized query generation ---------------------------------------------

def random_edit_pattern(word, ops: int, k: int, rng: random.Random, alphabet) -> bytes:
    """Apply `ops` random edits to a word, keeping the result queryable at k.

    Each step draws uniformly among the edit kinds that still allow a
    final length greater than k (insertions are always allowed, deletions
    and substitutions only while enough length remains).  Substitutions
    never pick the original character.
    """
    s = bytearray(word)
    n_alpha = len(alphabet)
    for step in range(ops):
        remaining = ops - step - 1
        length = len(s)
        kinds = ["ins"]
        if length >= 1 and (length - 1) + remaining > k:
            kinds.append("del")
        if length >= 1 and n_alpha >= 2 and length + remaining > k:
            kinds.append("sub")
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "ins":
            gap = rng.randrange(length + 1)
            s.insert(gap, alphabet[rng.randrange(n_alpha)])
        elif kind == "del":
            del s[rng.randrange(length)]
        else:
            pos = rng.randrange(length)
            c = alphabet[rng.randrange(n_alpha)]
            while c == s[pos]:
                c = alphabet[rng.randrange(n_alpha)]
            s[pos] = c
    return bytes(s)


def generate_bench_queries(words, k: int, count: int, rng: random.Random,
                           alphabet) -> list[bytes]:
    """Deterministic batch of query patterns derived from dictionary words."""
    out = []
    d = len(words)
    for _ in range(count):
        word = words[rng.randrange(d)]
        n_ops = max(k, k + 1 - len(word))  # enough edits to leave a pattern longer than k
        out.append(random_edit_pattern(word, n_ops, k, rng, alphabet))
    return out


@dataclass
class BenchReport:
    k: int
    queries_per_round: int
    rounds: int
    seed: int
    word_count: int
    total_length: int
    round_means_us: list[float]
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    totals: QueryStats
    queries_with_matches: int
    total_queries: int

    def to_dict(self) -> dict:
        """The fields by name, with the totals' four counters in place of
        `totals`."""
        out = asdict(self)
        out.update(out.pop("totals"))
        return out


def bench(index: Index, words, queries: int = 1000, rounds: int = 20,
          seed: int = 1, k: int | None = None) -> BenchReport:
    """Run the latency benchmark: `rounds` batches of `queries` patterns.

    Patterns are dictionary words with k random edits applied, generated
    deterministically from the seed.  Each query is timed on its own with
    perf_counter_ns.  The report gives each round's mean, the mean of the
    round means, and the nearest-rank p50, p95 and p99 over all queries.
    A count below 1 or an empty word list raises ValidationError.
    """
    for name, count in (("queries", queries), ("rounds", rounds)):
        if not isinstance(count, int) or count < 1:
            raise ValidationError(f"{name} must be an integer of at least 1, not {count!r}")
    if not words:
        raise ValidationError("the benchmark needs at least one word")
    if k is None:
        k = index.errors
    alphabet = sorted({c for w in words for c in w})
    rng = random.Random(seed)
    round_means = []
    times_ns = []
    totals = QueryStats()
    with_matches = 0
    clock = time.perf_counter_ns
    for _ in range(rounds):
        batch = generate_bench_queries(words, k, queries, rng, alphabet)
        results = []
        first = len(times_ns)
        for p in batch:
            start = clock()
            results.append(index.query(p, k))
            times_ns.append(clock() - start)
        round_means.append(sum(times_ns[first:]) / 1e3 / len(batch))
        for r in results:
            st = r.stats
            totals.lists_probed += st.lists_probed
            totals.candidates_generated += st.candidates_generated
            totals.exact_probes += st.exact_probes
            totals.cap_activations += st.cap_activations
            if r.matches:
                with_matches += 1
    mean = sum(round_means) / len(round_means)
    times_ns.sort()
    p50, p95, p99 = (times_ns[math.ceil(len(times_ns) * p / 100) - 1] / 1e3 for p in (50, 95, 99))
    return BenchReport(
        k=k, queries_per_round=queries, rounds=rounds, seed=seed,
        word_count=index.word_count, total_length=index.total_length,
        round_means_us=round_means, mean_us=mean, p50_us=p50, p95_us=p95, p99_us=p99,
        totals=totals,
        queries_with_matches=with_matches, total_queries=queries * rounds,
    )


# -- subcommand implementations ------------------------------------------------

def _sample_words(path) -> list[bytes]:
    """The word list at path, which commands that draw words from it need
    to hold at least one."""
    words = read_wordlist(path)
    if not words:
        raise ValidationError(f"word list {path} holds no words")
    return words


def _cmd_build(args) -> int:
    words = read_wordlist(args.input)
    config = BuildConfig(
        errors=args.errors,
        alpha=args.load_factor,
        use_signatures=args.signatures,
        compact=args.compact,
        delta=args.delta,
        rng_seed=args.seed,
    )
    start = time.perf_counter()
    index = build_index(words, config)
    build_seconds = time.perf_counter() - start
    file_bytes = save(index, args.output)
    if args.json:
        print(json.dumps({
            "words": index.word_count,
            "total_bytes": index.total_length,
            "build_seconds": build_seconds,
            "file_bytes": file_bytes,
            "errors": config.errors,
            "load_factor": str(config.alpha),
            "signatures": config.use_signatures,
            "compact": config.compact,
            "seed": config.rng_seed,
        }))
    else:
        print(f"words (d): {index.word_count}")
        print(f"total bytes (n): {index.total_length}")
        print(f"build seconds: {build_seconds:.3f}")
        print(f"file bytes: {file_bytes}")
    return EXIT_OK


def _cmd_query(args) -> int:
    index = load(args.index)
    out = sys.stdout.buffer
    if args.stdin:
        # Each line is read as a word-list line: raw bytes, one CR stripped.
        # A line that is no valid pattern, or too long for k=2, gets an
        # empty answer line and an error naming it; the lines after it are
        # still answered.  A k the index cannot answer fails every line,
        # so it ends the command before the first.
        check_k(index, args.k)
        status = EXIT_OK
        for number, line in enumerate(sys.stdin.buffer, start=1):
            pattern = line.removesuffix(b"\n").removesuffix(b"\r")
            matches = []
            if pattern:
                try:
                    matches = index.query(pattern, args.k).sorted_matches()
                except (ValidationError, UnsupportedQueryError) as exc:
                    print(f"editdict: line {number}: {exc}", file=sys.stderr)
                    status = EXIT_FAILURE
            out.write(b" ".join(matches) + b"\n")
            out.flush()  # an interactive caller sees each answer at once
        return status
    pattern = os.fsencode(args.pattern)
    result = index.query(pattern, args.k)
    if args.json:
        print(json.dumps({
            "pattern": _decode(pattern),
            "k": args.k,
            "matches": [_decode(w) for w in result.sorted_matches()],
            "stats": result.stats.__dict__,
        }))
    else:
        out.writelines(w + b"\n" for w in result.sorted_matches())
    return EXIT_OK


def _cmd_bench(args) -> int:
    index = load(args.index)
    words = _sample_words(args.input)
    report = bench(index, words, queries=args.queries, rounds=args.rounds,
                   seed=args.seed, k=args.k)
    cfg = index.config
    if args.json:
        payload = report.to_dict()
        payload["config"] = {
            "errors": cfg.errors,
            "load_factor": str(cfg.alpha),
            "signatures": cfg.use_signatures,
            "compact": cfg.compact,
        }
        print(json.dumps(payload))
        return EXIT_OK
    print(f"dictionary: d={report.word_count} n={report.total_length}")
    print(f"config: errors={cfg.errors} alpha={cfg.alpha} "
          f"signatures={'on' if cfg.use_signatures else 'off'} "
          f"compact={'on' if cfg.compact else 'off'}")
    print(f"k={report.k} queries={report.queries_per_round} rounds={report.rounds} "
          f"seed={report.seed}")
    for i, us in enumerate(report.round_means_us, start=1):
        print(f"round {i:2d}: {us:.2f} us/query")
    print(f"mean: {report.mean_us:.2f} us/query")
    print(f"p50: {report.p50_us:.2f}  p95: {report.p95_us:.2f}  p99: {report.p99_us:.2f} us/query")
    t = report.totals
    print(f"lists probed: {t.lists_probed}")
    print(f"candidates generated: {t.candidates_generated}")
    print(f"exact probes: {t.exact_probes}")
    print(f"cap activations: {t.cap_activations}")
    print(f"queries with matches: {report.queries_with_matches}/{report.total_queries}")
    return EXIT_OK


def _occupancy_row(table: str, entries: int, capacity: int, **extra) -> dict:
    """One `stats` occupancy row; a store's row adds its sig_bits."""
    return {"table": table, "entries": entries, "capacity": capacity,
            "load": entries / capacity if capacity else 0.0, **extra}


def _cmd_stats(args) -> int:
    words = read_wordlist(args.input)
    hist = list_histogram(words, args.level)
    payload = {
        "level": args.level,
        "total_entries": hist.total_entries,
        "histogram": [
            {"size": label, "entries": entries, "percent": pct}
            for label, entries, pct in hist.rows()
        ],
    }
    occupancy = None
    if args.index:
        index = load(args.index)
        sig_bits = signature_bits(index.sigma) if index.config.use_signatures else 0
        occupancy = [_occupancy_row(*row) for row in index.exact.table_report()] + [
            _occupancy_row(f"store[level={s.level}]", s.entry_count, s.capacity,
                           sig_bits=sig_bits) for s in index.stores]
        payload["occupancy"] = occupancy
    if args.json:
        print(json.dumps(payload))
        return EXIT_OK
    print(f"substitution-list size histogram (level {args.level}):")
    print(f"{'size':>5}  {'entries':>12}  {'pct':>8}")
    for label, entries, pct in hist.rows():
        print(f"{label:>5}  {entries:>12}  {pct:7.2f}%")
    print(f"total entries: {hist.total_entries}")
    if occupancy is not None:
        print()
        print(f"{'table':<18} {'entries':>12} {'capacity':>12} {'load':>7} {'sig bits':>8}")
        for row in occupancy:
            print(f"{row['table']:<18} {row['entries']:>12} {row['capacity']:>12} "
                  f"{row['load']:7.3f} {row.get('sig_bits', '-'):>8}")
    return EXIT_OK


def _cmd_heuristic_bench(args) -> int:
    words = read_wordlist(args.input)
    pidx = build_partition_index(words)
    avg, worst = partition_stats(pidx, words)
    if args.json:
        print(json.dumps({"words": len(words), "average": avg, "max": worst}))
    else:
        print(f"words: {len(words)}")
        print(f"average candidates: {avg:.2f}")
        print(f"max candidates: {worst}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    index = load(args.index)
    words = _sample_words(args.input)
    rng = random.Random(args.seed)
    alphabet = sorted({c for w in words for c in w})
    mismatches = 0
    for i in range(args.samples):
        word = words[rng.randrange(len(words))]
        ops = rng.randint(0, args.k)
        while len(word) + ops <= args.k:
            ops += 1
        pattern = random_edit_pattern(word, ops, args.k, rng, alphabet)
        got = index.query(pattern, args.k).matches
        want = oracle_query_bounded(words, pattern, args.k)
        if got != want:
            mismatches += 1
            print(f"MISMATCH pattern={_decode(pattern)!r} k={args.k} "
                  f"got={sorted(map(_decode, got))} want={sorted(map(_decode, want))}",
                  file=sys.stderr)
    if mismatches:
        print(f"verify FAILED: {mismatches}/{args.samples} queries differ", file=sys.stderr)
        return EXIT_FAILURE
    print(f"verified {args.samples} queries at k={args.k}: all match the reference scan")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------

def _count(text: str) -> int:
    """argparse type for a count of queries, rounds or samples: an integer
    of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="editdict",
        description="Compact approximate string dictionary (edit distance <= 2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index file from a word list")
    p.add_argument("--input", required=True, help="word list, one word per line")
    p.add_argument("--output", required=True, help="index file to write")
    defaults = BuildConfig()
    p.add_argument("--errors", type=int, default=defaults.errors, choices=(0, 1, 2))
    p.add_argument("--load-factor", default=str(defaults.alpha),
                   help=f"table load factor (default {defaults.alpha})")
    p.add_argument("--signatures", action=argparse.BooleanOptionalAction,
                   default=defaults.use_signatures,
                   help="store key signatures, 4 to 11 bits by sigma (default: on)")
    p.add_argument("--compact", action="store_true", default=defaults.compact,
                   help="bit-compact the finished tables")
    p.add_argument("--delta", type=int, default=defaults.delta,
                   help="rank sampling interval in 64-bit words")
    p.add_argument("--seed", type=int, default=None, help="build seed (env EDITDICT_SEED)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query an index")
    p.add_argument("--index", required=True)
    p.add_argument("--k", type=int, required=True, choices=(0, 1, 2))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="query pattern")
    group.add_argument("--stdin", action="store_true",
                       help="read one pattern per line; print matches per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("bench", help="query latency benchmark")
    p.add_argument("--index", required=True)
    p.add_argument("--input", required=True, help="word list the index was built from")
    p.add_argument("--queries", type=_count, default=1000)
    p.add_argument("--rounds", type=_count, default=20)
    p.add_argument("--k", type=int, default=None, choices=(0, 1, 2))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stats", help="substitution-list histogram and occupancy")
    p.add_argument("--input", required=True, help="word list")
    p.add_argument("--level", type=int, default=1, choices=(1, 2))
    p.add_argument("--index", default=None, help="also report this index's table loads")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("heuristic-bench",
                       help="candidate sizes of the split-in-half baseline")
    p.add_argument("--input", required=True, help="word list")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_heuristic_bench)

    p = sub.add_parser("verify", help="differential check against the reference scan")
    p.add_argument("--index", required=True)
    p.add_argument("--input", required=True, help="word list the index was built from")
    p.add_argument("--k", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--samples", type=_count, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def run_cli(argv=None) -> int:
    """Parse arguments and run a subcommand, mapping errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if "seed" in args and args.seed is None:
            seed = os.environ.get("EDITDICT_SEED", "1")
            try:
                args.seed = int(seed)
            except ValueError:
                raise ValidationError(f"EDITDICT_SEED must be an integer, not {seed!r}") from None
        return args.func(args)
    except IndexFormatError as exc:
        print(f"editdict: bad index file: {exc}", file=sys.stderr)
        return EXIT_BAD_INDEX
    except (EditDictError, ValueError) as exc:
        print(f"editdict: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        # A missing input is exit 3; any other path that cannot be read or
        # written, an output in a missing directory among them, is exit 1.
        if isinstance(exc, FileNotFoundError) and exc.filename != getattr(args, "output", None):
            print(f"editdict: file not found: {exc.filename}", file=sys.stderr)
            return EXIT_MISSING_FILE
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"editdict: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_FAILURE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

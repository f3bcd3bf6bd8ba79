"""Command-line surface: flows, output formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from itertools import product
from types import SimpleNamespace

import pytest

from editdict import BuildConfig, ValidationError, build_index
from editdict.cli import (
    EXIT_BAD_INDEX,
    EXIT_FAILURE,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_USAGE,
    bench,
    generate_bench_queries,
    random_edit_pattern,
    run_cli,
)
from editdict.index_io import load, save
from editdict.query_engine import MAX_K2_PATTERN
from conftest import random_words


@pytest.fixture
def wordfile(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"ALABAMA\nbanana\nbanal\ncabana\n")
    return str(path)


@pytest.fixture
def built(tmp_path, wordfile):
    out = str(tmp_path / "ix.bin")
    rc = run_cli(["build", "--input", wordfile, "--output", out,
                  "--errors", "2", "--load-factor", "0.7", "--signatures",
                  "--seed", "7"])
    assert rc == EXIT_OK
    return out


def test_build_prints_summary(tmp_path, wordfile, capsys):
    out = str(tmp_path / "ix.bin")
    rc = run_cli(["build", "--input", wordfile, "--output", out,
                  "--errors", "1", "--load-factor", "0.7", "--signatures",
                  "--compact", "--seed", "7"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "words (d): 4" in text
    assert "total bytes (n): 24" in text
    assert "build seconds:" in text
    assert "file bytes:" in text


def test_build_json(tmp_path, wordfile, capsys):
    out = str(tmp_path / "ix.bin")
    rc = run_cli(["build", "--input", wordfile, "--output", out, "--json",
                  "--seed", "7"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["words"] == 4
    assert payload["file_bytes"] > 0


def test_build_defaults_are_the_library_defaults(tmp_path, wordfile, capsys):
    # Without flags the CLI used to write an unsigned index, where the
    # library signs by default.
    out = tmp_path / "ix.bin"
    assert run_cli(["build", "--input", wordfile, "--output", str(out), "--seed", "7"]) == EXIT_OK
    assert out.read_bytes()[6] & 1  # header flags, bit 0: signatures
    assert load(str(out)).config == BuildConfig(rng_seed=7)
    unsigned = tmp_path / "unsigned.bin"
    assert run_cli(["build", "--input", wordfile, "--output", str(unsigned),
                    "--no-signatures"]) == EXIT_OK
    assert not unsigned.read_bytes()[6] & 1


def test_query_pattern(built, capsys):
    rc = run_cli(["query", "--index", built, "--k", "1", "--pattern", "ALABAMX"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "ALABAMA"


def test_query_json(built, capsys):
    rc = run_cli(["query", "--index", built, "--k", "2", "--pattern", "banXnX",
                  "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["matches"] == ["banana"]
    assert payload["stats"]["exact_probes"] > 0


def test_query_stdin(built, capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"ALABAMX\nqqqqq\r\n\nbanal"))
    monkeypatch.setattr("sys.stdin", stdin)
    rc = run_cli(["query", "--index", built, "--k", "1", "--stdin"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "ALABAMA"
    assert lines[1] == ""          # no match for qqqqq (its CR is stripped)
    assert lines[2] == ""          # an empty line
    assert "banal" in lines[3].split()
    assert lines[4:] == [""]


def test_query_stdin_answers_past_a_bad_line(tmp_path, capsys, monkeypatch):
    # "x" is no longer than k: it gets an empty answer line and an error
    # naming its line, and the line after it is still answered.
    words = tmp_path / "words.txt"
    words.write_bytes(b"naive\ncafe\n")
    ix = str(tmp_path / "ix.bin")
    assert run_cli(["build", "--input", str(words), "--output", ix, "--errors", "1"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"naive\nx\ncafe\n")))
    rc = run_cli(["query", "--index", ix, "--k", "1", "--stdin"])
    assert rc == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out.split("\n") == ["naive", "", "cafe", ""]
    assert captured.err.startswith("editdict: line 2: ")
    assert "must be smaller" in captured.err
    assert captured.err.count("\n") == 1


def test_query_stdin_answers_past_a_line_too_long_for_k2(tmp_path, capsys, monkeypatch):
    # A line over MAX_K2_PATTERN bytes gets an empty answer line and an
    # error naming it; a k above the index's error level is one error for
    # the whole command.
    long = b"ab" * (MAX_K2_PATTERN // 2) + b"c"
    words = tmp_path / "words.txt"
    words.write_bytes(b"naive\ncafe\n" + long + b"\n")
    ix = str(tmp_path / "ix.bin")
    assert run_cli(["build", "--input", str(words), "--output", ix, "--errors", "2"]) == EXIT_OK
    capsys.readouterr()
    lines = b"naive\n" + long + b"\ncafe\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(lines)))
    rc = run_cli(["query", "--index", ix, "--k", "2", "--stdin"])
    assert rc == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out.split("\n") == ["naive", "", "cafe", ""]
    assert captured.err.startswith("editdict: line 2: ")
    assert f"at most {MAX_K2_PATTERN} bytes" in captured.err
    assert captured.err.count("\n") == 1

    assert run_cli(["build", "--input", str(words), "--output", ix, "--errors", "1"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(lines)))
    rc = run_cli(["query", "--index", ix, "--k", "2", "--stdin"])
    assert rc == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot answer k=2" in captured.err
    assert captured.err.count("\n") == 1


@pytest.fixture
def non_ascii(tmp_path):
    """An index over a UTF-8 word and a latin-1 word, both raw bytes."""
    words = tmp_path / "words.txt"
    words.write_bytes("café\n".encode() + b"na\xefve\n")
    out = str(tmp_path / "ix.bin")
    assert run_cli(["build", "--input", str(words), "--output", out, "--errors", "1"]) == EXIT_OK
    return out


def test_query_pattern_is_its_argument_bytes(non_ascii, capsysbinary):
    # A command-line argument is decoded with os.fsdecode, so os.fsencode
    # gives back its bytes: UTF-8 text, and undecodable bytes too.
    # --json decodes the pattern as latin-1, like the matches.
    for pattern, word in [("café", "café".encode()), (os.fsdecode(b"na\xefve"), b"na\xefve")]:
        argv = ["query", "--index", non_ascii, "--k", "0", "--pattern", pattern]
        assert run_cli(argv) == EXIT_OK
        assert capsysbinary.readouterr().out == word + b"\n"
        assert run_cli(argv + ["--json"]) == EXIT_OK
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["pattern"] == word.decode("latin-1")
        assert payload["matches"] == [word.decode("latin-1")]


def test_query_stdin_reads_raw_bytes(non_ascii):
    r = subprocess.run(
        [sys.executable, "-m", "editdict.cli", "query", "--index", non_ascii, "--k", "1",
         "--stdin"],
        input="café\n".encode() + b"na\xefv\n", capture_output=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "café\n".encode() + b"na\xefve\n"


def test_query_k_not_below_pattern_length_fails(built, capsys):
    rc = run_cli(["query", "--index", built, "--k", "2", "--pattern", "ab"])
    assert rc == EXIT_FAILURE
    assert "must be smaller" in capsys.readouterr().err


def test_unknown_flag_usage_error(capsys):
    assert run_cli(["query", "--frobnicate"]) == EXIT_USAGE


def test_unknown_command_usage_error(capsys):
    assert run_cli(["explode"]) == EXIT_USAGE


def test_missing_input_file(tmp_path, capsys):
    rc = run_cli(["build", "--input", str(tmp_path / "nope.txt"),
                  "--output", str(tmp_path / "o.bin")])
    assert rc == EXIT_MISSING_FILE
    assert "file not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build --output", "build --output nodir/x.bin",
                                     "build --input", "query --index"])
def test_unusable_path_is_one_error_line(tmp_path, built, wordfile, command, capsys):
    # A directory where a file is read or written, or an output in a
    # missing directory: exit 1 with one line naming the path and the
    # reason, not a traceback or the missing-input exit 3.
    missing = str(tmp_path / "nodir" / "x.bin")
    argv = {"build --output": ["build", "--input", wordfile, "--output", str(tmp_path)],
            "build --output nodir/x.bin": ["build", "--input", wordfile, "--output", missing],
            "build --input": ["build", "--input", str(tmp_path), "--output", built],
            "query --index": ["query", "--index", str(tmp_path), "--k", "1", "--pattern", "x"]}
    assert run_cli(argv[command]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    path = missing if "nodir" in command else tmp_path
    assert err.startswith(f"editdict: {path}: ") and "directory" in err


def test_broken_pipe_while_answering_exits_ok(built, monkeypatch):
    class ClosedPipe:
        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

        writelines = write

    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=ClosedPipe()))
    assert run_cli(["query", "--index", built, "--k", "1", "--pattern", "banana"]) == EXIT_OK


def test_malformed_index(tmp_path, wordfile, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNK" * 20)
    rc = run_cli(["query", "--index", str(bad), "--k", "1", "--pattern", "x"])
    assert rc == EXIT_BAD_INDEX
    assert "bad index file" in capsys.readouterr().err


def test_old_format_version_is_bad_index(built, capsys):
    with open(built, "r+b") as f:
        f.seek(4)
        f.write(bytes([6]))  # the version byte
    rc = run_cli(["query", "--index", built, "--k", "1", "--pattern", "banana"])
    assert rc == EXIT_BAD_INDEX
    assert "format version 6, expected 7" in capsys.readouterr().err


def test_verify_passes(built, wordfile, capsys):
    rc = run_cli(["verify", "--index", built, "--input", wordfile,
                  "--k", "2", "--samples", "60", "--seed", "7"])
    assert rc == EXIT_OK
    assert "all match" in capsys.readouterr().out


def test_verify_detects_wrong_index(tmp_path, wordfile, capsys):
    # Index over different words than --input: sampled sets must differ.
    other = tmp_path / "other.bin"
    save(build_index([b"zzzz", b"yyyy", b"xxxx"], BuildConfig(errors=1, rng_seed=3)),
         other)
    rc = run_cli(["verify", "--index", str(other), "--input", wordfile,
                  "--k", "1", "--samples", "40", "--seed", "7"])
    assert rc == EXIT_FAILURE
    assert "MISMATCH" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, wordfile, monkeypatch, capsys):
    out1, out2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    monkeypatch.setenv("EDITDICT_SEED", "99")
    assert run_cli(["build", "--input", wordfile, "--output", out1]) == EXIT_OK
    assert run_cli(["build", "--input", wordfile, "--output", out2,
                    "--seed", "99"]) == EXIT_OK
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    capsys.readouterr()
    monkeypatch.setenv("EDITDICT_SEED", "abc")
    assert run_cli(["build", "--input", wordfile, "--output", out1]) == EXIT_FAILURE
    assert capsys.readouterr().err == "editdict: EDITDICT_SEED must be an integer, not 'abc'\n"


def test_stats_output(built, wordfile, capsys):
    rc = run_cli(["stats", "--input", wordfile, "--level", "1", "--index", built])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "histogram" in text
    assert "total entries: 24" in text
    assert "store[level=1]" in text


@pytest.mark.parametrize("errors", [0, 1, 2])
@pytest.mark.parametrize("signatures", [True, False])
def test_stats_reports_signature_width(tmp_path, wordfile, signatures, errors, capsys):
    # The words' largest byte is "n" (110, 7 bits): a signed store keeps a
    # nibble plus the one bit above each character, 5 bits.
    out = str(tmp_path / "ix.bin")
    flag = ["--signatures"] if signatures else ["--no-signatures"]
    assert run_cli(["build", "--input", wordfile, "--output", out, "--errors", str(errors),
                    *flag, "--seed", "7"]) == EXIT_OK
    capsys.readouterr()
    assert run_cli(["stats", "--input", wordfile, "--index", out, "--json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["occupancy"]
    want = 5 if signatures else 0
    # The word tables first, with no sig_bits, then one row per store level.
    words = [row for row in rows if row["table"].startswith("words[len=")]
    assert words and all("sig_bits" not in row for row in words)
    assert [(row["table"], row["sig_bits"]) for row in rows[len(words):]] == [
        (f"store[level={level}]", want) for level in range(1, errors + 1)]
    assert run_cli(["stats", "--input", wordfile, "--index", out]) == EXIT_OK
    text = capsys.readouterr().out
    assert "sig bits" in text
    if errors:
        assert f"store[level={errors}]" in text and text.rstrip().endswith(f" {want}")
    else:
        assert "store[" not in text and text.rstrip().endswith(" -")


def test_stats_json_percentages(built, wordfile, capsys):
    rc = run_cli(["stats", "--input", wordfile, "--level", "2", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    total_pct = sum(row["percent"] for row in payload["histogram"])
    assert abs(total_pct - 100.0) < 0.01


def test_heuristic_bench_binary_worst_case(tmp_path, capsys):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"".join(bytes(p) + b"\n" for p in product(b"01", repeat=8)))
    rc = run_cli(["heuristic-bench", "--input", str(path), "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"words": 256, "average": 32.0, "max": 32}


def test_bench_report_shape(built, wordfile, capsys):
    rc = run_cli(["bench", "--index", built, "--input", wordfile,
                  "--queries", "5", "--rounds", "2", "--seed", "3", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["rounds"] == 2
    assert len(payload["round_means_us"]) == 2
    assert payload["queries_with_matches"] == payload["total_queries"] == 10
    assert payload["mean_us"] > 0
    assert 0 < payload["p50_us"] <= payload["p95_us"] <= payload["p99_us"]
    # Nearest rank over 10 queries: p95 and p99 are both the slowest one,
    # which is above the mean unless every query took the same time.
    assert payload["p99_us"] == payload["p95_us"] >= payload["mean_us"]
    rc = run_cli(["bench", "--index", built, "--input", wordfile,
                  "--queries", "5", "--rounds", "2", "--seed", "3"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "mean: " in text
    assert "p50: " in text and "p95: " in text and "p99: " in text


def test_bench_single_query(built, wordfile, capsys):
    rc = run_cli(["bench", "--index", built, "--input", wordfile,
                  "--queries", "1", "--rounds", "1", "--k", "1", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["round_means_us"]) == 1


def test_bench_generation_deterministic(rng):
    import random
    words = random_words(rng, 50, 3, 9)
    alphabet = sorted({c for w in words for c in w})
    a = generate_bench_queries(words, 2, 40, random.Random(5), alphabet)
    b = generate_bench_queries(words, 2, 40, random.Random(5), alphabet)
    assert a == b
    assert all(len(p) > 2 for p in a)


def test_bench_queries_stay_within_distance(rng):
    # Every generated query keeps its source word within distance k, so a
    # bench query can never come back empty.
    import random
    words = random_words(rng, 60, 1, 8)
    ix = build_index(words, BuildConfig(errors=2, rng_seed=12))
    report = bench(ix, words, queries=50, rounds=2, seed=4, k=2)
    assert report.queries_with_matches == report.total_queries


def test_random_edit_pattern_respects_k():
    import random
    r = random.Random(1)
    alphabet = [97, 98]
    for _ in range(300):
        pat = random_edit_pattern(b"a", 2, 2, r, alphabet)
        assert len(pat) > 2
    for _ in range(300):
        pat = random_edit_pattern(b"ab", 1, 1, r, alphabet)
        assert len(pat) > 1


def test_console_entry_point(tmp_path, wordfile):
    out = str(tmp_path / "ix.bin")
    r = subprocess.run(
        [sys.executable, "-m", "editdict.cli", "build", "--input", wordfile,
         "--output", out, "--errors", "1", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    r = subprocess.run(
        [sys.executable, "-m", "editdict.cli", "query", "--index", out,
         "--k", "1", "--pattern", "banXna"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == "banana"


def test_pattern_shorter_than_k_fails_cleanly(built, capsys):
    rc = run_cli(["query", "--index", built, "--k", "2", "--pattern", "ab"])
    assert rc == EXIT_FAILURE
    assert "smaller than the pattern length" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--queries", "0"],
    ["bench", "--rounds", "-1"],
    ["bench", "--queries", "x"],
    ["verify", "--k", "1", "--samples", "-3"],
    ["verify", "--k", "1", "--samples", "0"],
])
def test_counts_below_one_are_usage_errors(built, wordfile, argv, capsys):
    rc = run_cli(argv[:1] + ["--index", built, "--input", wordfile] + argv[1:])
    assert rc == EXIT_USAGE
    assert "must be an integer of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("queries, rounds", [(0, 1), (1, 0), (-2, 3), (1.5, 1)])
def test_bench_rejects_a_count_below_one(queries, rounds):
    ix = build_index([b"abc", b"abd"], BuildConfig(errors=1, rng_seed=1))
    with pytest.raises(ValidationError, match="at least 1"):
        bench(ix, [b"abc", b"abd"], queries=queries, rounds=rounds)


@pytest.mark.parametrize("command", [["bench"], ["verify", "--k", "1"]])
def test_empty_word_list_is_named(built, tmp_path, command, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"\n\n")
    rc = run_cli(command[:1] + ["--index", built, "--input", str(empty)] + command[1:])
    assert rc == EXIT_FAILURE
    assert f"word list {empty} holds no words" in capsys.readouterr().err

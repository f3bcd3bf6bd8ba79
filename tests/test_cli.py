"""Command-line surface: flows, output formats, exit codes, determinism."""

import io
import json
import subprocess
import sys
from itertools import product

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
    monkeypatch.setattr("sys.stdin", io.StringIO("ALABAMX\nqqqqq\nbanal\n"))
    rc = run_cli(["query", "--index", built, "--k", "1", "--stdin"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "ALABAMA"
    assert lines[1] == ""          # no match for qqqqq
    assert "banal" in lines[2].split()


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


def test_malformed_index(tmp_path, wordfile, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNK" * 20)
    rc = run_cli(["query", "--index", str(bad), "--k", "1", "--pattern", "x"])
    assert rc == EXIT_BAD_INDEX
    assert "bad index file" in capsys.readouterr().err


def test_old_format_version_is_bad_index(built, capsys):
    with open(built, "r+b") as f:
        f.seek(4)
        f.write(bytes([5]))  # the version byte
    rc = run_cli(["query", "--index", built, "--k", "1", "--pattern", "banana"])
    assert rc == EXIT_BAD_INDEX
    assert "format version 5, expected 6" in capsys.readouterr().err


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


def test_env_seed_fallback(tmp_path, wordfile, monkeypatch):
    out1, out2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    monkeypatch.setenv("EDITDICT_SEED", "99")
    assert run_cli(["build", "--input", wordfile, "--output", out1]) == EXIT_OK
    assert run_cli(["build", "--input", wordfile, "--output", out2,
                    "--seed", "99"]) == EXIT_OK
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_stats_output(built, wordfile, capsys):
    rc = run_cli(["stats", "--input", wordfile, "--level", "1", "--index", built])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "histogram" in text
    assert "total entries: 24" in text
    assert "store[level=1]" in text


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
    assert report.nonempty == report.total_queries


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

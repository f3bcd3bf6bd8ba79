"""The benchmark's own test, at tiny sizes.

Every workload runs in both modes and reports exactly the metrics that
BENCHMARK.json names, with their units, and the counts that describe a
run's work repeat exactly across two runs with one seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.02
SEED = 3
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Per-query work counts of the traced run, which must repeat exactly.
COUNT_METRICS = (
    "subst_store.scans_per_query",
    "subst_store.cap_share",
    "query_engine.candidates_per_query",
    "exact_dict.probes_per_query",
    "query_engine.matches_per_query",
    "succinct.rank1_per_query",
)


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_repeats(name):
    plain = [run.run(name, SEED, 0.2, trace=False, scale=SCALE) for _ in range(2)]
    traced = [run.run(name, SEED, 0.2, trace=True, scale=SCALE) for _ in range(2)]
    for result in plain + traced:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(plain[0]["metrics"]) == want
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(traced[0]["metrics"]) == want

    a, b = plain
    assert a["metrics"]["file_bytes_per_n"] == b["metrics"]["file_bytes_per_n"]
    assert a["details"]["index_sha256"] == b["details"]["index_sha256"]
    assert a["details"]["input_sha256"] == b["details"]["input_sha256"]
    a, b = traced
    for metric in COUNT_METRICS:
        for k in (1, 2):
            key = f"{metric}.k{k}"
            assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key
    assert a["details"]["index_sha256"] == plain[0]["details"]["index_sha256"]
    assert Path(run.ROOT / a["details"]["spans"]["value"]).is_file()


def test_refuses_to_run_without_library(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.run("rand26-e2", SEED, 0.2, trace=False, scale=SCALE)
    assert exc.value.code == 2

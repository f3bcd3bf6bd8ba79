#!/usr/bin/env python3
"""The editdict benchmark.

    python3 perfbench/run.py --workload rand26-e2 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy.  Each run generates its workload
from --seed (see workloads.py), builds the index in fresh child
processes, saves and loads it, then drives the loaded index with a
closed loop from this single thread: one query at a time, each issued
after the previous one returned, each timed on its own with
time.perf_counter_ns.  Every answer is checked outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run
that wraps library entry points (spans.py) and reports per-layer
metrics; its timings carry the wrappers' overhead, so end-to-end numbers
never come from it.  Human-readable lines go first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, and the spans of a traced run, are
written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

LOAD_EVERY_NS = 250_000_000  # a load is timed this often during the passes
WARMUP_QUERIES = 20    # fill caches before timing; checked, not timed
QUERIES_PER_K = 200    # the first of the stream, in both modes; few, so each is timed often
ORACLE_PER_K = 2       # first queries of each k re-checked by the linear-scan oracle
CHILD_TIMEOUT_S = 150
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")  # the last line of output


def _import_library():
    """Import editdict from ./src of this checkout; exit 2 if it is not there."""
    if not (SRC / "editdict" / "__init__.py").is_file():
        print(f"error: no editdict sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import editdict

    if Path(editdict.__file__).resolve().parent != (SRC / "editdict").resolve():
        print(f"error: editdict imported from {editdict.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return editdict


def _config(editdict, workload, seed: int):
    return editdict.BuildConfig(errors=workload.errors, alpha="7/10", use_signatures=True,
                                compact=workload.compact, rng_seed=seed % 2**64)


def _scaled(count: int, scale: float) -> int:
    """Query counts shrink with the corpus only in the benchmark's own test."""
    return count if scale >= 1 else max(20, round(count * scale))


def _percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tally:
    """Operations attempted and failed, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED: {what}", file=sys.stderr)
        return ok


# -- building in a fresh process ----------------------------------------------

def _encode_words(build_words, insert_words) -> bytes:
    # Words never contain byte 0 and are never empty, so b"\0" separates
    # words and b"\0\0" separates the two lists.
    return b"\0".join(build_words) + b"\0\0" + b"\0".join(insert_words)


def _decode_words(data: bytes):
    build, insert = data.split(b"\0\0", 1)
    return build.split(b"\0"), (insert.split(b"\0") if insert else [])


def _peak_rss_bytes() -> int:
    """Peak resident set of this process image.

    VmHWM restarts at exec.  getrusage's ru_maxrss does not: a child
    starts with its parent's peak, which hides the build's own growth.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def child_build(args) -> None:
    """Child process: build, insert and save; report timings, then the index bytes."""
    editdict = _import_library()
    from workloads import WORKLOADS

    build_words, insert_words = _decode_words(sys.stdin.buffer.read())
    cfg = _config(editdict, WORKLOADS[args.workload], args.seed)
    rss0 = _peak_rss_bytes()
    t0 = time.perf_counter_ns()
    index = editdict.build_index(build_words, cfg)
    t1 = time.perf_counter_ns()
    rss1 = _peak_rss_bytes()
    insert_ns = []
    inserted = 0
    for w in insert_words:
        s = time.perf_counter_ns()
        new = index.insert_word(w)
        insert_ns.append(time.perf_counter_ns() - s)
        inserted += new is True
    sink = io.BytesIO()
    editdict.save(index, sink)
    head = {"setup_s": (t1 - t0) / 1e9, "rss_growth_bytes": rss1 - rss0,
            "insert_ns": insert_ns, "inserted": inserted}
    out = sys.stdout.buffer
    out.write(json.dumps(head).encode() + b"\n" + sink.getvalue())
    out.flush()


def build_in_child(inputs):
    """Run child_build in a fresh interpreter; returns (report, index bytes)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child-build",
           "--workload", inputs.workload.name, "--seed", str(inputs.seed)]
    proc = subprocess.run(cmd, input=_encode_words(inputs.build_words, inputs.insert_words),
                          capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"build child exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    head, blob = proc.stdout.split(b"\n", 1)
    return json.loads(head), blob


# -- correctness --------------------------------------------------------------

def guarded(tally: Tally, what: str, fn, *args):
    """fn(*args); if it raises, the failure is counted and None returned."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        tally.op(False, f"{what} raised")
        return None


def warm_up(editdict, index, inputs, tally: Tally) -> None:
    """Fill caches with a separate stream; checked, not timed."""
    from workloads import query_stream

    warm = query_stream(inputs, "warmup")
    for _ in range(WARMUP_QUERIES):
        k, pattern, source = next(warm)
        result = guarded(tally, f"k={k} {pattern!r}", index.query, pattern, k)
        if result is not None:
            check_query(editdict, tally, k, pattern, source, result.matches)


def check_query(editdict, tally: Tally, k: int, pattern: bytes, source: bytes, matches) -> bool:
    """The source word is found and every match is within distance k."""
    if source not in matches:
        return tally.op(False, f"k={k} {pattern!r}: source {source!r} missing")
    far = [w for w in matches if editdict.levenshtein(w, pattern) > k]
    return tally.op(not far, f"k={k} {pattern!r}: {far[:3]!r} farther than k")


def check_oracle(editdict, tally: Tally, words, sample) -> None:
    """Matches of each sampled (k, pattern) equal the linear-scan oracle's."""
    from editdict.baseline import oracle_query_bounded

    for k, pattern, matches in sample:
        expected = oracle_query_bounded(words, pattern, k)
        tally.op(matches == expected,
                 f"k={k} {pattern!r}: oracle differs by {sorted(matches ^ expected)[:3]!r}")


# -- the untraced run ---------------------------------------------------------

def run_untraced(editdict, inputs, seconds: float, scale: float, tally: Tally):
    """Builds in fresh processes, interleaved with timed query passes.

    The same query set is timed in repeated passes and each query keeps
    its fastest pass.  On the 2-vCPU VM it was tuned on, speed wanders
    between levels up to ~1.6x apart that last from seconds to minutes;
    spreading the passes over the run, between the builds, and keeping
    each query's fastest is what repeats best from run to run.  The
    passes of one run take `seconds` in total, spread over the gaps
    after the builds.  `setup_s` is likewise the fastest build.
    """
    from workloads import query_stream

    wl = inputs.workload
    stream = query_stream(inputs)
    queries = [next(stream) for _ in range(_scaled(QUERIES_PER_K, scale) * len(wl.ks))]
    best = [math.inf] * len(queries)
    first = [None] * len(queries)
    load_ns = []
    next_load = 0

    def timed_pass(index, blob):
        nonlocal next_load
        for i, (k, pattern, source) in enumerate(queries):
            if time.perf_counter_ns() >= next_load:
                t0 = time.perf_counter_ns()
                editdict.load(blob)
                t1 = time.perf_counter_ns()
                load_ns.append(t1 - t0)
                next_load = t1 + LOAD_EVERY_NS
            t0 = time.perf_counter_ns()
            try:
                result = index.query(pattern, k)
            except Exception:
                traceback.print_exc()
                tally.op(False, f"k={k} {pattern!r} raised")
                continue
            t = time.perf_counter_ns() - t0
            if t < best[i]:
                best[i] = t
            if first[i] is None:
                first[i] = result
                check_query(editdict, tally, k, pattern, source, result.matches)
            else:
                tally.op(result.matches == first[i].matches,
                         f"k={k} {pattern!r}: answer changed between passes")

    reports = []
    blob = None
    passes = 0
    pass_s = 0.0
    for b in range(wl.builds):
        try:
            report, built = build_in_child(inputs)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            tally.op(False, f"build: {exc}")
            continue
        tally.op(True)
        reports.append(report)
        for i in range(len(inputs.insert_words)):
            tally.op(i < report["inserted"], "insert_word returned False for a new word")
        if blob is not None:
            tally.op(built == blob, "two builds of the same inputs differ")
        else:
            blob = built
            tracemalloc.start()
            index = editdict.load(blob)
            heap_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            for w in inputs.insert_words:
                tally.op(index.contains(w), f"inserted word {w!r} not found after load")
            warm_up(editdict, index, inputs, tally)
        while passes == 0 or pass_s < seconds * (b + 1) / wl.builds:
            t0 = time.perf_counter_ns()
            timed_pass(index, blob)
            passes += 1
            pass_s += (time.perf_counter_ns() - t0) / 1e9
    if blob is None:
        raise RuntimeError("no build succeeded")
    answered = {k: [i for i, q in enumerate(queries) if q[0] == k and first[i] is not None]
                for k in wl.ks}
    check_oracle(editdict, tally, inputs.all_words,
                 [(k, queries[i][1], first[i].matches)
                  for k, mine in answered.items() for i in mine[:ORACLE_PER_K]])

    n_build = sum(map(len, inputs.build_words))
    n = inputs.n
    kmax = max(wl.ks)
    metrics = {
        "setup_s": (min(r["setup_s"] for r in reports), "s"),
        "load_s": (min(load_ns) / 1e9, "s"),
        "file_bytes_per_n": (len(blob) / n, "B/n"),
        "heap_bytes_per_n": (heap_bytes / n, "B/n"),
        "build_peak_rss_bytes_per_n": (statistics.median(r["rss_growth_bytes"] for r in reports) / n_build, "B/n"),
    }
    extra = {"setup_median_s": (statistics.median(r["setup_s"] for r in reports), "s"),
             "builds": (len(reports), "count"), "passes": (passes, "count")}
    for k, mine in answered.items():
        xs = sorted(best[i] for i in mine)
        p50, p95 = _percentile(xs, 0.50) / 1e3, _percentile(xs, 0.95) / 1e3
        extra[f"k{k}_p50_us"] = (p50, "us")
        extra[f"k{k}_p95_us"] = (p95, "us")
        extra[f"k{k}_samples"] = (len(xs), "count")
        totals = [sum(col) for col in zip(*(first[i].stats.as_tuple() for i in mine))]
        totals.append(sum(len(first[i].matches) for i in mine))
        for name, total in zip(("scans", "candidates", "probes", "caps", "matches"), totals):
            extra[f"k{k}_{name}_per_query"] = (total / len(xs), "count")
        if k == 1:
            metrics["k1_p50_us"] = (p50, "us")
        if k == kmax:
            metrics["kmax_p50_us"] = (p50, "us")
    done = [t for t in best if t < math.inf]
    extra["queries_per_s"] = (len(done) / (sum(done) / 1e9), "1/s")
    if inputs.insert_words:
        ins = sorted(map(min, zip(*(r["insert_ns"] for r in reports))))
        extra["insert_p50_us"] = (_percentile(ins, 0.50) / 1e3, "us")
        extra["insert_p99_us"] = (_percentile(ins, 0.99) / 1e3, "us")
        extra["insert_samples"] = (len(ins), "count")
    extra["index_sha256"] = (hashlib.sha256(blob).hexdigest(), "sha256")
    return metrics, extra


# -- the traced run -----------------------------------------------------------

def staged_build(editdict, inputs, timings: dict):
    """build_index's steps, in its order, each timed on its own."""
    from editdict.exact_dict import build_exact
    from editdict.index_io import Index, derive_seeds
    from editdict.subst_store import build_store
    from editdict.util import validate_words

    cfg = _config(editdict, inputs.workload, inputs.seed)

    def timed(name, fn, *args, **kw):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kw)
        timings[name] = timings.get(name, 0.0) + (time.perf_counter_ns() - t0) / 1e9
        return out

    words = timed("util.validate_s", validate_words, inputs.build_words)
    bucket_seed, sig_seed = derive_seeds(cfg.rng_seed)
    sigma = max((max(w) for w in words), default=0)
    exact = timed("exact_dict.build_s", build_exact, words, cfg.alpha, cfg.beta,
                  bucket_seed, validated=True)
    stores = {}
    for level in (1, 2):
        stores[level] = None
        if cfg.errors >= level:
            stores[level] = timed(f"subst_store.build_s.level{level}", build_store, words, level,
                                  cfg.alpha, cfg.use_signatures, bucket_seed, sig_seed, sigma,
                                  validated=True)
        else:
            timings[f"subst_store.build_s.level{level}"] = 0.0
    timings["exact_dict.compact_s"] = timings["subst_store.compact_s"] = 0.0
    if cfg.compact:
        timed("exact_dict.compact_s", exact.compact, cfg.delta)
        for store in stores.values():
            if store is not None:
                timed("subst_store.compact_s", store.compact, cfg.delta)
    return Index(cfg, exact, stores[1], stores[2], bucket_seed, sig_seed, sigma)


def run_traced(editdict, inputs, scale: float, tally: Tally, spans_path: Path):
    import spans as sp
    from workloads import query_stream

    wl = inputs.workload
    tracer = sp.Tracer()
    layer = {}
    index = staged_build(editdict, inputs, layer)
    _, reference = build_in_child(inputs)

    op = 0
    insert_ops = []
    with tracer.installed("insert"):
        for w in inputs.insert_words:
            new = guarded(tally, f"insert_word({w!r})",
                          tracer.operation, op, "index.insert_word", index.insert_word, w)
            if new is not None:
                tally.op(new is True, f"insert_word returned False for {w!r}")
            insert_ops.append(op)
            op += 1
    t0 = time.perf_counter_ns()
    sink = io.BytesIO()
    editdict.save(index, sink)
    layer["index_io.save_s"] = (time.perf_counter_ns() - t0) / 1e9
    blob = sink.getvalue()
    tally.op(blob == reference, "staged build differs from build_index")

    with tracer.installed("load"):
        load_op = op
        index = tracer.operation(op, "index_io.load", editdict.load, blob)
        op += 1
    for w in inputs.insert_words:
        tally.op(index.contains(w), f"inserted word {w!r} not found after load")

    warm_up(editdict, index, inputs, tally)
    stream = query_stream(inputs)
    queries = [next(stream) for _ in range(_scaled(QUERIES_PER_K, scale) * len(wl.ks))]
    untraced_ns = {k: 0 for k in wl.ks}
    plain_results = []
    for k, pattern, _ in queries:
        t0 = time.perf_counter_ns()
        result = guarded(tally, f"k={k} {pattern!r}", index.query, pattern, k)
        untraced_ns[k] += time.perf_counter_ns() - t0
        plain_results.append(result)
    query_ops = {k: [] for k in wl.ks}
    traced_results = []
    with tracer.installed("query"):
        for k, pattern, _ in queries:
            traced_results.append(guarded(tally, f"traced k={k} {pattern!r}", tracer.operation,
                                          op, "query_engine.query", index.query, pattern, k))
            query_ops[k].append(op)
            op += 1
    for (k, pattern, source), a, b in zip(queries, plain_results, traced_results):
        if a is not None and b is not None and check_query(editdict, tally, k, pattern, source, b.matches):
            tally.op(a.matches == b.matches and a.stats == b.stats,
                     f"k={k} {pattern!r}: traced and untraced answers differ")
    check_oracle(editdict, tally, inputs.all_words,
                 [(k, p, r.matches) for (k, p, _), r in
                  zip(queries[: ORACLE_PER_K * len(wl.ks)], traced_results) if r is not None])

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    layer.update(layer_metrics(tracer, index.sigma, queries, traced_results, query_ops,
                               untraced_ns, insert_ops, load_op))
    metrics = {name: (value, _layer_unit(name)) for name, value in layer.items()}
    return metrics, {"spans": (str(spans_path.relative_to(ROOT)), "path"),
                     "span_count": (len(tracer), "count"),
                     "index_sha256": (hashlib.sha256(blob).hexdigest(), "sha256")}


def _layer_unit(name: str) -> str:
    base = name.split(".")[1]
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_share", "ratio")):
        if base.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tracer, sigma, queries, results, query_ops, untraced_ns, insert_ops, load_op):
    """Per-layer numbers from the spans; per-query ones carry a .k1/.k2 suffix."""
    import spans as sp

    cols = tracer.columns()
    own = tracer.self_times(cols)
    parent, span_name, info_col = cols["parent"], cols["name"], cols["info"]
    names = [tracer.names[n] for n in span_name]
    dur = array("q", (e - s for s, e in zip(cols["start_ns"], cols["end_ns"])))
    by_op: dict[int, list[int]] = {}
    for sid, o in enumerate(cols["op"]):
        by_op.setdefault(o, []).append(sid)

    out = {}
    # Insert phase: exact_dict spans, and the rest of Index.insert_word.
    ex = rest = 0
    for o in insert_ops:
        for sid in by_op.get(o, ()):
            if parent[sid] < 0:
                rest += dur[sid]
            elif sp.LAYER_OF[names[sid]] == "exact_dict":
                ex += own[sid]
    n_ins = max(1, len(insert_ops))
    out["exact_dict.insert_us"] = ex / n_ins / 1e3
    out["subst_store.insert_us"] = (rest - ex) / n_ins / 1e3
    # Load phase: parse spans and load's own remainder.
    parse = {"exact_dict": 0, "subst_store": 0}
    for sid in by_op.get(load_op, ()):
        if parent[sid] < 0:
            out["index_io.load_self_s"] = own[sid] / 1e9
        else:
            parse[sp.LAYER_OF[names[sid]]] += own[sid]
    out["exact_dict.parse_s"] = parse["exact_dict"] / 1e9
    out["subst_store.parse_s"] = parse["subst_store"] / 1e9

    by_k = {}
    for (k, _, _), r in zip(queries, results):
        if r is not None:
            by_k.setdefault(k, []).append(r)
    for k in (1, 2):
        ops = query_ops.get(k, [])
        nq = len(ops)
        self_ns = {"query_engine": 0, "subst_store": 0, "succinct": 0, "exact_dict": 0, "hashing": 0}
        scans = empty = capped = chars = probes = hits = ranks = 0
        traced_ns = 0
        for o in ops:
            for sid in by_op.get(o, ()):
                name = names[sid]
                if parent[sid] < 0:
                    self_ns["query_engine"] += own[sid]
                    traced_ns += dur[sid]
                    continue
                self_ns[sp.LAYER_OF[name]] += own[sid]
                info = info_col[sid]
                if name == sp.SCAN:
                    scans += 1
                    empty += info == 0
                    capped += info < 0
                    chars += sigma if info < 0 else info
                elif name == sp.PROBE:
                    probes += 1
                    hits += info
                elif name == sp.RANK:
                    ranks += 1
        rs = by_k.get(k, [])
        stats = [sum(col) for col in zip(*(r.stats.as_tuple() for r in rs))] or [0, 0, 0, 0]
        if (scans, probes, capped) != (stats[0], stats[2], stats[3]):
            print(f"warning: k={k} spans saw {scans} scans, {probes} probes, {capped} caps; "
                  f"QueryStats counted {stats[0]}, {stats[2]}, {stats[3]}", file=sys.stderr)
        per_q = 1 / nq if nq else 0.0
        sfx = f".k{k}"
        out["subst_store.scan_us" + sfx] = self_ns["subst_store"] * per_q / 1e3
        out["subst_store.scans_per_query" + sfx] = scans * per_q
        out["subst_store.empty_share" + sfx] = empty / scans if scans else 0.0
        out["subst_store.cap_share" + sfx] = capped / scans if scans else 0.0
        out["subst_store.chars_per_scan" + sfx] = chars / scans if scans else 0.0
        out["succinct.rank1_us" + sfx] = self_ns["succinct"] * per_q / 1e3
        out["succinct.rank1_per_query" + sfx] = ranks * per_q
        out["exact_dict.probe_us" + sfx] = self_ns["exact_dict"] * per_q / 1e3
        out["exact_dict.probes_per_query" + sfx] = probes * per_q
        out["exact_dict.hit_share" + sfx] = hits / probes if probes else 0.0
        out["query_engine.self_us" + sfx] = self_ns["query_engine"] * per_q / 1e3
        out["query_engine.candidates_per_query" + sfx] = stats[1] * per_q
        out["query_engine.matches_per_query" + sfx] = sum(len(r.matches) for r in rs) * per_q
        out["hashing.context_us" + sfx] = self_ns["hashing"] * per_q / 1e3
        base = untraced_ns.get(k, 0)
        out["trace.overhead_share" + sfx] = (traced_ns - base) / base if base else 0.0
    return out


# -- entry point --------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the full result, also written under .perfbench_out/."""
    editdict = _import_library()
    from workloads import WORKLOADS, inputs_digest, make_inputs

    wl = WORKLOADS[workload_name]
    t0 = time.perf_counter()
    inputs = make_inputs(wl, seed, scale)
    digest = inputs_digest(inputs)
    gen_s = time.perf_counter() - t0
    tally = Tally()
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, extra = run_traced(editdict, inputs, scale, tally,
                                    OUT_DIR / f"{tag}.spans.tsv.gz")
    else:
        metrics, extra = run_untraced(editdict, inputs, seconds, scale, tally)
    extra["failed_share"] = (tally.failed / tally.attempted, "ratio")
    extra["input_sha256"] = (digest, "sha256")
    extra["n"] = (inputs.n, "B")
    extra["words"] = (len(inputs.all_words), "count")
    extra["generate_s"] = (gen_s, "s")

    for name, (value, unit) in {**metrics, **extra}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} {shown} {unit}")
    full = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "details": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    return full


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-build", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child_build:
        child_build(args)
        return 0
    full = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({key: full[key] for key in RESULT_KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

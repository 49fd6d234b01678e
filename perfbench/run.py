"""linkrep benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search_oct --seed 1 --seconds 20 --trace 0

A single process, one client, one query at a time (a closed loop): every
query is `linkrep.cli.main(argv)` on generated `.sld` text, and every answer
is checked (see oracle.py).  Reported times are seconds at a reference CPU
speed (see speed.py); the lines above the JSON also give wall-clock figures.  The query list is a whole number of passes over
the workload's fixed list, `generate.passes_for(workload, seconds)`, so two
commits measured with the same `--seconds` run the same queries.

--trace 0 prints the end-to-end metrics; --trace 1 builds the set-up state
under tracing.py's spans, runs one pass untraced and then the same pass
traced, and prints the per-layer metrics and the tracing overhead.  The last
line of stdout is one JSON object; the lines above it are for people.

    python3 perfbench/run.py --record

re-records oracle.json from two seeds of every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import generate
import oracle
import speed
import tracing

HERE = Path(__file__).resolve().parent
REPO = generate.REPO
SRC = REPO / "src"
OUT = Path("perfbench") / "out"  # relative to REPO; generated files only
SETUP_SAMPLES = 3

# one fresh interpreter: import the CLI and build the lazily built state a
# workload needs (its preset groups and the cube dictionary); prints wall and
# reference seconds.  The probe thread's own imports (fractions, threading,
# statistics) come before the clock starts.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[2])
from speed import Sampler
with Sampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import linkrep.cli
    from linkrep.rotation import preset_group, rot
    for name in sys.argv[3:]:
        preset_group(name)
    rot("()")
    t1 = time.perf_counter()
print(t1 - t0, sampler.to_reference(t1 - t0, t0, t1))
"""

E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def build_state(groups) -> None:
    from linkrep.rotation import preset_group, rot

    for name in groups:
        preset_group(name)
    rot("()")


def setup_seconds(groups) -> Tuple[List[float], List[float]]:
    """Wall and reference seconds of fresh set-ups: at least SETUP_SAMPLES,
    and more (up to 3 * SETUP_SAMPLES) while they add up to under a second."""
    walls, refs = [], []
    while len(walls) < SETUP_SAMPLES or (sum(walls) < 1.0 and len(walls) < 3 * SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE), *groups],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall, ref = map(float, done.stdout.split())
        walls.append(wall)
        refs.append(ref)
    return walls, refs


def call_cli(argv) -> Tuple[int, str]:
    """linkrep.cli.main(argv) in this process: exit code and stdout."""
    import linkrep.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = linkrep.cli.main(list(argv))
    return code, out.getvalue()


def run_query(query: generate.Query, answers: Dict[str, dict]) -> Tuple[float, List[str]]:
    """Wall seconds of one CLI call and the ways its answer is wrong."""
    start = time.perf_counter()
    try:
        code, stdout = call_cli(query.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed query
        return time.perf_counter() - start, [f"raised {exc!r}"]
    wall = time.perf_counter() - start
    return wall, oracle.check(query, code, stdout, answers)


def run_pass(queries, answers, tracer=None):
    """((wall seconds, start, end) per query, failures)."""
    timings, failures = [], []
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        start = time.perf_counter()
        wall, problems = run_query(q, answers)
        timings.append((wall, start, time.perf_counter()))
        if problems:
            failures.append(f"query {i} {' '.join(q.argv)}: {'; '.join(problems)}")
    return timings, failures


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile with
    at least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def write_inputs(workdir: Path, queries) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for q in queries:
        if q.text is not None:
            Path(q.argv[1]).write_text(q.text, encoding="utf-8")


def import_linkrep() -> None:
    if not (SRC / "linkrep" / "__init__.py").is_file():
        raise SystemExit(f"error: no linkrep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import linkrep

    if Path(linkrep.__file__).resolve().parent != (SRC / "linkrep").resolve():
        raise SystemExit(f"error: imported linkrep from {linkrep.__file__}, not {SRC}")


def _result(attempted: int, failures: List[str], metrics: Dict[str, Tuple[float, str]]) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    w = generate.WORKLOADS[workload]
    import_linkrep()
    setup_walls, setup = setup_seconds(w.groups)
    build_state(w.groups)
    passes = generate.passes_for(workload, seconds)
    workdir = OUT / f"{workload}-{seed}"
    queries = generate.build_queries(workload, seed, passes, str(workdir))
    write_inputs(workdir, queries)
    try:
        with speed.Sampler() as sampler:
            timings, failures = run_pass(queries, oracle.load())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls = [t[0] for t in timings]
    latencies = [sampler.to_reference(*t) for t in timings]
    value, pct, beyond = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "queries_per_s": n / sum(latencies),
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (n - len(failures)) / n,
    }
    print(f"workload {workload}, seed {seed}: {n} queries in {passes} pass(es), closed loop, 1 client")
    print(f"times are seconds at the reference speed; wall: queries_per_s {n / sum(walls):.4f}, "
          f"query_p50_s {statistics.median(walls):.4f}, setup_s {statistics.median(setup_walls):.4f}")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"query_tail_s is p{pct:.1f} of {n} samples ({beyond} beyond it)")
    return _result(n, failures, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})


def measure_traced(workload: str, seed: int) -> dict:
    w = generate.WORKLOADS[workload]
    import_linkrep()
    workdir = OUT / f"{workload}-{seed}"
    queries = generate.build_queries(workload, seed, 1, str(workdir))
    answers = oracle.load()
    tracer = tracing.Tracer()
    write_inputs(workdir, queries)
    try:
        tracer.install()
        try:
            tracer.query = "setup"
            build_state(w.groups)
        finally:
            tracer.uninstall()
        with speed.Sampler() as sampler:
            untraced, failures = run_pass(queries, answers)
            # the traced pass must not hit the untraced pass's cache entries
            write_inputs(workdir, queries)
            tracer.install()
            try:
                traced, traced_failures = run_pass(queries, answers, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures += traced_failures
    spans_file = OUT / f"trace-{workload}.jsonl"
    tracer.write(spans_file)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    traced_qps = len(traced) / sum(sampler.to_reference(*t) for t in traced)
    untraced_qps = len(untraced) / sum(sampler.to_reference(*t) for t in untraced)
    metrics["trace.traced_queries_per_s"] = (traced_qps, "1/s")
    metrics["trace.untraced_queries_per_s"] = (untraced_qps, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_qps / traced_qps - 1.0), "%")
    print(f"workload {workload}, seed {seed}: traced set-up, then {len(queries)} queries "
          "untraced and the same queries traced")
    print("span times are wall seconds; queries_per_s are at the reference speed")
    print("search.verify_yield = search.solutions / search.candidates")
    for i, q in enumerate(queries):
        c = tracer.per_query.get(i)
        if c:
            print(f"  query {i} {q.template}: candidates {c['search.candidates']}, "
                  f"solutions {c['search.solutions']}")
    print(f"spans: {len(tracer.spans)}, written to {spans_file}")
    return _result(len(traced) + len(untraced), failures, metrics)


def record() -> int:
    """Record every template's answer from seeds 0 and 1; the two must agree
    in template names, or the rewriting is not answer-preserving."""
    import_linkrep()
    answers: Dict[str, dict] = {}
    for workload, w in generate.WORKLOADS.items():
        build_state(w.groups)
        for seed in (0, 1):
            workdir = OUT / f"record-{workload}-{seed}"
            queries = generate.build_queries(workload, seed, 1, str(workdir))
            write_inputs(workdir, queries)
            try:
                for q in queries:
                    if q.template is None:
                        continue
                    code, stdout = call_cli(q.argv)
                    got = oracle.normalize(q, code, json.loads(stdout))
                    if answers.setdefault(q.template, got) != got:
                        raise SystemExit(f"error: {q.template} answers differ between rewritings")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {workload} seed {seed}", flush=True)
    oracle.save(answers)
    print(f"{len(answers)} templates written to {oracle.ORACLE_FILE}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(generate.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="re-record oracle.json")
    args = p.parse_args(argv)
    os.chdir(REPO)
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    for line in result.pop("failures")[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

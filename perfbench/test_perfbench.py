"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from linkrep.obstructions import _splitting_exists  # noqa: E402

WORKDIR = "perfbench/out/test"


@pytest.fixture
def in_repo(monkeypatch):
    monkeypatch.chdir(generate.REPO)
    yield
    import shutil

    shutil.rmtree(generate.REPO / WORKDIR, ignore_errors=True)


def _inputs(workload, seed):
    return [(q.argv, q.text) for q in generate.build_queries(workload, seed, 2, WORKDIR)]


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 11) == _inputs(workload, 11)
    assert _inputs(workload, 11) != _inputs(workload, 12)


def test_ring_counts_follow_from_construction():
    assert generate.commuting_involution_tuples(3) == 24
    assert generate.commuting_involution_tuples(4) == 120
    assert generate.icosahedral_ring_count(3) == 30


def test_closed_form_splitting_matches_the_dp():
    for b2 in (1, 2, 3, 5):
        for c2 in range(-3, 400):
            assert generate.splitting_exists(b2, c2) == _splitting_exists(b2, c2), (b2, c2)


def _chain_query(seed=5):
    queries = generate.build_queries("check_scale", seed, 1, WORKDIR)
    return next(q for q in queries if q.template == "check/chain25/perturbed")


def test_oracle_accepts_the_real_answer_and_flags_wrong_ones(in_repo):
    query = _chain_query()
    run.import_linkrep()
    run.write_inputs(generate.REPO / WORKDIR, [query])
    code, stdout = run.call_cli(query.argv)
    answers = oracle.load()
    assert oracle.check(query, code, stdout, answers) == []

    report = json.loads(stdout)
    assert oracle.check(query, 0, stdout, answers)  # wrong exit code
    report["checks"]["relators"]["diagnostics"].pop()
    assert oracle.check(query, code, json.dumps(report), answers)
    assert oracle.check(query, code, "not json", answers)


def test_oracle_flags_a_wrong_search_answer():
    query = next(
        q
        for q in generate.build_queries("search_oct", 3, 1, WORKDIR)
        if q.template == "search/octahedral/ring3/so3_canonical"
    )
    recorded = oracle.load()[query.template]
    to_instance = {t: i for i, t in query.names.items()}
    good = oracle._rename(recorded["report"], to_instance)
    assert oracle.check(query, 0, json.dumps(good), oracle.load()) == []

    bad = json.loads(json.dumps(good))
    bad["search"]["solutions"][0], bad["search"]["solutions"][1] = (
        bad["search"]["solutions"][1],
        bad["search"]["solutions"][1],
    )
    assert oracle.check(query, 0, json.dumps(bad), oracle.load())
    bad = json.loads(json.dumps(good))
    bad["search"]["raw_solutions"] = 25
    assert oracle.check(query, 0, json.dumps(bad), oracle.load())


def test_oracle_flags_a_wrong_closed_form_field():
    query = next(q for q in generate.build_queries("calculus", 3, 1, WORKDIR) if q.argv[0] == "bundle")
    report = dict(query.expect["json"])
    assert oracle.check(query, 0, json.dumps(report), {}) == []
    report["irreducible_locked"] = not report["irreducible_locked"]
    assert oracle.check(query, 0, json.dumps(report), {})


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "leaf", 2.0, 3.0, 1, 0),
        (3, "b", 5.0, 9.0, 0, 0),
        (4, "b", 8.0, 10.5, 0, 0),  # overlaps b and runs past its parent
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10 - (3 + 5))
    assert own[1] == pytest.approx(2)
    assert own[2] == pytest.approx(1)
    seconds, calls = tracing.self_time_by_name(spans)
    assert seconds["b"] == pytest.approx(4 + 2.5)
    assert calls["b"] == 2


def test_reported_metrics_match_benchmark_json():
    declared = json.loads((generate.REPO / "BENCHMARK.json").read_text())
    per_layer = set(tracing.layer_metrics([], tracing.Counter())) | {
        "trace.traced_queries_per_s",
        "trace.untraced_queries_per_s",
        "trace.overhead_pct",
    }
    assert per_layer == {m["name"] for m in declared["per_layer"]}
    assert set(run.E2E_UNITS) == {m["name"] for m in declared["end_to_end"]}
    assert set(generate.WORKLOADS) == {w["name"] for w in declared["workloads"]}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_traced_ref1_search_counts(in_repo):
    query = generate.build_queries("search_oct", 4, 1, WORKDIR)[0]
    assert query.template == "search/octahedral/ref1/so3_canonical"
    run.import_linkrep()
    run.write_inputs(generate.REPO / WORKDIR, [query])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, problems = run.run_query(query, oracle.load())
    finally:
        tracer.uninstall()
    assert problems == []
    assert tracer.counts["search.candidates"] == 273
    assert tracer.counts["search.solutions"] == 120
    names = {name for _, name, *_ in tracer.spans}
    assert {"cli.main", "search.enumerate_valid_decorations", "search.count_classes[so3_canonical]"} <= names

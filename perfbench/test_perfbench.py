"""Tests of the benchmark itself: generators, oracles, checks, tracing and the runner.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.add_paths(ROOT)

from orthokit import catalog_io, core, terms  # noqa: E402


def _worker(tmp_path, spec: dict) -> dict:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-I", str(HERE / "worker.py"), str(path)],
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("model", families.catalog_of_families(), ids=lambda m: m.name)
def test_generated_lattices_are_valid_ortholattices(model):
    rng = random.Random(model.name)
    for _ in range(3):
        L = catalog_io.parse_olat(families.relabel(model, rng).olat(rng))
        assert L.n == model.n <= core.WITNESS_SEARCH_LIMIT
        assert core.validate_ortholattice(L).ok


def test_generated_sizes_and_flags_follow_the_construction():
    by_name = {m.name: m for m in families.catalog_of_families()}
    assert by_name["mo7"].n == 16 and by_name["mo7"].modular
    assert by_name["hs3_2"].n == 10 and not by_name["hs3_2"].modular
    assert by_name["bool8x2"].filters == families.boolean(4).filters
    assert not by_name["o6x2"].strong and by_name["o6x2"].bad == {2, 3, 6, 7}


@pytest.mark.parametrize("name", ["bool8", "mo4", "hs3_2_2", "bool4x2", "o6x2"])
def test_relabeling_preserves_every_theory_verdict(name):
    """The program agrees with theory under the identity labeling and under random ones."""
    model = next(m for m in families.catalog_of_families() if m.name == name)
    rng = random.Random(7)
    labelings = [families.Relabeled(model, tuple(range(model.n)))]
    labelings += [families.relabel(model, rng) for _ in range(2)]
    base = labelings[0].expected()
    for r in labelings:
        exp = r.expected()
        assert (exp["modular"], exp["orthomodular"], exp["strong"]) == \
            (base["modular"], base["orthomodular"], base["strong"])
        inv = sorted(range(model.n), key=r.perm.__getitem__)
        assert not exp["strong"] or exp["filters"] == [base["filters"][inv[p]] for p in range(model.n)]
        spec = {"models": [{"olat": r.olat(rng), "expected": exp}]}
        _, _, results = workloads.run_families(spec)
        assert workloads.check_families(spec, results)[1:] == (0, [])


def test_frozen_family_reducts_have_the_theory_congruence_count():
    for name in workloads.RELABELED_QUERY_FILES:
        rows, one = workloads.read_ioa((workloads.DATA / f"{name}.ioa").read_text())
        assert len(workloads.oracle_kernels(rows, one)) == 2, name  # horizontal sums: {1} and all


def test_oracle_kernels_are_the_boolean_filters():
    rows, one = workloads.read_ioa((workloads.DATA / "bool8_reduct.ioa").read_text())
    kernels = workloads.oracle_kernels(rows, one)
    leq = [[rows[x][y] == one for y in range(8)] for x in range(8)]
    assert set(kernels) == {frozenset(y for y in range(8) if leq[p][y]) for p in range(8)}


def test_relabeled_query_file_keeps_its_kernels():
    cache = {}
    rows, one, kernels = workloads._query_file("hs3_2_reduct", False, random.Random(0), cache)
    rows2, one2, kernels2 = workloads._query_file("hs3_2_reduct", True, random.Random(3), cache)
    assert kernels2 == workloads.oracle_kernels(rows2, one2)
    assert sorted(map(len, kernels)) == sorted(map(len, kernels2))


@pytest.fixture(scope="module")
def queries(tmp_path_factory):
    spec = workloads.prepare_ideal_queries(0, 0, tmp_path_factory.mktemp("q"), {})
    _, spans, results = workloads.run_ideal_queries(spec)
    return spec, spans, results


def test_ideal_queries_pass_and_mix(queries):
    spec, spans, results = queries
    assert len(spans) >= 200
    assert workloads.check_ideal_queries(spec, results)[1:] == (0, [])
    kernels, checks = workloads.kernel_share(spec)
    assert 0 < kernels < checks / 2  # mostly non-ideal subsets


def test_planted_wrong_ideal_verdict_is_counted(queries):
    spec, _, results = queries
    planted = json.loads(json.dumps(spec))
    q = next(q for q in planted["queries"] if q["kind"] == "check")
    q["ideal"] = not q["ideal"]
    attempted, failed, errors = workloads.check_ideal_queries(planted, results)
    assert failed == 1 and attempted == len(spec["queries"]) and errors


def test_planted_wrong_family_verdict_is_counted():
    spec = workloads.prepare_families(0, 0, Path("."), {})
    spec["models"] = spec["models"][:6]
    _, _, results = workloads.run_families(spec)
    assert workloads.check_families(spec, results)[1] == 0
    spec["models"][5]["expected"]["filters"][0][1] += 1
    spec["models"][2]["expected"]["modular"] = False
    assert workloads.check_families(spec, results)[1] == 2


def test_planted_wrong_transcript_is_counted():
    want = workloads.GOLDEN_VERIFY.read_text().replace("seed=0", "seed=5")
    spec = {"cli_seed": 5}
    assert workloads.check_catalog_verify(spec, (0, want))[1] == 0
    bad = want.replace("PASS", "FAIL", 1)
    assert workloads.check_catalog_verify(spec, (0, bad))[1] == 1
    assert workloads.check_catalog_verify(spec, (1, want))[1] == 1


def test_closure_count_is_the_witness_position():
    T = catalog_io.entry("bool8_reduct").payload
    term = terms.builtin_terms()["t3"]
    for D in (frozenset({7}), frozenset({3, 7}), frozenset(range(8)), frozenset({1, 7})):
        v = terms.closed_under_term(T, D, term)
        ok, count = tracing._closure_scanned((T, D, term), {}, v, [], 0)
        inside = sorted(D)
        seen = 0
        for xs in product(range(T.n), repeat=term.xarity):
            for ys in product(inside, repeat=term.yarity):
                seen += 1
                if terms.eval_term(T, term, xs, ys) not in D:
                    break
            else:
                continue
            break
        assert (ok, count) == (v.ok, seen)


def test_traced_counts_repeat_exactly(tmp_path):
    spec = {"mode": "pass", "workload": "ideal-queries", "trace": True,
            "trace_out": str(tmp_path / "trace.jsonl"),
            "input": workloads.prepare_ideal_queries(11, 0, tmp_path, {})}
    first, second = _worker(tmp_path, spec), _worker(tmp_path, spec)
    for metric in ("terms.assignments_scanned", "terms.closure_calls", "congruence.join_calls",
                   "catalog_io.parse_calls", "congruence.raised"):
        assert first["layers"][metric] == second["layers"][metric] > 0, metric
    assert first["failed"] == 0
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert all(p < i for i, p, *_ in spans)


def test_sampler_time_is_left_out_of_the_clock():
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        t0, c0 = calibrate.time.perf_counter(), sampler.clock()
        while calibrate.time.perf_counter() - t0 < 0.3:
            calibrate.chunk()
        elapsed, clocked = calibrate.time.perf_counter() - t0, sampler.clock() - c0
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5 and sampler.spent > 0
    assert clocked == pytest.approx(elapsed - sampler.spent, abs=1e-3)
    assert calibrate.speed(sampler.samples) > 0


def test_untraced_pass_reports_host_speed(tmp_path):
    spec = {"mode": "pass", "workload": "families-pipeline", "trace": False,
            "trace_out": str(tmp_path / "trace.jsonl"),
            "input": workloads.prepare_families(3, 0, tmp_path, {})}
    res = _worker(tmp_path, spec)
    assert res["failed"] == 0 and res["speed"] > 0 and res["setup_speed"] > 0


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ideal-queries", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

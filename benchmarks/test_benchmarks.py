"""Tests of the benchmark's own code: seeded generators, the output checker
and the tracer.  Run with ``python -m pytest -q benchmarks``."""

from __future__ import annotations

import json
import random
import sys
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

Outcome = namedtuple("Outcome", "exit_code stdout stderr")


def _shape(jobs):
    return [(j.kind, j.argv, j.docs) for j in jobs]


def test_generators_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = _shape(workloads.jobs_for(name, 7, "/work"))
        assert first == _shape(workloads.jobs_for(name, 7, "/work"))
        assert first != _shape(workloads.jobs_for(name, 8, "/work"))
    assert (_shape(workloads.jobs_for("survey", 7, "/work", 1))
            != _shape(workloads.jobs_for("survey", 7, "/work", 0)))


def _factor_payload(mirrors, n):
    return {"lattice": "E8", "count": len(mirrors), "max_expected": 2 * n,
            "mirrors": [[{"num": str(x), "den": "1"} for x in m] for m in mirrors]}


def test_checker_rejects_a_wrong_factorization():
    job = workloads._isometry_job(random.Random(0), "/work/e8.json", "E8", "factor", 4)
    word = workloads._orthogonal_roots(random.Random(0), "E8", 4)
    ok = Outcome(0, json.dumps(_factor_payload(word, 8)), "")
    assert workloads.judge(job, ok) is None
    for wrong in (word[:3], [word[0]] * 4):  # a mirror missing; a product equal to 1
        bad = Outcome(0, json.dumps(_factor_payload(wrong, 8)), "")
        assert "does not rebuild" in workloads.judge(job, bad)


def test_checker_rejects_a_missing_wall():
    job = next(j for j in workloads.jobs_for("walls", 3, "/work") if j.kind == "delta enum")
    doc = next(iter(job.docs.values()))
    bound = int(job.argv[job.argv.index("--bound") + 1])
    walls = oracle.walls_in_box(workloads.catalog()["L2"], doc["basis"], bound)
    assert walls, "the box holds wall vectors"

    def outcome(vectors):
        return Outcome(0, json.dumps({
            "lattice": doc["label"], "ambient": "L2", "rank": len(doc["basis"]),
            "completeness": {"kind": "bounded", "bound": bound}, "count": len(vectors),
            "vectors": [{"coords": list(v), "norm": n} for v, n in vectors]}), "")

    everything = list(walls.items())
    assert workloads.judge(job, outcome(everything)) is None
    assert "missing wall" in workloads.judge(job, outcome(everything[1:]))


def test_checker_rejects_a_bare_nan_payload():
    job = next(j for j in workloads.jobs_for("survey", 1, "/work")
               if j.kind == "invariant assemble")
    nan = Outcome(0, '{\n  "invariant": NaN,\n  "log": NaN,\n  "exp_vol": 0\n}\n', "")
    assert "non-finite" in workloads.judge(job, nan)
    assert "non-finite" in workloads.probe_ok(nan)
    assert workloads.probe_ok(Outcome(2, "", '{"error": {"kind": "input", "message": "x"}}'))\
        is None


def test_checker_rejects_plain_text_errors():
    job = workloads.Job("malformed", ["numerology", "--t", "4"])
    assert workloads.judge(job, Outcome(2, "", "usage: ihskit numerology\n")) is not None
    assert workloads.judge(job, Outcome(1, "", '{"error": {"kind": "x", "message": "m"}}')) \
        is None


def test_oracle_discriminant_groups():
    cat = workloads.catalog()
    assert oracle.discriminant_group(cat["E8"]) == []
    assert oracle.discriminant_group(cat["L2"]) == [2]
    assert oracle.discriminant_group([[2, 1], [1, -4]]) == [9]
    assert oracle.discriminant_group([[4, 0], [0, 6]]) == [2, 12]
    assert oracle.signature(cat["L2"]) == (3, 20)


def test_tracer_counts_and_restores():
    from ihskit import cli, isometry, lattice
    import tracer as tracing

    before = (cli.run, isometry.signature, lattice.Lattice.inner)
    t = tracing.Tracer()
    t.install()
    try:
        assert isometry.signature is lattice.signature is not before[1]  # every namespace
        result = cli.run(["delta", "enum", "--lattice", "/nonexistent.json"])
        result = cli.run(["lattice", "info", "--name", "U"])
    finally:
        t.uninstall()
    assert result.exit_code == 0
    assert (cli.run, isometry.signature, lattice.Lattice.inner) == before
    metrics = t.metrics()
    assert metrics["lattice.signature.calls"][0] == 1
    assert metrics["cli.self_s"][0] > 0
    assert {s[1] for s in t.spans} >= {"cli.run", "lattice.signature", "jsonio.dumps_payload"}


def test_benchmark_json_names_every_printed_metric():
    import run
    import tracer as tracing

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layer = {name: unit for name, (_, unit) in tracing.Tracer().metrics().items()}
    layer["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)

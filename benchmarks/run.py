"""Benchmark of the ihskit command line, run in-process.

One process, no threads, closed loop: each job is a call to the public entry
point ``ihskit.cli.run(argv)`` and starts only after the previous one has
returned.  Every output is checked by ``oracle`` outside the timed region.

From the repository root:

    python3 benchmarks/run.py --workload walls --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run over a fixed job prefix.  ``--workload all`` runs each
workload in a fresh process and prints one table.  The last line of the
output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_JOBS = 150        # at least ten latency samples beyond p90, and p50/p90 clusters of 20+
TRACE_JOBS = 100      # fixed prefix for the traced run, so its counts repeat exactly
SETUP_PROBES = 10   # fresh interpreters before and again after the timed jobs
PROBE_SECONDS = 3
SETUP_CODE = ("import time; t0 = time.perf_counter(); import ihskit.cli as cli; "
              "cli.lattice_mod.build_standard('L2'); cli.build_parser(); "
              "print(repr(time.perf_counter() - t0))")
RSS_JOBS = 30
RSS_CODE = """
import resource, sys
sys.path.insert(0, {bench!r})
from ihskit import cli
import workloads
jobs = workloads.jobs_for({workload!r}, {seed!r}, {workdir!r})[:{count}]
workloads.write_docs(jobs)
for job in jobs:
    cli.run(job.argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
END_TO_END_UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_p90_s": "s",
                    "jobs_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        rev = out.stdout.strip() or rev
    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted((SRC / "ihskit").rglob("*.py")))
    return {"python": sys.version.split()[0], "git": rev,
            "nproc": len(os.sched_getaffinity(0)), "src_loc": loc}


def fresh_python(code: str) -> float:
    """Run ``code`` in a fresh interpreter that imports ihskit from this
    checkout, and return the number it prints."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         text=True, timeout=170, check=True)
    return float(out.stdout)


def measure_setup(count: int) -> list[float]:
    """Times for fresh interpreters to import the CLI, load the catalog and
    build the parser: what every command line invocation pays first."""
    return [fresh_python(SETUP_CODE) for _ in range(count)]


def measure_peak_rss(workload: str, seed: int, workdir: Path) -> float:
    """Peak RSS (MB) of a fresh process that runs the first RSS_JOBS jobs of the
    workload and nothing else: the checker's own allocations would otherwise
    fragment the heap and move the figure from run to run."""
    return fresh_python(RSS_CODE.format(bench=str(HERE), workload=workload, seed=seed,
                                        workdir=str(workdir), count=RSS_JOBS))


def job_supply(workload: str, seed: int, workdir: str):
    """Endless stream of jobs: the fixed list in a cycle, or fresh survey passes."""
    pass_index = 0
    while True:
        jobs = workloads.jobs_for(workload, seed, workdir, pass_index)
        workloads.write_docs(jobs)
        yield from jobs
        if workload == "survey":
            pass_index += 1


def run_one(cli, job) -> tuple[tuple, bool]:
    """One timed job: its record (kind, wall s, cpu s, failure or None) and
    whether the program answered with an error."""
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        outcome = cli.run(job.argv)
    except Exception as exc:  # an uncaught exception is a failed job, not a failed run
        outcome = exc
    w1, c1 = time.perf_counter(), time.process_time()
    errored = isinstance(outcome, Exception) or outcome.exit_code != 0
    return (job.kind, w1 - w0, c1 - c0, workloads.judge(job, outcome)), errored


def run_jobs(cli, jobs, seconds: float) -> list[tuple]:
    """Closed loop until the timed region has lasted ``seconds`` and at least
    MIN_JOBS jobs ran."""
    records = []
    timed = 0.0
    while timed < seconds or len(records) < MIN_JOBS:
        record, _ = run_one(cli, next(jobs))
        timed += record[1]
        records.append(record)
    return records


def run_traced(cli, jobs, tracer) -> tuple[list[tuple], list[tuple]]:
    """The first TRACE_JOBS jobs, each run once traced and once untraced, in
    alternating order so that the machine's drift cancels out of the overhead."""
    traced, plain = [], []
    for i, job in enumerate(itertools.islice(jobs, TRACE_JOBS)):
        tracer.job = i
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if not with_trace:
                plain.append(run_one(cli, job)[0])
                continue
            tracer.install()
            try:
                record, errored = run_one(cli, job)
            finally:
                tracer.uninstall()
            tracer.counters["cli.errors"] += errored
            traced.append(record)
    return traced, plain


def end_to_end(records, setup_s: float, peak_rss_mb: float) -> dict:
    walls = [r[1] for r in records]
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[8],
        "jobs_per_s": len(walls) / sum(walls),
        "cpu_s": sum(r[2] for r in records) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def _expired(signum, frame):
    raise TimeoutError


def run_probes(cli, workdir: str) -> dict:
    """Known-defect probes, untimed; each gets PROBE_SECONDS before it is stopped."""
    probes = workloads.defect_probes(workdir)
    workloads.write_docs([job for _, job in probes])
    results = {}
    previous = signal.signal(signal.SIGALRM, _expired)
    try:
        for name, job in probes:
            signal.setitimer(signal.ITIMER_REAL, PROBE_SECONDS)
            try:
                outcome = cli.run(job.argv)
            except TimeoutError:
                results[name] = f"no answer within {PROBE_SECONDS} s"
                continue
            except Exception as exc:
                outcome = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            results[name] = workloads.probe_ok(outcome)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return results


def single(args) -> dict:
    sys.path.insert(0, str(SRC))
    from ihskit import cli  # the program under test

    if Path(cli.__file__).resolve().parent != SRC / "ihskit":
        raise SystemExit(f"ihskit was imported from {cli.__file__}, not from {SRC}")

    env = environment()
    print("env " + json.dumps(env))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli.run(["numerology", "--t", "1"])  # warm-up: argparse and first-call set-up
        supply = job_supply(args.workload, args.seed, str(workdir))
        if args.trace:
            tracer = tracing.Tracer()
            records, replay = run_traced(cli, supply, tracer)
            traced_s, plain_s = sum(r[1] for r in records), sum(r[1] for r in replay)
            metrics = tracer.metrics()
            metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
            path = OUT / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(path, {"workload": args.workload, "seed": args.seed})
            print(f"traced {len(records)} jobs in {traced_s:.3f} s, untraced {plain_s:.3f} s; "
                  f"spans written to {path.relative_to(ROOT)}")
            print("no queueing metric: one thread runs one job at a time, "
                  "so no layer waits on another")
            for name, (value, unit) in metrics.items():
                print(f"  {name:36s} {value:>14.6g} {unit}")
        else:
            # Set-up is sampled before and after the jobs: the machine's speed drifts.
            setup_times = measure_setup(SETUP_PROBES)
            records = run_jobs(cli, supply, args.seconds)
            setup_times += measure_setup(SETUP_PROBES)
            values = end_to_end(records, statistics.median(setup_times),
                                measure_peak_rss(args.workload, args.seed, workdir))
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            print(f"{args.workload} seed {args.seed}: {len(records)} jobs in "
                  f"{sum(r[1] for r in records):.3f} s timed, "
                  f"setup over {len(setup_times)} interpreters")
            for name, (value, unit) in metrics.items():
                print(f"  {name:16s} {value:>12.6g} {unit}")
        failures = [(r[0], r[3]) for r in records if r[3]]
        print(f"  failed_frac      {len(failures) / len(records):>12.6g} ratio "
              f"({len(failures)} of {len(records)})")
        for kind, why in failures[:5]:
            print(f"  FAILED {kind}: {why}")
        if args.workload == "survey":
            probes = run_probes(cli, str(workdir))
            print("probes " + json.dumps(probes))
            bad = sum(v is not None for v in probes.values())
            print(f"  known-defect probes: {bad} of {len(probes)} failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": not failures, "attempted": len(records), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def all_workloads(args) -> dict:
    """Each workload in a fresh process, then one table."""
    results, probes = {}, {}
    for workload in workloads.WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout[:out.stdout.rstrip().rfind("\n") + 1])
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise SystemExit(f"{workload} run failed")
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
        for line in out.stdout.splitlines():
            if line.startswith("probes "):
                probes = json.loads(line[len("probes "):])
    names = list(results["involution"]["metrics"])
    print(f"\n{'metric':36s} {'unit':6s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        unit = results["involution"]["metrics"][name]["unit"]
        print(f"{name:36s} {unit:6s}" + "".join(
            f"{r['metrics'][name]['value']:>14.6g}" for r in results.values()))
    failed = {w: r["failed"] / r["attempted"] for w, r in results.items()}
    bad = [name for name, why in probes.items() if why is not None]
    failed["survey"] = ((results["survey"]["failed"] + len(bad))
                        / (results["survey"]["attempted"] + len(probes)))
    print(f"{'failed_frac':36s} {'ratio':6s}" + "".join(f"{failed[w]:>14.6g}" for w in results))
    print(f"survey failed_frac includes {len(bad)} of {len(probes)} known-defect probes: "
          + ", ".join(bad))
    return {w: dict(r, failed_frac=failed[w]) for w, r in results.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = all_workloads(args) if args.workload == "all" else single(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

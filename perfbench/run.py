#!/usr/bin/env python3
"""Layered benchmark for twinforge, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``. Each workload's trace is generated from --seed through
``twinforge.simulate`` (input preparation, not timed). Every repetition runs
in a fresh process (child.py) so that its peak RSS is its own; the load is
one single-threaded client in a closed loop, and every process of a run
shares one CPU (see pin_to_one_cpu).

--trace 0 (timed): repetitions until --seconds is spent, with set-ups
before and between them; prints every end-to-end metric. --trace 1: one
untraced repetition, one traced repetition, one traced repetition with
TWINFORGE_THREADS=1 and one tracemalloc pass; prints every per-layer metric.
Timed repetitions never set TWINFORGE_THREADS. Every repetition's outputs
are checked; a failed check counts against ``failed``. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LIVE_WINDOW_S, MACHINE, SAMPLE_RATE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0  # every run ends within 180 s
# Set-ups are spread over the run (before and after each repetition) so that
# a short burst of load on a shared host does not move their median.
SETUP_FIRST, SETUP_AFTER_EACH = 5, 2
ARTIFACTS = ("report.json", "timeline.csv", "changepoints.txt", "anomalies.json", "manifest.json")

# Everything before the first sample is accepted: interpreter start, import
# of the CLI, a twin runtime and an archive. Prints when it was done.
SETUP_CODE = """
import time
import twinforge.cli
from twinforge.archive import Archive
from twinforge.twin import TwinRuntime
TwinRuntime(); Archive()
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

END_TO_END = {
    "run_s": "s",
    "window_latency_s.p50": "s",
    "window_latency_s.p90": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "wire.decode_s": "s",
    "wire.decode_ns_per_sample": "ns",
    "wire.samples": "count",
    "twin.shadow_s": "s",
    "twin.shadow_ns_per_sample": "ns",
    "twin.events": "count",
    "archive.append_s": "s",
    "archive.append_ns_per_sample": "ns",
    "archive.bytes_per_sample": "B",
    "archive.query_s": "s",
    "archive.queries": "count",
    "archive.query_hit_ratio": "ratio",
    "orchestrator.sweep_s": "s",
    "orchestrator.sweeps": "count",
    "orchestrator.sweep_1worker_s": "s",
    "orchestrator.replicas": "count",
    "orchestrator.replica_busy_s": "s",
    "orchestrator.replica_wait_s": "s",
    "orchestrator.replica_self_s": "s",
    "orchestrator.rank_s": "s",
    "readiness.busy_s": "s",
    "readiness.calls": "count",
    "readiness.distinct_ratio": "ratio",
    "analytics.pelt_busy_s": "s",
    "analytics.pelt_calls": "count",
    "analytics.pelt_distinct_ratio": "ratio",
    "analytics.kmeans_busy_s": "s",
    "analytics.kmeans_iterations": "count",
    "analytics.kmeans_distinct_ratio": "ratio",
    "analytics.silhouette_busy_s": "s",
    "analytics.silhouette_points": "count",
    "analytics.silhouette_distinct_ratio": "ratio",
    "cli.ingest_s": "s",
    "cli.write_s": "s",
    "trace.overhead_ratio": "ratio",
}


class ChildFailed(Exception):
    pass


def child_env(threads=None) -> dict:
    env = dict(os.environ)
    env.pop("TWINFORGE_THREADS", None)  # timed runs use the program's default
    if threads is not None:
        env["TWINFORGE_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv, deadline, threads=None) -> str:
    """Run a fresh interpreter from the checkout root; return its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(threads),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{argv[:3]} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"{argv[:3]} exited {proc.returncode}: {tail}")
    return proc.stdout.splitlines()[-1]


def child(args, deadline, threads=None) -> dict:
    return json.loads(spawn([str(HERE / "child.py"), *args], deadline, threads))


def setup_once(deadline) -> float:
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    ready = float(spawn(["-c", SETUP_CODE], deadline))
    return ready - started


def percentile(values, q) -> float:
    """Nearest rank: the smallest value with at least q% of values at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def generate(workload, seed: int, work: Path):
    """Write the workload's trace; return its path (relative to the checkout
    root, so artifacts do not depend on where the checkout lives) and the
    analysed machine's ground truth."""
    from twinforge import simulate, wire

    spec = simulate.default_scenario(
        seed=seed,
        duration_s=float(workload.duration_s),
        machines=workload.machines,
        sample_rate=SAMPLE_RATE,
    )
    samples, truth = simulate.simulate_scenario(spec)
    path = work / "trace.jsonl"
    wire.write_trace(path, samples)
    return str(path.relative_to(ROOT)), truth.machines[MACHINE]


def tiles(rows, n_blocks: int) -> bool:
    """Rows [a, b) cover [0, n_blocks) exactly once, in order."""
    edge = 0
    for a, b in rows:
        if a != edge or b <= a:
            return False
        edge = b
    return edge == n_blocks


def check_batch(out: Path, truth, rc: int):
    """Problems found in one batch repetition's artifacts, and their SHA-256s."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    missing = [a for a in ARTIFACTS if not (out / a).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], {}
    hashes = {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        selected = next(r for r in report["replicas"] if r["version"] == report["selected"])
        block = selected["block_size"]
        lines = (out / "timeline.csv").read_text(encoding="utf-8").splitlines()[1:]
        rows = [tuple(int(v) for v in line.split(",")[:2]) for line in lines]
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable report.json or timeline.csv: {exc!r}"], hashes
    problems = []
    expected = list(truth.change_point_blocks(block))
    if selected["change_points"] != expected:
        problems.append(
            f"selected {report['selected']} change points {selected['change_points']} "
            f"!= truth {expected} at block {block}"
        )
    if not tiles(rows, -(-truth.n_samples // block)):
        problems.append("timeline.csv does not tile [0, n_blocks) exactly once")
    return problems, hashes


def live_outcome(record) -> list:
    """The part of one analysis that must repeat exactly across runs."""
    return [record["edge"], record["machine"], record.get("version"),
            record.get("change_points"), record.get("anomalies")]


def check_live(records, workload):
    """Failed analyses of one live repetition."""
    expected = {(e, m) for e in workload.edges_ns() for m in workload.machines}
    window_samples = LIVE_WINDOW_S * SAMPLE_RATE
    failed = len(expected - {(r["edge"], r["machine"]) for r in records})
    problems = []
    for r in records:
        if "error" in r:
            problems.append(f"edge {r['edge']} {r['machine']}: {r['error']}")
        elif not tiles(r["rows"], -(-window_samples // r["block_size"])):
            problems.append(f"edge {r['edge']} {r['machine']}: timeline does not tile the window")
    return failed + len(problems), problems


class Tally:
    """Attempts, failures and outputs of the repetitions of one run."""

    def __init__(self, workload, truth, work: Path):
        self.workload, self.truth, self.work = workload, truth, work
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.hashes = None  # batch: artifact SHA-256s of the first repetition
        self.outcomes = None  # live: outcomes of the first repetition

    def repetition(self, trace, deadline, spans=None, threads=None):
        """Run, check and count one repetition; return its result or None."""
        n = self.workload.analyses()
        self.attempted += n
        out = self.work / f"out{self.attempted}"
        args = ["run", self.workload.name, trace, str(out.relative_to(ROOT))]
        if spans is not None:
            args += ["--spans", str(spans)]
        try:
            result = child(args, deadline, threads)
        except ChildFailed as exc:
            self.failed += n
            self.problems.append(str(exc))
            return None
        if self.workload.kind == "batch":
            problems, hashes = check_batch(out, self.truth, result["rc"])
            self.hashes = self.hashes or hashes
            if hashes and hashes != self.hashes:
                problems.append("artifacts differ from the first repetition's")
            failed = 1 if problems else 0
            shutil.rmtree(out, ignore_errors=True)
        else:
            failed, problems = check_live(result["records"], self.workload)
            outcomes = [live_outcome(r) for r in result["records"]]
            self.outcomes = self.outcomes or outcomes
            differ = sum(a != b for a, b in zip(outcomes, self.outcomes))
            if differ:
                problems.append(f"{differ} analyses differ from the first repetition's")
            failed = min(n, failed + differ)
        self.failed += failed
        self.problems += problems
        return result

    def outputs(self) -> dict:
        if self.hashes:
            return self.hashes
        if self.outcomes:
            text = json.dumps(self.outcomes, separators=(",", ":"))
            return {f"{len(self.outcomes)} analyses": hashlib.sha256(text.encode()).hexdigest()}
        return {}


def timed(workload, trace, tally, seconds, deadline) -> dict:
    spawn(["-c", SETUP_CODE], deadline)  # warm the bytecode cache
    setups = [setup_once(deadline) for _ in range(SETUP_FIRST)]
    reps = []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        result = tally.repetition(trace, deadline)
        if result is not None:
            reps.append(result)
        setups += [setup_once(deadline) for _ in range(SETUP_AFTER_EACH)]
        took = time.monotonic() - t0
        if time.monotonic() + took > min(begin + seconds, deadline):
            break
    if not reps:
        raise ChildFailed("no repetition succeeded: " + "; ".join(tally.problems[:3]))
    latencies = [x for r in reps for x in r["latencies_s"]] if workload.kind == "live" else [
        r["run_s"] for r in reps
    ]
    return {
        "run_s": (statistics.median(r["run_s"] for r in reps), len(reps)),
        "window_latency_s.p50": (statistics.median(latencies), len(latencies)),
        "window_latency_s.p90": (percentile(latencies, 90), len(latencies)),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in reps), len(reps)),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def traced(workload, trace, tally, deadline, seed) -> dict:
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-s{seed}"
    plain = tally.repetition(trace, deadline)
    spans = spans_dir / f"{stem}.json"
    full = tally.repetition(trace, deadline, spans=spans)
    one = tally.repetition(trace, deadline, spans=spans_dir / f"{stem}-1worker.json", threads=1)
    if None in (plain, full, one):
        raise ChildFailed("; ".join(tally.problems[:3]))
    layers = {k: tuple(v) for k, v in full["layers"].items()}
    layers["orchestrator.sweep_1worker_s"] = tuple(one["layers"]["orchestrator.sweep_s"])
    memory = child(["bytes", workload.name, trace], deadline)
    layers["archive.bytes_per_sample"] = (memory["bytes_per_sample"], memory["samples"])
    layers["trace.overhead_ratio"] = (full["run_s"] / plain["run_s"] - 1, 1)
    print(f"spans: {spans.relative_to(ROOT)}")
    return {name: layers[name] for name in PER_LAYER}


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU; return how many it had.

    The default 4-worker pool hands the GIL between threads hundreds of
    thousands of times per live repetition. Across the vCPUs of a shared
    virtual machine each handoff waits for the other vCPU to be scheduled,
    so wall time followed host load: live repetitions swung by 70% while
    their CPU time held. On one CPU the handoffs stay local."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus)


def bench(workload, seed: int, seconds: int, trace_mode: int, nproc: int) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{workload.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        trace, truth = generate(workload, seed, work)
        tally = Tally(workload, truth, work)
        if trace_mode:
            metrics, units = traced(workload, trace, tally, deadline, seed), PER_LAYER
        else:
            metrics, units = timed(workload, trace, tally, seconds, deadline), END_TO_END
    except ChildFailed as exc:
        print(f"perfbench: {workload.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy

    print(
        f"# {workload.name} seed={seed} trace={trace_mode} cpus=1 nproc={nproc} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    for name, (value, n) in metrics.items():
        print(f"{name:<38}{value:>16.6f} {units[name]:<6} n={n}")
    rate = tally.failed / tally.attempted
    print(f"{'error_rate':<38}{rate:>16.6f} ratio  n={tally.attempted}")
    for name, digest in tally.outputs().items():
        print(f"sha256 {name:<24} {digest}")
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for twinforge")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinforge" / "cli.py").is_file():
        print(f"perfbench: no twinforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twinforge

    if SRC not in Path(twinforge.__file__).resolve().parents:
        print(f"perfbench: twinforge imported from {twinforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    nproc = pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(bench(WORKLOADS[n], args.seed, args.seconds, args.trace, nproc) for n in names)


if __name__ == "__main__":
    sys.exit(main())

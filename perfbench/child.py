"""One repetition of a benchmark workload, in a fresh process started by run.py.

    child.py run WORKLOAD TRACE OUT [--spans FILE]
    child.py bytes WORKLOAD TRACE

``run`` replays the trace as the workload says: a batch workload is one
``twinforge.cli.main(["run", ...])``; a live workload feeds the trace line by
line through the twin and archive and analyses sliding windows as it goes.
With ``--spans`` the run is traced (see tracer.py) and the spans are written
to FILE. ``bytes`` measures the archive's memory per appended sample under
tracemalloc. The result is one JSON object on the last line of stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc

from twinforge import archive, cli, orchestrator, twin, wire
from twinforge.errors import TwinForgeError
from twinforge.twin import LifecycleEvent
from tracer import Tracer
from workloads import LIVE_WINDOW_S, MACHINE, NS_PER_S, WORKLOADS


def run_batch(trace: str, out: str) -> dict:
    started = time.perf_counter()
    rc = cli.main(["run", trace, "--machine", MACHINE, "--out", out])
    finished = time.perf_counter()
    return {"rc": rc, "started": started, "ended": finished, "run_s": finished - started}


def _bind(runtime, machine: str):
    """Create a twin and drive it Bind -> SyncEstablished, as `run` does."""
    tw = runtime.create_twin(machine)
    tw.apply_lifecycle_event(LifecycleEvent.Bind)
    tw.apply_lifecycle_event(LifecycleEvent.SyncEstablished)
    return tw


def run_live(workload, trace: str) -> dict:
    """Closed loop, one client: the replay feeds no further sample until
    every analysis due at an edge has returned."""
    runtime = twin.TwinRuntime()
    store = archive.Archive()
    machines: set[str] = set()
    edges = iter(workload.edges_ns())
    edge = next(edges)
    window_ns = LIVE_WINDOW_S * NS_PER_S
    records = []
    finished = None  # when the latest analysis returned
    with open(trace, encoding="utf-8") as fh:
        started = time.perf_counter()
        for line in fh:
            arrived = time.perf_counter()
            sample = wire.decode_sample(line.rstrip("\n"))
            if sample.asset_id not in runtime:
                _bind(runtime, sample.asset_id)
                machines.add(sample.asset_id)
            tw = runtime.get(sample.asset_id)
            tw.shadow_sample(sample)
            store.append_sample(sample, tags={"phase": tw.phase.name})
            while edge is not None and sample.ts >= edge:
                for machine in sorted(machines):
                    record = {"edge": edge, "machine": machine}
                    called = time.perf_counter()
                    try:
                        report, timeline, anomalies = orchestrator.zeroconf_run(
                            store, machine, (edge - window_ns, edge), twin=runtime.get(machine)
                        )
                    except TwinForgeError as exc:
                        report = None
                        record["error"] = f"{type(exc).__name__}: {exc}"
                    finished = time.perf_counter()
                    if report is not None:
                        record.update(
                            latency_s=finished - arrived,
                            sweep_s=finished - called,
                            version=report.selected,
                            block_size=report.results[0].hyperparams.block_size,
                            change_points=list(timeline.change_points),
                            anomalies=[
                                [a.segment_index, *a.block_range, a.cluster_label, repr(a.rarity)]
                                for a in anomalies
                            ],
                            rows=[[a, b] for a, b, _, _ in timeline.rows],
                        )
                    records.append(record)
                edge = next(edges, None)
    ended = time.perf_counter()
    return {
        "started": started,
        "ended": ended,
        "run_s": (finished or ended) - started,
        "latencies_s": [r["latency_s"] for r in records if "latency_s" in r],
        "records": records,
    }


def archive_bytes_per_sample(trace: str) -> dict:
    """Bytes the archive holds per appended sample, on top of the samples.

    Samples are decoded and shadowed first, outside tracemalloc, so only the
    appends are counted."""
    runtime = twin.TwinRuntime()
    samples, tags = [], []
    with open(trace, encoding="utf-8") as fh:
        for line in fh:
            sample = wire.decode_sample(line.rstrip("\n"))
            if sample.asset_id not in runtime:
                _bind(runtime, sample.asset_id)
            tw = runtime.get(sample.asset_id)
            tw.shadow_sample(sample)
            samples.append(sample)
            tags.append(tw.phase.name)
    store = archive.Archive()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for sample, phase in zip(samples, tags):
        store.append_sample(sample, tags={"phase": phase})
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {"bytes_per_sample": (after - before) / len(samples), "samples": len(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "bytes"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("trace")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "bytes":
        result = archive_bytes_per_sample(args.trace)
    else:
        tracer = None
        if args.spans:
            tracer = Tracer()
            tracer.install()
        if workload.kind == "batch":
            result = run_batch(args.trace, args.out)
        else:
            result = run_live(workload, args.trace)
        if tracer is not None:
            tracer.check(workload.kind)
            # Top-level call's entry -> first sweep entry, and last sweep
            # return -> its return. That call is `main` on batch; on live it
            # is the replay loop, whose tail feeds the samples after the last edge.
            sweeps = tracer.sweeps()
            result["layers"] = tracer.metrics()
            result["layers"]["cli.ingest_s"] = [sweeps[0].wall0 - result["started"], 1]
            result["layers"]["cli.write_s"] = [result["ended"] - sweeps[-1].wall1, 1]
            tracer.write(args.spans)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

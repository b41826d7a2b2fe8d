"""Command-line entry point wiring simulator, archive, twins, and the
ZeroConf orchestrator.

Exit codes: 0 ok, 2 bad arguments/malformed input, 3 no data, 4 pipeline
error (message names the replica version). Diagnostics go to stderr; stdout
stays machine-parseable where a format is stated. A reader that closes
stdout early (`twinforge report out/report.json | head -1`) ends the command
quietly: main points stdout at os.devnull and returns 0, with nothing on
stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Optional

from . import __version__
from .archive import Archive
from .errors import InvalidSpec, MalformedLine, NoData, TwinForgeError, UnknownAsset
from .orchestrator import (
    DEFAULT_GRID,
    DEFAULT_RARITY_THRESHOLD,
    RANKING_RULE,
    SWEEP_SEED,
    flag_anomalies,
    zeroconf_run,
)
from .simulate import (
    DEFAULT_DURATION_S,
    DEFAULT_MACHINES,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SEED,
    PhaseInterval,
    ScenarioSpec,
    default_scenario,
    simulate_scenario,
)
from .twin import LifecycleEvent, TwinInstance, TwinRuntime
from .wire import MachineState, TelemetrySample, replay_trace, write_trace

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_NO_DATA = 3
EXIT_PIPELINE = 4

FORMAT_VERSIONS = {"trace": 1, "report": 1, "timeline": 1, "anomalies": 1}


def _fail(code: int, message: str) -> int:
    print(f"twinforge: {message}", file=sys.stderr)
    return code


_SPEC_KEYS = ("duration_s", "failure_windows", "machines", "sample_rate", "schedule", "seed")
_INTERVAL_KEYS = ("end_s", "machine", "start_s", "state")


def _object(obj, keys: tuple[str, ...], what: str) -> dict:
    """obj, a JSON object with no key but keys: a misspelt key would
    otherwise leave its field at the default."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}; the keys are {', '.join(keys)}")
    return obj


def _interval(iv) -> PhaseInterval:
    iv = _object(iv, _INTERVAL_KEYS, "a schedule interval")
    return PhaseInterval(iv["machine"], iv["start_s"], iv["end_s"], MachineState[iv["state"]])


def parse_scenario_file(path) -> ScenarioSpec:
    """A scenario file's spec, read for its JSON shape only (an object, its
    keys, state names): ScenarioSpec.validate checks every value."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
        fields = dict(_object(payload, _SPEC_KEYS, "the scenario"))
        if "schedule" in fields:
            fields["phase_schedule"] = tuple(map(_interval, fields.pop("schedule")))
        if isinstance(fields.get("machines"), list):  # validate refuses any other type
            fields["machines"] = tuple(fields["machines"])
        if "failure_windows" in fields:
            fields["failure_windows"] = tuple(
                tuple(w) if isinstance(w, list) else w for w in fields["failure_windows"]
            )
        return ScenarioSpec(**fields)
    # ValueError: bad JSON or UTF-8; RecursionError: arrays nested too deep
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad scenario file {path}: {exc}") from exc


def _os_fail(what: str, path, exc: OSError) -> int:
    """Exit 2 for a path the OS refuses (missing, a directory, not writable)."""
    return _fail(EXIT_BAD_ARGS, f"{what} {path}: {exc.strerror or exc}")


def cmd_simulate(args) -> int:
    try:
        if args.spec:
            spec = parse_scenario_file(args.spec)
        else:
            machines = (
                tuple(args.machines.split(",")) if args.machines is not None else DEFAULT_MACHINES
            )
            spec = default_scenario(
                seed=args.seed,
                duration_s=args.duration,
                machines=machines,
                sample_rate=args.rate,
            )
        samples, truth = simulate_scenario(spec)
    except (InvalidSpec, OSError) as exc:
        return _fail(EXIT_BAD_ARGS, f"invalid scenario: {exc}")
    except MemoryError as exc:  # a valid scenario whose samples no memory holds
        return _fail(EXIT_BAD_ARGS, f"invalid scenario: too large to simulate: {exc}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _os_fail("cannot create output directory", args.out, exc)
    trace_path = out / "trace.jsonl"
    try:
        n = write_trace(trace_path, samples)
    except OSError as exc:
        return _os_fail("cannot write", trace_path, exc)
    truth_path = out / "ground_truth.json"
    try:
        truth_path.write_text(truth.to_json(), encoding="utf-8")
    except OSError as exc:
        return _os_fail("cannot write", truth_path, exc)
    print(f"wrote {n} samples to {trace_path}", file=sys.stderr)
    return EXIT_OK


def ingest(
    samples: Iterable[TelemetrySample], machine: Optional[str] = None
) -> tuple[TwinRuntime, Archive]:
    """Shadow samples into a fresh twin runtime and archive them, driving
    each twin Unbound -> Bound -> Synchronized on first contact. Every
    archived sample is tagged with its twin's phase. With machine given,
    every sample is still read but only that machine's are kept."""
    runtime = TwinRuntime()
    archive = Archive()
    twins: dict[str, TwinInstance] = {}
    tagged_phase = tags = None  # tags are rebuilt only when the phase changes
    for sample in samples:
        twin = twins.get(sample.asset_id)
        if twin is None:
            if machine is not None and sample.asset_id != machine:
                continue
            twin = twins[sample.asset_id] = runtime.create_twin(sample.asset_id)
            twin.apply_lifecycle_event(LifecycleEvent.Bind)
            twin.apply_lifecycle_event(LifecycleEvent.SyncEstablished)
        twin.shadow_sample(sample)
        phase = twin.phase
        if phase is not tagged_phase:
            tagged_phase, tags = phase, {"phase": phase.name}
        archive.append_sample(sample, tags=tags)
    return runtime, archive


def _ingest_trace(path, machine: Optional[str] = None):
    """ingest(replay_trace(path), machine) for run and bench: (runtime,
    archive), or exit 2 with one line when the OS or the decoder refuses
    the trace."""
    try:
        return ingest(replay_trace(path), machine)
    except OSError as exc:
        return _os_fail("cannot read trace", path, exc)
    except MalformedLine as exc:
        return _fail(EXIT_BAD_ARGS, f"malformed trace: {exc}")


def _sweep_fail(exc: TwinForgeError) -> int:
    """Exit 3 for a sweep that found no data, 4 for any other pipeline error."""
    if isinstance(exc, (NoData, UnknownAsset)):
        return _fail(EXIT_NO_DATA, str(exc))
    return _fail(EXIT_PIPELINE, f"pipeline error: {exc}")


def report_payload(report, machine: str) -> dict:
    """report.json's content for a sweep's ranked report."""
    replicas = []
    for r in report.results:
        anomaly_count = len(flag_anomalies(r.segments, machine=machine))
        replicas.append(
            {
                "version": r.replica_version,
                "block_size": r.hyperparams.block_size,
                "penalty": r.hyperparams.penalty,
                "k": r.hyperparams.k,
                "silhouette": r.silhouette,
                "segment_count": r.segment_count,
                "change_points": list(r.segmentation.change_points),
                "total_cost": r.segmentation.total_cost,
                "anomaly_count": anomaly_count,
            }
        )
    return {
        "format_version": FORMAT_VERSIONS["report"],
        "machine": machine,
        "seed": SWEEP_SEED,
        "rarity_threshold": DEFAULT_RARITY_THRESHOLD,
        "ranking_rule": RANKING_RULE,
        "selected": report.selected,
        "replicas": replicas,
    }


def cmd_run(args) -> int:
    ingested = _ingest_trace(args.trace, args.machine)  # the one machine it sweeps
    if isinstance(ingested, int):
        return ingested
    runtime, archive = ingested

    twin = runtime.get(args.machine) if args.machine in runtime else None
    try:
        if twin is None:
            raise NoData(f"no samples for machine {args.machine!r}")
        report, timeline, anomalies = zeroconf_run(
            archive, args.machine, archive.time_span(args.machine), twin=twin
        )
    except TwinForgeError as exc:
        return _sweep_fail(exc)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _os_fail("cannot create output directory", args.out, exc)
    payload = report_payload(report, args.machine)
    artifacts = {
        "report.json": json.dumps(payload, sort_keys=True, indent=1) + "\n",
        "timeline.csv": timeline.to_csv(),
        "changepoints.txt": "".join(f"{cp}\n" for cp in timeline.change_points),
        "anomalies.json": json.dumps([asdict(a) for a in anomalies], sort_keys=True, indent=1)
        + "\n",
    }
    manifest = {
        "tool_version": __version__,
        "trace": str(args.trace),
        "machine": args.machine,
        "seed": SWEEP_SEED,
        "rarity_threshold": DEFAULT_RARITY_THRESHOLD,
        "grid": DEFAULT_GRID,
        "format_versions": FORMAT_VERSIONS,
        "outputs": list(artifacts),
    }
    artifacts["manifest.json"] = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    for name, text in artifacts.items():
        try:
            (out / name).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _os_fail("cannot write", out / name, exc)
    print(
        f"selected {report.selected}: {report.results[0].segment_count} segments, "
        f"{len(anomalies)} anomalies -> {out}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        payload = json.loads(Path(args.report).read_text(encoding="utf-8"))
        replicas = payload["replicas"]
        selected = payload["selected"]
    # ValueError: bad JSON or UTF-8; RecursionError: arrays nested too deep
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        return _fail(EXIT_BAD_ARGS, f"malformed report: {exc}")
    if not isinstance(replicas, list):
        return _fail(
            EXIT_BAD_ARGS, f"malformed report: replicas is a {type(replicas).__name__}, not a list"
        )
    try:  # every row is formatted before any is printed: stdout is all or nothing
        table = ranking_table(replicas, selected)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(EXIT_BAD_ARGS, f"malformed report row: {exc}")
    print(table)
    return EXIT_OK


def ranking_table(replicas: list, selected: str) -> str:
    """The ranking table of report.json's replica rows, the selected version
    starred. Raises KeyError, TypeError or ValueError for a malformed row."""
    if not replicas:
        return "no replicas"
    lines = [f"{'':2}{'version':<14}{'penalty':>8}{'k':>3}{'block':>6}{'silhouette':>11}{'segments':>9}{'anomalies':>10}"]
    for r in replicas:
        mark = "*" if r["version"] == selected else " "
        lines.append(
            f"{mark:2}{r['version']:<14}{r['penalty']:>8g}{r['k']:>3}"
            f"{r['block_size']:>6}{r['silhouette']:>11.4f}"
            f"{r['segment_count']:>9}{r['anomaly_count']:>10}"
        )
    return "\n".join(lines)


def cmd_bench(args) -> int:
    """Time run's own path without the artifact write: ingest the trace once,
    then sweep every machine as run sweeps its one."""
    started = time.perf_counter()
    ingested = _ingest_trace(args.trace)
    if isinstance(ingested, int):
        return ingested
    runtime, archive = ingested
    sweep_started = time.perf_counter()
    machines = sorted(archive.assets())
    if not machines:
        return _fail(EXIT_NO_DATA, "empty trace")
    try:
        for machine in machines:
            span = archive.time_span(machine)
            zeroconf_run(archive, machine, span, twin=runtime.get(machine))
    except TwinForgeError as exc:
        return _sweep_fail(exc)
    ended = time.perf_counter()
    total = sum(len(archive.scan(m)) for m in machines)
    elapsed = ended - started
    rate = int(total / elapsed) if elapsed > 0 else 0
    print(f"{rate} samples/s")
    times = f"ingest {sweep_started - started:.3f} s, sweep {ended - sweep_started:.3f} s"
    print(f"({total} samples, {len(machines)} machines, {times})", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinforge",
        description="Digital-twin runtime and ZeroConf pipeline orchestrator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a production-line scenario")
    p_sim.add_argument("--spec", help="scenario JSON file (overrides the flags)")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--duration", type=float, default=DEFAULT_DURATION_S)
    p_sim.add_argument("--machines", help="comma-separated machine ids")
    p_sim.add_argument("--rate", type=int, default=DEFAULT_SAMPLE_RATE, help="sample rate in Hz")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="ingest a trace and run the ZeroConf pipeline")
    p_run.add_argument("trace")
    p_run.add_argument("--machine", default=DEFAULT_MACHINES[0])
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="print the ranking table of a report")
    p_rep.add_argument("report")
    p_rep.set_defaults(func=cmd_report)

    p_bench = sub.add_parser("bench", help="measure pipeline throughput on a trace")
    p_bench.add_argument("trace")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader has gone: let nothing else try to reach it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())

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
from .errors import (
    EmptyGrid,
    InvalidSpec,
    MalformedLine,
    NoData,
    TwinForgeError,
    UnknownAsset,
)
from .orchestrator import (
    DEFAULT_GRID,
    DEFAULT_RARITY_THRESHOLD,
    RANKING_RULE,
    flag_anomalies,
    spawn_replica_grid,
    zeroconf_run,
)
from .simulate import (
    DEFAULT_DURATION_S,
    DEFAULT_MACHINES,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SEED,
    MachineState,
    PhaseInterval,
    ScenarioSpec,
    default_scenario,
    simulate_scenario,
)
from .twin import LifecycleEvent, TwinInstance, TwinRuntime
from .wire import TelemetrySample, replay_trace, write_trace

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_NO_DATA = 3
EXIT_PIPELINE = 4

FORMAT_VERSIONS = {"trace": 1, "report": 1, "timeline": 1, "anomalies": 1}


def _fail(code: int, message: str) -> int:
    print(f"twinforge: {message}", file=sys.stderr)
    return code


def _machine_id(value) -> str:
    """A machine id read from a scenario file, which must be a string."""
    if type(value) is not str:
        raise TypeError(f"machine id must be a string, got {value!r}")
    return value


def _integer(name: str, value) -> int:
    """An integer read from a scenario file, as the --seed and --rate flags
    take: a JSON integer, not a bool or a float."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value) -> float:
    """A time read from a scenario file: a JSON number, not a bool or a
    string."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def parse_scenario_file(path) -> ScenarioSpec:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise InvalidSpec(
            f"bad scenario file {path}: expected a JSON object, got {type(payload).__name__}"
        )
    try:
        machines = payload.get("machines", DEFAULT_MACHINES)
        if not isinstance(machines, (list, tuple)):  # a string would split into ids
            raise TypeError(f"machines must be a list, got {type(machines).__name__}")
        schedule = tuple(
            PhaseInterval(
                machine=_machine_id(iv["machine"]),
                start_s=_number("start_s", iv["start_s"]),
                end_s=_number("end_s", iv["end_s"]),
                state=MachineState[iv["state"]],
            )
            for iv in payload.get("schedule", [])
        )
        return ScenarioSpec(
            seed=_integer("seed", payload.get("seed", DEFAULT_SEED)),
            machines=tuple(machines),
            duration_s=_number("duration_s", payload.get("duration_s", DEFAULT_DURATION_S)),
            sample_rate=_integer("sample_rate", payload.get("sample_rate", DEFAULT_SAMPLE_RATE)),
            phase_schedule=schedule,
            failure_windows=tuple(
                (
                    _machine_id(w[0]),
                    _number("failure window start", w[1]),
                    _number("failure window end", w[2]),
                )
                for w in payload.get("failure_windows", [])
            ),
        )
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad scenario file {path}: {exc}") from exc


def _os_fail(what: str, path, exc: OSError) -> int:
    """Exit 2 for a path the OS refuses (missing, a directory, not writable)."""
    return _fail(EXIT_BAD_ARGS, f"{what} {path}: {exc.strerror or exc}")


def cmd_simulate(args) -> int:
    try:
        if args.spec:
            spec = parse_scenario_file(args.spec)
        else:
            machines = tuple(args.machines.split(",")) if args.machines else DEFAULT_MACHINES
            spec = default_scenario(
                seed=args.seed,
                duration_s=args.duration,
                machines=machines,
                sample_rate=args.rate,
            )
        spec.validate()
        samples, truth = simulate_scenario(spec)
    except (InvalidSpec, OSError, json.JSONDecodeError) as exc:
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


def _parse_grid(text: Optional[str]) -> Optional[dict]:
    """The --grid override (None: the default grid), checked before any
    ingest: a JSON object of value lists that spawn_replica_grid accepts.
    Raises InvalidSpec with a one-line reason otherwise."""
    if not text:
        return None
    try:
        grid = json.loads(text)
    except ValueError as exc:  # also an int past the interpreter's digit limit
        raise InvalidSpec(f"bad --grid JSON: {exc}") from exc
    if not isinstance(grid, dict):
        raise InvalidSpec(
            f"bad --grid: expected a JSON object of value lists, got {type(grid).__name__}"
        )
    try:
        spawn_replica_grid(grid)
    except (EmptyGrid, InvalidSpec) as exc:
        raise InvalidSpec(f"bad --grid: {exc}") from exc
    return grid


def report_payload(report, machine: str, seed: int, threshold: float) -> dict:
    """report.json's content for a sweep's ranked report."""
    replicas = []
    for r in report.results:
        anomaly_count = len(flag_anomalies(r.segments, threshold, machine=machine))
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
        "seed": seed,
        "rarity_threshold": threshold,
        "ranking_rule": RANKING_RULE,
        "selected": report.selected,
        "replicas": replicas,
    }


def cmd_run(args) -> int:
    try:
        grid = _parse_grid(args.grid)
    except InvalidSpec as exc:
        return _fail(EXIT_BAD_ARGS, str(exc))
    if not 0.0 <= args.threshold <= 1.0:  # also rejects nan
        return _fail(EXIT_BAD_ARGS, f"--threshold must be in [0, 1], got {args.threshold!r}")
    ingested = _ingest_trace(args.trace, args.machine)  # the one machine it sweeps
    if isinstance(ingested, int):
        return ingested
    runtime, archive = ingested

    twin = runtime.get(args.machine) if args.machine in runtime else None
    try:
        if twin is None:
            raise NoData(f"no samples for machine {args.machine!r}")
        report, timeline, anomalies = zeroconf_run(
            archive,
            args.machine,
            archive.time_span(args.machine),
            grid=grid,
            rarity_threshold=args.threshold,
            twin=twin,
            seed=args.seed,
        )
    except TwinForgeError as exc:
        return _sweep_fail(exc)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _os_fail("cannot create output directory", args.out, exc)
    payload = report_payload(report, args.machine, args.seed, args.threshold)
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
        "seed": args.seed,
        "rarity_threshold": args.threshold,
        "grid": grid if grid is not None else DEFAULT_GRID,
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
    except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON or UTF-8
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
    then sweep every machine with the default grid."""
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
            zeroconf_run(archive, machine, span, twin=runtime.get(machine), seed=args.seed)
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
    p_run.add_argument("--grid", help="JSON grid override, e.g. '{\"penalty\":[40]}'")
    p_run.add_argument("--threshold", type=float, default=DEFAULT_RARITY_THRESHOLD)
    p_run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="print the ranking table of a report")
    p_rep.add_argument("report")
    p_rep.set_defaults(func=cmd_report)

    p_bench = sub.add_parser("bench", help="measure pipeline throughput on a trace")
    p_bench.add_argument("trace")
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
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

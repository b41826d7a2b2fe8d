"""Whole-pipeline metamorphic invariants: `run` on a transform of a trace
writes the same artifact bytes as on the trace itself.

The trace is the default 120 s scenario at seed 42 for m1 and m2, and every
run sweeps m1. Each transform leaves what `run --machine m1` reads unchanged
up to a scale the pipeline normalizes away:
- m1's lines interleaved at random with m2's, keeping m1's order;
- every line re-serialized with its keys reversed and json.dumps' default
  spacing, so that decode takes its json.loads path instead of the regex;
- m1's accel values multiplied by 2**10, which is exact and which the
  z-score normalization removes;
- every ts shifted by +1000 s. The winner flags no anomaly on this trace, so
  no ts reaches the artifacts;
- the lines regrouped channel by channel, each channel in file order, so
  every channel after accel_x starts back at the trace's first ts and the
  archive reads its rows through its late-arrival permutation. A ts's lines
  keep their channel order, so the (ts, seq) order of each asset's rows is
  unchanged.

Every transform is also run on quiet-failure traces (60 s, m1) whose winner
flags the failure burst, interleaving m1 with the m2 lines of a 60 s default
scenario at the same seed. The other four transforms leave every artifact
byte-identical there too; under the ts shift every artifact is the same
except that each anomaly's ts moves by the shift.
"""
import json
import random
import re

import pytest

from twinforge.cli import main
from twinforge.simulate import default_scenario, quiet_failure_scenario, simulate_scenario
from twinforge.wire import encode_sample

ARTIFACTS = ("report.json", "timeline.csv", "changepoints.txt", "anomalies.json")
NS_PER_S = 10**9


def run_m1(trace_text: str, out) -> dict[str, bytes]:
    trace = out / "trace.jsonl"
    trace.write_text(trace_text, encoding="utf-8")
    assert main(["run", str(trace), "--machine", "m1", "--out", str(out / "run")]) == 0
    return {name: (out / "run" / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("metamorphic")
    assert main(["simulate", "--seed", "42", "--machines", "m1,m2", "--out", str(out)]) == 0
    return (out / "trace.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.fixture(scope="module")
def base_artifacts(trace_lines, tmp_path_factory):
    artifacts = run_m1("".join(trace_lines), tmp_path_factory.mktemp("base"))
    # the winner finds the schedule's three boundaries and flags nothing,
    # which the ts shift below relies on
    assert artifacts["changepoints.txt"] == b"110\n140\n230\n"
    assert artifacts["anomalies.json"] == b"[]\n"
    return artifacts


def interleave_machines(lines):
    m1 = [line for line in lines if '"asset":"m1"' in line]
    m2 = [line for line in lines if '"asset":"m1"' not in line]
    sources = [iter(m1)] * len(m1) + [iter(m2)] * len(m2)
    random.Random(7).shuffle(sources)
    # each machine's iterator is shared by its slots, so its order is kept
    return [next(source) for source in sources]


def reserialize(lines):
    return [json.dumps(dict(reversed(json.loads(line).items()))) + "\n" for line in lines]


_M1_ACCEL_VALUE = re.compile(r'("asset":"m1","ch":"accel_[xyz]","ts":[0-9]+,"v":)([^,]+)')
_TS = re.compile(r'"ts":([0-9]+)')


def scale_m1_accel(lines):
    # repr of a float is a number the canonical form accepts, so the lines
    # still take the regex path
    def scaled(m):
        return m[1] + repr(float(m[2]) * 2**10)

    return [_M1_ACCEL_VALUE.sub(scaled, line) for line in lines]


def shift_ts(lines):
    def shifted(m):
        return f'"ts":{int(m[1]) + 1000 * NS_PER_S}'

    return [_TS.sub(shifted, line) for line in lines]


_CHANNEL = re.compile(r'"ch":"([a-z_]+)"')


def channel_major(lines):
    # a stable sort by channel name: accel_x, accel_y, accel_z, plc_state
    return sorted(lines, key=lambda line: _CHANNEL.search(line)[1])


@pytest.mark.parametrize(
    "transform", [interleave_machines, reserialize, scale_m1_accel, shift_ts, channel_major],
    ids=lambda transform: transform.__name__,
)
def test_artifacts_are_invariant(trace_lines, base_artifacts, tmp_path, transform):
    transformed = transform(trace_lines)
    assert transformed != trace_lines
    assert run_m1("".join(transformed), tmp_path) == base_artifacts


def encode_lines(spec):
    samples, _ = simulate_scenario(spec)
    return [encode_sample(s) + "\n" for s in samples]


@pytest.fixture(scope="module", params=[3, 5])
def quiet_failure(request, tmp_path_factory):
    """A quiet-failure trace's seed, lines and artifacts, which flag at
    least one anomaly."""
    seed = request.param
    lines = encode_lines(quiet_failure_scenario(seed))
    artifacts = run_m1("".join(lines), tmp_path_factory.mktemp(f"quiet{seed}"))
    assert json.loads(artifacts["anomalies.json"])
    return seed, lines, artifacts


@pytest.mark.parametrize(
    "transform", [interleave_machines, reserialize, scale_m1_accel, channel_major],
    ids=lambda transform: transform.__name__,
)
def test_artifacts_with_anomalies_are_invariant(quiet_failure, tmp_path, transform):
    seed, lines, base = quiet_failure
    if transform is interleave_machines:
        m2 = encode_lines(default_scenario(seed, duration_s=60.0, machines=("m2",)))
        transformed = transform(lines + m2)
    else:
        transformed = transform(lines)
    assert transformed != lines
    assert run_m1("".join(transformed), tmp_path) == base


def test_ts_shift_moves_only_the_anomaly_ts(quiet_failure, tmp_path):
    _, lines, base = quiet_failure
    shifted = run_m1("".join(shift_ts(lines)), tmp_path)
    for name in ("report.json", "timeline.csv", "changepoints.txt"):
        assert shifted[name] == base[name], name
    anomalies = json.loads(base["anomalies.json"])
    for anomaly in anomalies:
        anomaly["ts"] += 1000 * NS_PER_S
    expected = json.dumps(anomalies, sort_keys=True, indent=1) + "\n"
    assert shifted["anomalies.json"] == expected.encode()

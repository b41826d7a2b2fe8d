"""Deterministic production-line simulator standing in for the physical
layer: four machines emitting three accelerometer channels plus a PLC state
channel, with a per-phase signal model and counter-based randomness.

All randomness is keyed on (seed, machine, channel, sample index), so streams
are bit-identical across runs and independent of generation order. Ground
truth (schedule boundaries, per-block phase labels, failure blocks) is
derived exactly from the scenario schedule for use as a validation oracle.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng
from .errors import InvalidSpec, shown
from .wire import ACCEL_CHANNELS, Channel, MachineState, Quality, TelemetrySample

NS_PER_S = 1_000_000_000

# Per-phase signal model: noise sigma, sinusoid amplitude (5 Hz), spike rate.
PHASE_NOISE_SIGMA = {
    MachineState.Idle: 0.05,
    MachineState.Active: 0.2,
    MachineState.Waiting: 0.1,
    MachineState.Failure: 0.2,
}
SINUSOID_HZ = 5.0
SINUSOID_AMPLITUDE = 1.0
SPIKE_RATE = 0.05
SPIKE_MAGNITUDE = 10.0

DEFAULT_SEED = 42
DEFAULT_DURATION_S = 120.0
DEFAULT_SAMPLE_RATE = 100
DEFAULT_MACHINES = ("m1", "m2", "m3", "m4")

# Most samples per channel a scenario may hold. The simulator draws each
# sample's gaussian from 12 uint64 counters, 96 bytes, and numpy refuses an
# array of 2**63 bytes or more: 2**56 samples take 1.5 * 2**62 bytes.
MAX_SAMPLES = 2**56


def _check_number(name: str, value) -> None:
    """A time is a number, not a bool, that a float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpec(f"{name} must be a number, got {shown(value)}")
    try:
        float(value)
    except OverflowError:
        raise InvalidSpec(f"{name} is past the float range") from None


@dataclass(frozen=True)
class PhaseInterval:
    machine: str
    start_s: float
    end_s: float
    state: MachineState


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = DEFAULT_SEED
    machines: tuple[str, ...] = DEFAULT_MACHINES
    duration_s: float = DEFAULT_DURATION_S
    sample_rate: int = DEFAULT_SAMPLE_RATE
    phase_schedule: tuple[PhaseInterval, ...] = ()
    failure_windows: tuple[tuple[str, float, float], ...] = ()

    def validate(self) -> None:
        """Raise InvalidSpec unless the simulator can run this spec, whoever
        built it (CLI flags, a file or a library); simulate_scenario runs it."""
        self._check_values()
        if self.duration_s == 0:
            return
        for machine in self.machines:
            intervals = self.intervals_for(machine)
            if not intervals:
                raise InvalidSpec(f"no schedule for machine {machine}")
            cursor = 0.0
            for iv in intervals:
                if iv.start_s != cursor:
                    raise InvalidSpec(
                        f"{machine}: schedule gap/overlap at {iv.start_s} (expected {cursor})"
                    )
                if iv.end_s <= iv.start_s:
                    raise InvalidSpec(f"{machine}: empty interval {iv}")
                cursor = iv.end_s
            if cursor != self.duration_s:
                raise InvalidSpec(
                    f"{machine}: schedule covers [0, {cursor}) != [0, {self.duration_s})"
                )
        failure_ivs = {
            (iv.machine, iv.start_s, iv.end_s)
            for iv in self.phase_schedule
            if iv.state is MachineState.Failure
        }
        for window in self.failure_windows:
            if window not in failure_ivs:
                raise InvalidSpec(f"failure window {window} not a Failure interval")

    def _check_values(self) -> None:
        """Every check but the schedule's coverage, run at any duration;
        default_scenario runs them before it rounds any phase boundary."""
        rng.check_seed(self.seed)
        # a float rate stamps float timestamps
        if isinstance(self.sample_rate, bool) or not isinstance(self.sample_rate, int):
            raise InvalidSpec(f"sample_rate must be an integer, got {shown(self.sample_rate)}")
        _check_number("duration_s", self.duration_s)
        if not isinstance(self.machines, (list, tuple)):  # a string would split into ids
            raise InvalidSpec(f"machines must be a list, got {type(self.machines).__name__}")
        if self.sample_rate < 1:
            raise InvalidSpec("sample_rate must be >= 1")
        if not math.isfinite(self.duration_s):
            raise InvalidSpec(f"duration must be finite, got {self.duration_s!r}")
        if self.duration_s < 0:
            raise InvalidSpec("duration must be >= 0")
        # the rate is checked alone first: an int past the float range cannot
        # be multiplied by a float
        if self.sample_rate > MAX_SAMPLES or self.duration_s * self.sample_rate > MAX_SAMPLES:
            raise InvalidSpec("duration times sample_rate must be at most 2**56 samples per channel")
        if not self.machines:
            raise InvalidSpec("at least one machine required")
        for machine in self.machines:
            if type(machine) is not str or not machine or "/" in machine:
                raise InvalidSpec(f"bad machine id {shown(machine)}")
        if len(set(self.machines)) != len(self.machines):
            raise InvalidSpec("duplicate machine ids")
        for iv in self.phase_schedule:
            self._check_listed("schedule interval", iv.machine)
            _check_number("start_s", iv.start_s)
            _check_number("end_s", iv.end_s)
            if not isinstance(iv.state, MachineState):  # an int would pass every == test
                raise InvalidSpec(f"state must be a MachineState, got {shown(iv.state)}")
        for window in self.failure_windows:
            if not isinstance(window, tuple) or len(window) != 3:
                got = shown(list(window) if isinstance(window, tuple) else window)  # as the file's list
                raise InvalidSpec(f"a failure window is [machine, start, end], got {got}")
            self._check_listed("failure window", window[0])
            _check_number("failure window start", window[1])
            _check_number("failure window end", window[2])

    def _check_listed(self, what: str, machine) -> None:
        if type(machine) is not str:
            raise InvalidSpec(f"machine id must be a string, got {shown(machine)}")
        if machine not in self.machines:
            raise InvalidSpec(f"{what} names machine {machine!r}, which is not in machines")

    def intervals_for(self, machine: str) -> list[PhaseInterval]:
        return sorted(
            (iv for iv in self.phase_schedule if iv.machine == machine),
            key=lambda iv: iv.start_s,
        )


def _snap(x: float) -> float:
    """Round to the nearest 0.5 s, the phase-boundary grid."""
    return round(x * 2) / 2


def default_scenario(
    seed: int = DEFAULT_SEED,
    duration_s: float = DEFAULT_DURATION_S,
    machines: tuple[str, ...] = DEFAULT_MACHINES,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> ScenarioSpec:
    """Default desk-scale scenario: Idle -> Active -> Waiting -> Failure per
    machine (three operational phases plus one failure window, ~4% of the
    run).

    The ordering alternates quiet and vibrating phases so every boundary
    stays a strong contrast after outlier cleaning, and boundaries snap to
    0.5 s so block grids at 25 and 50 samples land exactly on them.
    """
    ScenarioSpec(seed, machines, duration_s, sample_rate)._check_values()
    bounds = [_snap(duration_s * f) for f in (11 / 24, 14 / 24, 23 / 24)]
    if not 0 < bounds[0] < bounds[1] < bounds[2] < duration_s:
        bounds = [_snap(duration_s * f) for f in (0.25, 0.5, 0.75)]
    four_phases = 0 < bounds[0] < bounds[1] < bounds[2] < duration_s
    states = (MachineState.Idle, MachineState.Active, MachineState.Waiting, MachineState.Failure)

    schedule = []
    failures = []
    for machine in machines:
        if four_phases:
            edges = [0.0, *bounds, duration_s]
            for state, (a, b) in zip(states, zip(edges[:-1], edges[1:])):
                schedule.append(PhaseInterval(machine, a, b, state))
                if state is MachineState.Failure:
                    failures.append((machine, a, b))
        elif duration_s > 0:
            # too short for a snapped four-phase layout: idle throughout
            schedule.append(PhaseInterval(machine, 0.0, duration_s, MachineState.Idle))
    return ScenarioSpec(
        seed=seed,
        machines=tuple(machines),
        duration_s=duration_s,
        sample_rate=sample_rate,
        phase_schedule=tuple(schedule),
        failure_windows=tuple(failures),
    )


def quiet_failure_scenario(seed: int, duration: float = 60.0) -> ScenarioSpec:
    """Quiet operation (idle/waiting) on machine m1 with one failure burst
    covering roughly 2.5-4.2% of blocks; the layout varies deterministically
    with the seed.

    Used for anomaly-detection experiments and fixtures: after outlier
    cleaning the failure burst keeps its vibration signature, which has no
    quiet-phase lookalike, so it forms the rare cluster.
    """
    key = rng.stream_key(seed, "layout")
    u = rng.uniforms(key, np.arange(4, dtype=np.uint64))
    fail_len = 1.5 + 0.5 * int(u[0] * 3)  # 1.5 / 2.0 / 2.5 s
    a = _snap(duration * (0.20 + 0.15 * u[2]))
    fail_start = _snap(duration * (0.45 + 0.30 * u[1]))
    states = [MachineState.Idle, MachineState.Waiting]
    if u[3] < 0.5:
        states = states[::-1]
    m = "m1"
    schedule = (
        PhaseInterval(m, 0.0, a, states[0]),
        PhaseInterval(m, a, fail_start, states[1]),
        PhaseInterval(m, fail_start, fail_start + fail_len, MachineState.Failure),
        PhaseInterval(m, fail_start + fail_len, duration, states[0]),
    )
    return ScenarioSpec(
        seed=seed,
        machines=(m,),
        duration_s=duration,
        sample_rate=100,
        phase_schedule=schedule,
        failure_windows=((m, fail_start, fail_start + fail_len),),
    )


@dataclass(frozen=True)
class MachineTruth:
    """Schedule truth for one machine, projectable onto any block grid."""

    n_samples: int
    sample_rate: int
    boundaries: tuple[int, ...]  # interior boundaries, in sample index
    phases: tuple[MachineState, ...]  # one per schedule interval

    def change_point_blocks(self, block_size: int) -> tuple[int, ...]:
        n_blocks = -(-self.n_samples // block_size)
        out = []
        for b in self.boundaries:
            cp = min(max(round(b / block_size), 1), n_blocks - 1)
            out.append(int(cp))
        return tuple(out)

    def block_labels(self, block_size: int) -> tuple[MachineState, ...]:
        """Majority phase per block."""
        bounds = (0,) + self.boundaries + (self.n_samples,)
        labels = []
        for start in range(0, self.n_samples, block_size):
            end = min(start + block_size, self.n_samples)
            best, best_overlap = None, -1
            for phase, (a, b) in zip(self.phases, zip(bounds[:-1], bounds[1:])):
                overlap = min(end, b) - max(start, a)
                if overlap > best_overlap:
                    best, best_overlap = phase, overlap
            labels.append(best)
        return tuple(labels)

    def anomaly_blocks(self, block_size: int) -> frozenset[int]:
        return frozenset(
            i
            for i, phase in enumerate(self.block_labels(block_size))
            if phase is MachineState.Failure
        )


@dataclass(frozen=True)
class GroundTruth:
    machines: Mapping[str, MachineTruth]

    def to_json(self) -> str:
        payload = {
            machine: {
                "n_samples": t.n_samples,
                "sample_rate": t.sample_rate,
                "boundaries": list(t.boundaries),
                "phases": [p.name for p in t.phases],
            }
            for machine, t in self.machines.items()
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _axis_values(spec: ScenarioSpec, machine: str, channel: Channel):
    """Accelerometer values for one (machine, channel) pair, vectorized."""
    n = int(round(spec.duration_s * spec.sample_rate))
    key = rng.stream_key(spec.seed, machine, channel.value)
    idx = np.arange(n, dtype=np.uint64)
    noise = rng.gaussians(key, idx)
    t = np.arange(n, dtype=np.float64) / spec.sample_rate
    sinusoid = SINUSOID_AMPLITUDE * np.sin(2.0 * math.pi * SINUSOID_HZ * t)
    spikes = rng.bernoulli(key, idx, SPIKE_RATE)

    values = np.zeros(n)
    for iv in spec.intervals_for(machine):
        lo = int(round(iv.start_s * spec.sample_rate))
        hi = min(int(round(iv.end_s * spec.sample_rate)), n)
        sl = slice(lo, hi)
        sigma = PHASE_NOISE_SIGMA[iv.state]
        values[sl] = sigma * noise[sl]
        if iv.state in (MachineState.Active, MachineState.Failure):
            values[sl] += sinusoid[sl]
        if iv.state is MachineState.Failure:
            values[sl] += SPIKE_MAGNITUDE * spikes[sl]
    return values


def simulate_scenario(spec: ScenarioSpec) -> tuple[list[TelemetrySample], GroundTruth]:
    """Simulate the scenario into an ordered sample stream plus its ground
    truth. Output is a pure function of the scenario spec."""
    spec.validate()
    n = int(round(spec.duration_s * spec.sample_rate))
    samples: list[TelemetrySample] = []
    truths: dict[str, MachineTruth] = {}

    for machine in spec.machines:
        intervals = spec.intervals_for(machine) if n else []
        for channel in ACCEL_CHANNELS:
            if n == 0:
                continue
            values = _axis_values(spec, machine, channel)
            for i in range(n):
                samples.append(
                    TelemetrySample(
                        asset_id=machine,
                        channel=channel,
                        ts=i * NS_PER_S // spec.sample_rate,
                        value=float(values[i]),
                        quality=Quality.good,
                    )
                )
        for iv in intervals:
            samples.append(
                TelemetrySample(
                    asset_id=machine,
                    channel=Channel.plc_state,
                    ts=int(round(iv.start_s * spec.sample_rate)) * NS_PER_S // spec.sample_rate,
                    value=float(iv.state.value),
                    quality=Quality.good,
                )
            )
        boundaries = tuple(
            int(round(iv.start_s * spec.sample_rate)) for iv in intervals[1:]
        )
        truths[machine] = MachineTruth(
            n_samples=n,
            sample_rate=spec.sample_rate,
            boundaries=boundaries,
            phases=tuple(iv.state for iv in intervals),
        )

    samples.sort(key=lambda s: (s.ts, s.asset_id, s.channel.value))
    return samples, GroundTruth(machines=truths)

import dataclasses
import json

import numpy as np
import pytest
from conftest import HUGE_INT, HUGE_INT_SHOWN

from twinforge.errors import InvalidSpec
from twinforge.rng import check_seed
from twinforge.simulate import (
    PhaseInterval,
    ScenarioSpec,
    default_scenario,
    quiet_failure_scenario,
    simulate_scenario,
)
from twinforge.wire import ACCEL_CHANNELS, Channel, MachineState, encode_sample


def cyclic_list(item):
    """[item, the list itself]."""
    out = [item]
    out.append(out)
    return out


def tiny_spec(seed=1, duration=4.0, machine="m1"):
    schedule = (
        PhaseInterval(machine, 0.0, 2.0, MachineState.Idle),
        PhaseInterval(machine, 2.0, 3.0, MachineState.Failure),
        PhaseInterval(machine, 3.0, duration, MachineState.Waiting),
    )
    return ScenarioSpec(
        seed=seed,
        machines=(machine,),
        duration_s=duration,
        sample_rate=100,
        phase_schedule=schedule,
        failure_windows=((machine, 2.0, 3.0),),
    )


class TestSpecValidation:
    def test_default_scenario_is_valid(self):
        default_scenario().validate()

    def test_gap_rejected(self):
        spec = ScenarioSpec(
            machines=("m1",),
            duration_s=2.0,
            phase_schedule=(PhaseInterval("m1", 0.0, 1.0, MachineState.Idle),),
        )
        with pytest.raises(InvalidSpec):
            spec.validate()

    def test_overlap_rejected(self):
        spec = ScenarioSpec(
            machines=("m1",),
            duration_s=2.0,
            phase_schedule=(
                PhaseInterval("m1", 0.0, 1.5, MachineState.Idle),
                PhaseInterval("m1", 1.0, 2.0, MachineState.Active),
            ),
        )
        with pytest.raises(InvalidSpec):
            spec.validate()

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_rejected(self, duration):
        spec = ScenarioSpec(
            machines=("m1",),
            duration_s=duration,
            phase_schedule=(PhaseInterval("m1", 0.0, duration, MachineState.Idle),),
        )
        with pytest.raises(InvalidSpec, match="finite"):
            spec.validate()
        # the default layout rounds its boundaries: the check runs first
        with pytest.raises(InvalidSpec, match="finite"):
            default_scenario(duration_s=duration)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # a float rate would stamp float timestamps that no trace reader accepts
            ({"sample_rate": 2.5, "duration_s": 4.0}, "sample_rate must be an integer, got 2.5"),
            ({"sample_rate": True}, "sample_rate must be an integer, got True"),
            # a bool seed would key the streams of seed 1
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": 4.0}, "seed must be an integer, got 4.0"),
            ({"duration_s": "4"}, "duration_s must be a number, got '4'"),
            ({"duration_s": False}, "duration_s must be a number, got False"),
            # tuple() would split a string into the machines 'm' and '1'
            ({"machines": "m1"}, "machines must be a list, got str"),
            # and a dict into its keys
            ({"machines": {"m1": 1}}, "machines must be a list, got dict"),
            # no float holds it, so it is no duration
            ({"duration_s": 10**400}, "duration_s is past the float range"),
        ],
        ids=["float-rate", "bool-rate", "bool-seed", "float-seed", "string-duration",
             "bool-duration", "string-machines", "dict-machines", "duration-past-float"],
    )
    def test_default_scenario_refuses_wrong_scalar_types(self, kwargs, message):
        with pytest.raises(InvalidSpec) as info:
            default_scenario(**kwargs)
        assert str(info.value) == message
        with pytest.raises(InvalidSpec) as info:
            ScenarioSpec(**kwargs).validate()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"phase_schedule": (PhaseInterval("m1", False, 2.0, MachineState.Idle),)},
             "start_s must be a number, got False"),
            ({"phase_schedule": (PhaseInterval("m1", 0.0, "2", MachineState.Idle),)},
             "end_s must be a number, got '2'"),
            # an int state would pass every == test and fail once simulated
            ({"phase_schedule": (PhaseInterval("m1", 0.0, 2.0, 0),)},
             "state must be a MachineState, got 0"),
            ({"phase_schedule": (PhaseInterval(("m1",), 0.0, 2.0, MachineState.Idle),)},
             "machine id must be a string, got ('m1',)"),
            ({"phase_schedule": (*tiny_spec().phase_schedule,
                                 PhaseInterval("m2", 0.0, 4.0, MachineState.Idle))},
             "schedule interval names machine 'm2', which is not in machines"),
            ({"failure_windows": (("m1", 2.0),)},
             "a failure window is [machine, start, end], got ['m1', 2.0]"),
            ({"failure_windows": ("m1",)},
             "a failure window is [machine, start, end], got 'm1'"),
            ({"failure_windows": (("m2", 2.0, 3.0),)},
             "failure window names machine 'm2', which is not in machines"),
            ({"failure_windows": (("m1", 2.0, None),)},
             "failure window end must be a number, got None"),
            # the checks do not wait for a schedule: a zero duration has none
            ({"duration_s": 0.0, "phase_schedule": (), "failure_windows": (("m1", 0.0),)},
             "a failure window is [machine, start, end], got ['m1', 0.0]"),
        ],
        ids=["bool-start", "string-end", "int-state", "tuple-machine", "unlisted-machine",
             "short-window", "string-window", "unlisted-window-machine", "null-window-end",
             "zero-duration"],
    )
    def test_spec_refuses_wrong_interval_and_window_values(self, changes, message):
        spec = dataclasses.replace(tiny_spec(), **changes)
        with pytest.raises(InvalidSpec) as info:
            spec.validate()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: check_seed(HUGE_INT), f"seed must be in [0, 2**64), got {HUGE_INT_SHOWN}"),
            (lambda: ScenarioSpec(seed=HUGE_INT, duration_s=0.0).validate(),
             f"seed must be in [0, 2**64), got {HUGE_INT_SHOWN}"),
            (lambda: ScenarioSpec(machines=(HUGE_INT,), duration_s=0.0).validate(),
             f"bad machine id {HUGE_INT_SHOWN}"),
            (lambda: ScenarioSpec(machines=("m1",), duration_s=0.0, phase_schedule=(
                PhaseInterval(HUGE_INT, 0.0, 1.0, MachineState.Idle),)).validate(),
             f"machine id must be a string, got {HUGE_INT_SHOWN}"),
            (lambda: ScenarioSpec(machines=("m1",), duration_s=0.0, phase_schedule=(
                PhaseInterval("m1", 0.0, 1.0, HUGE_INT),)).validate(),
             f"state must be a MachineState, got {HUGE_INT_SHOWN}"),
            (lambda: ScenarioSpec(duration_s=0.0, failure_windows=(("m1", HUGE_INT),)).validate(),
             f"a failure window is [machine, start, end], got ['m1', {HUGE_INT_SHOWN}]"),
            (lambda: ScenarioSpec(duration_s=0.0, failure_windows=(["m1", 0, HUGE_INT],)).validate(),
             f"a failure window is [machine, start, end], got ['m1', 0, {HUGE_INT_SHOWN}]"),
            # an int inside another value is named inside that value's text
            (lambda: ScenarioSpec(duration_s=0.0, machines=([HUGE_INT],)).validate(),
             f"bad machine id [{HUGE_INT_SHOWN}]"),
            (lambda: ScenarioSpec(duration_s=0.0, failure_windows=(([HUGE_INT], 0, 1),)).validate(),
             f"machine id must be a string, got [{HUGE_INT_SHOWN}]"),
            (lambda: ScenarioSpec(duration_s=0.0, failure_windows=(("m1", [HUGE_INT]),)).validate(),
             f"a failure window is [machine, start, end], got ['m1', [{HUGE_INT_SHOWN}]]"),
            (lambda: ScenarioSpec(duration_s=0.0, machines=((HUGE_INT,),)).validate(),
             f"bad machine id ({HUGE_INT_SHOWN},)"),
            (lambda: ScenarioSpec(duration_s=0.0, machines=({"m1": HUGE_INT},)).validate(),
             "bad machine id a dict too long to print"),
            # a list inside itself is [...], as repr shows it, not endless recursion
            (lambda: ScenarioSpec(duration_s=0.0, machines=(cyclic_list(HUGE_INT),)).validate(),
             f"bad machine id [{HUGE_INT_SHOWN}, [...]]"),
            (lambda: ScenarioSpec(sample_rate=[HUGE_INT]).validate(),
             f"sample_rate must be an integer, got [{HUGE_INT_SHOWN}]"),
            (lambda: ScenarioSpec(duration_s=[HUGE_INT]).validate(),
             f"duration_s must be a number, got [{HUGE_INT_SHOWN}]"),
        ],
        ids=["check-seed", "spec-seed", "spec-machine", "interval-machine", "interval-state",
             "short-window", "list-window", "nested-machine", "nested-window-machine",
             "nested-window-item", "tuple-machine", "dict-machine", "cyclic-machine",
             "listed-rate", "listed-duration"],
    )
    def test_an_int_too_long_to_print_is_shown_by_its_size(self, int_text_limit, call, message):
        # repr and str refuse such an int with ValueError; the text names its size
        with pytest.raises(InvalidSpec) as info:
            call()
        assert str(info.value) == message

    def test_spec_refuses_a_string_of_machines(self):
        spec = ScenarioSpec(machines="m1", duration_s=0.0)
        with pytest.raises(InvalidSpec, match="^machines must be a list, got str$"):
            spec.validate()

    def test_quiet_failure_scenario_is_valid(self):
        for seed in range(1, 21):
            spec = quiet_failure_scenario(seed)
            spec.validate()
            (_, start, end), = spec.failure_windows
            assert 1.5 <= end - start <= 2.5 and spec.duration_s == 60.0

    def test_failure_window_must_match_schedule(self):
        spec = ScenarioSpec(
            machines=("m1",),
            duration_s=1.0,
            phase_schedule=(PhaseInterval("m1", 0.0, 1.0, MachineState.Idle),),
            failure_windows=(("m1", 0.0, 1.0),),
        )
        with pytest.raises(InvalidSpec):
            spec.validate()


class TestDeterminism:
    def test_byte_identical_streams(self):
        a, _ = simulate_scenario(tiny_spec())
        b, _ = simulate_scenario(tiny_spec())
        assert [encode_sample(s) for s in a] == [encode_sample(s) for s in b]

    def test_seed_changes_stream(self):
        a, _ = simulate_scenario(tiny_spec(seed=1))
        b, _ = simulate_scenario(tiny_spec(seed=2))
        assert [s.value for s in a] != [s.value for s in b]

    def test_ground_truth_pure_function_of_spec(self):
        _, ta = simulate_scenario(tiny_spec())
        _, tb = simulate_scenario(tiny_spec())
        assert ta == tb


class TestStream:
    def test_duration_zero_empty(self):
        spec = ScenarioSpec(machines=("m1",), duration_s=0.0)
        samples, truth = simulate_scenario(spec)
        assert samples == []
        assert truth.machines["m1"].boundaries == ()

    def test_per_channel_timestamps_strictly_increase(self):
        samples, _ = simulate_scenario(tiny_spec())
        for ch in ACCEL_CHANNELS:
            ts = [s.ts for s in samples if s.channel is ch]
            deltas = set(np.diff(ts).tolist())
            assert deltas == {10_000_000}  # 1/100 s in ns

    def test_plc_events_at_phase_changes(self):
        samples, _ = simulate_scenario(tiny_spec())
        plc = [s for s in samples if s.channel is Channel.plc_state]
        assert [(s.ts, s.value) for s in plc] == [
            (0, 0.0),
            (2 * 10**9, 3.0),
            (3 * 10**9, 2.0),
        ]

    def test_stream_sorted_by_ts(self):
        samples, _ = simulate_scenario(tiny_spec())
        keys = [(s.ts, s.asset_id, s.channel.value) for s in samples]
        assert keys == sorted(keys)

    def test_phase_signal_levels(self):
        samples, _ = simulate_scenario(tiny_spec(duration=4.0))
        x = np.array(
            [s.value for s in samples if s.channel is Channel.accel_x]
        )
        idle, failure, waiting = x[:200], x[200:300], x[300:]
        assert idle.std() < 0.1
        assert waiting.std() < 0.2
        assert failure.max() > 5.0  # spikes present
        assert np.abs(failure[np.abs(failure) < 5]).max() > 0.5  # sinusoid present


class TestGroundTruth:
    def test_boundaries_count_matches_schedule(self):
        _, truth = simulate_scenario(tiny_spec())
        assert truth.machines["m1"].boundaries == (200, 300)

    def test_block_projection(self):
        _, truth = simulate_scenario(tiny_spec())
        mt = truth.machines["m1"]
        assert mt.change_point_blocks(50) == (4, 6)
        assert mt.change_point_blocks(25) == (8, 12)
        labels = mt.block_labels(50)
        assert labels[:4] == (MachineState.Idle,) * 4
        assert labels[4:6] == (MachineState.Failure,) * 2
        assert labels[6:] == (MachineState.Waiting,) * 2

    def test_failure_window_maps_to_anomaly_blocks(self):
        spec = tiny_spec(duration=6.0)
        # move failure to [3.0, 3.5): blocks 6 at size 50
        schedule = (
            PhaseInterval("m1", 0.0, 3.0, MachineState.Idle),
            PhaseInterval("m1", 3.0, 3.5, MachineState.Failure),
            PhaseInterval("m1", 3.5, 6.0, MachineState.Waiting),
        )
        spec = ScenarioSpec(
            seed=1,
            machines=("m1",),
            duration_s=6.0,
            sample_rate=100,
            phase_schedule=schedule,
            failure_windows=(("m1", 3.0, 3.5),),
        )
        _, truth = simulate_scenario(spec)
        assert truth.machines["m1"].anomaly_blocks(50) == frozenset({6})
        assert truth.machines["m1"].anomaly_blocks(25) == frozenset({12, 13})

    def test_json_round_trip(self):
        _, truth = simulate_scenario(tiny_spec())
        # every MachineTruth field, with phases by name
        assert json.loads(truth.to_json()) == {
            machine: {
                **dataclasses.asdict(t),
                "boundaries": list(t.boundaries),
                "phases": [p.name for p in t.phases],
            }
            for machine, t in truth.machines.items()
        }

    def test_default_scenario_shape(self):
        spec = default_scenario()
        samples, truth = simulate_scenario(spec)
        assert len(spec.machines) == 4
        mt = truth.machines["m1"]
        assert mt.phases == (
            MachineState.Idle,
            MachineState.Active,
            MachineState.Waiting,
            MachineState.Failure,
        )
        # failure window below the 5% rarity threshold at both block grids
        for bs in (25, 50):
            n_blocks = -(-mt.n_samples // bs)
            assert 0 < len(mt.anomaly_blocks(bs)) / n_blocks < 0.05

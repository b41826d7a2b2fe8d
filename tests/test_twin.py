import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinforge.errors import (
    DuplicateAssetId,
    InvalidAssetId,
    InvalidTransition,
    TwinNotBound,
)
from twinforge.twin import (
    DEFAULT_FRESHNESS_TIMEOUT_NS,
    LifecycleEvent,
    LifecyclePhase,
    MachineState,
    OeeInputs,
    TwinInstance,
    TwinRuntime,
    compute_oee,
)
from twinforge.wire import Channel, Quality, TelemetrySample


def sample(channel=Channel.accel_x, ts=0, value=0.0, asset="drill-1"):
    return TelemetrySample(asset_id=asset, channel=channel, ts=ts, value=value)


def synced_twin(asset="drill-1"):
    twin = TwinInstance(asset)
    twin.apply_lifecycle_event(LifecycleEvent.Bind)
    twin.apply_lifecycle_event(LifecycleEvent.SyncEstablished)
    return twin


class TestRuntime:
    def test_create_twin_starts_unbound(self):
        runtime = TwinRuntime()
        twin = runtime.create_twin("drill-1", {"downstream": "oven-1"})
        assert twin.phase is LifecyclePhase.Unbound
        snap = twin.snapshot_state()
        assert snap.properties == {}
        assert snap.events == ()
        assert snap.relationships == {"downstream": "oven-1"}

    def test_empty_id_rejected(self):
        with pytest.raises(InvalidAssetId):
            TwinRuntime().create_twin("")

    def test_duplicate_id_rejected(self):
        runtime = TwinRuntime()
        runtime.create_twin("drill-1")
        with pytest.raises(DuplicateAssetId):
            runtime.create_twin("drill-1")


class TestLifecycle:
    def test_bind_reaches_bound(self):
        twin = TwinInstance("m")
        assert twin.apply_lifecycle_event(LifecycleEvent.Bind) is LifecyclePhase.Bound

    def test_sync_lost_from_synchronized(self):
        twin = synced_twin()
        assert (
            twin.apply_lifecycle_event(LifecycleEvent.SyncLost)
            is LifecyclePhase.OutOfSync
        )

    def test_rejected_pair_keeps_phase(self):
        twin = synced_twin()
        twin.apply_lifecycle_event(LifecycleEvent.WorkComplete)
        assert twin.phase is LifecyclePhase.Done
        with pytest.raises(InvalidTransition):
            twin.apply_lifecycle_event(LifecycleEvent.Bind)
        assert twin.phase is LifecyclePhase.Done

    def test_fault_from_stopped_loops_to_unbound(self):
        twin = synced_twin()
        twin.apply_lifecycle_event(LifecycleEvent.WorkComplete)
        twin.apply_lifecycle_event(LifecycleEvent.Stop)
        assert twin.phase is LifecyclePhase.Stopped
        assert twin.apply_lifecycle_event(LifecycleEvent.Fault) is LifecyclePhase.Unbound


class TestShadowing:
    def test_plc_transition_emits_state_changed(self):
        twin = synced_twin()
        twin.shadow_sample(sample(Channel.plc_state, ts=1, value=0.0))
        assert twin.shadow_sample(sample(Channel.plc_state, ts=2, value=1.0)) is True
        state = twin.snapshot_state()
        assert state.properties["machine_state"] == (MachineState.Active, 2)
        assert [e.name for e in state.events] == ["state_changed", "state_changed"]
        assert state.events[-1].ts == 2
        assert state.events[-1].payload == {
            "from": MachineState.Idle,
            "to": MachineState.Active,
        }

    def test_accel_updates_property_without_event(self):
        twin = synced_twin()
        assert twin.shadow_sample(sample(Channel.accel_x, ts=5, value=0.25)) is True
        state = twin.snapshot_state()
        assert state.properties == {"accel_x": (0.25, 5)}
        assert state.events == ()

    def test_stale_sample_flagged_and_dropped(self):
        twin = synced_twin()
        twin.shadow_sample(sample(Channel.accel_x, ts=10, value=1.0))
        assert twin.shadow_sample(sample(Channel.accel_x, ts=9, value=2.0)) is False
        state = twin.snapshot_state()
        assert state.properties == {"accel_x": (1.0, 10)}
        assert state.events == ()

    @pytest.mark.parametrize("code", [7.0, -2.5, 4.0, -1.0, 2.5, -0.5])
    def test_plc_code_naming_no_state_is_dropped(self, code):
        # decode_sample range-checks plc codes only at quality good, so a
        # suspect or missing sample can carry any finite code
        twin = synced_twin()
        twin.shadow_sample(sample(Channel.plc_state, ts=1, value=1.0))
        odd = TelemetrySample("drill-1", Channel.plc_state, 2, code, Quality.suspect)
        assert twin.shadow_sample(odd) is False
        state = twin.snapshot_state()
        assert state.properties == {"machine_state": (MachineState.Active, 1)}
        assert [e.payload["to"] for e in state.events] == [MachineState.Active]

    @pytest.mark.parametrize("code, state", [(2.0, MachineState.Waiting), (-0.0, MachineState.Idle)])
    def test_plc_code_is_looked_up_as_it_is(self, code, state):
        twin = synced_twin()
        odd = TelemetrySample("drill-1", Channel.plc_state, 1, code, Quality.missing)
        assert twin.shadow_sample(odd) is True
        assert twin.snapshot_state().properties["machine_state"] == (state, 1)

    def test_unbound_twin_rejects_samples(self):
        twin = TwinInstance("m")
        with pytest.raises(TwinNotBound):
            twin.shadow_sample(sample())

    def test_sample_in_out_of_sync_recovers(self):
        twin = synced_twin()
        twin.apply_lifecycle_event(LifecycleEvent.SyncLost)
        assert twin.phase is LifecyclePhase.OutOfSync
        assert twin.shadow_sample(sample(ts=1)) is True
        assert twin.phase is LifecyclePhase.Synchronized

    def test_property_timestamps_non_decreasing(self):
        twin = synced_twin()
        for ts in (3, 1, 4, 4, 2, 9):
            twin.shadow_sample(sample(ts=ts, value=float(ts)))
        assert twin.snapshot_state().properties["accel_x"] == (9.0, 9)

    def test_identical_sequences_identical_snapshots(self):
        seq = [
            sample(Channel.accel_y, ts=1, value=0.5),
            sample(Channel.plc_state, ts=2, value=2.0),
            sample(Channel.accel_y, ts=3, value=0.7),
        ]
        twins = [synced_twin(), synced_twin()]
        for twin in twins:
            for s in seq:
                twin.shadow_sample(s)
        assert twins[0].snapshot_state() == twins[1].snapshot_state()


class TestFreshness:
    S = 1_000_000_000

    def test_sync_lost_past_timeout(self):
        twin = synced_twin()
        twin.shadow_sample(sample(ts=0))
        assert (
            twin.check_freshness(now=6 * self.S, timeout=5 * self.S)
            is LifecycleEvent.SyncLost
        )

    def test_fresh_within_window(self):
        twin = synced_twin()
        twin.shadow_sample(sample(ts=4 * self.S))
        assert twin.check_freshness(now=6 * self.S, timeout=5 * self.S) is None

    def test_only_synchronized_degrades(self):
        twin = TwinInstance("m")
        twin.apply_lifecycle_event(LifecycleEvent.Bind)
        assert twin.check_freshness(now=100 * self.S) is None

    def test_default_timeout_is_5s(self):
        assert DEFAULT_FRESHNESS_TIMEOUT_NS == 5 * self.S


class TestSnapshot:
    def test_snapshot_is_isolated_from_later_mutation(self):
        twin = synced_twin()
        twin.shadow_sample(sample(ts=1, value=1.0))
        snap = twin.snapshot_state()
        twin.shadow_sample(sample(ts=2, value=2.0))
        assert snap.properties["accel_x"] == (1.0, 1)

    def test_snapshot_after_three_shadows(self):
        twin = synced_twin()
        for ch in (Channel.accel_x, Channel.accel_y, Channel.accel_z):
            twin.shadow_sample(sample(ch, ts=7))
        props = twin.snapshot_state().properties
        assert {name: ts for name, (_, ts) in props.items()} == {
            "accel_x": 7,
            "accel_y": 7,
            "accel_z": 7,
        }


class TestOee:
    def test_worked_example(self):
        assert compute_oee(OeeInputs(90, 10, 45, 50, 1.0)) == pytest.approx(0.81)

    def test_zero_uptime(self):
        assert compute_oee(OeeInputs(0, 10, 30, 50, 1.0)) == 0.0

    def test_perfect_run(self):
        assert compute_oee(OeeInputs(100, 0, 50, 50, 1.0)) == 1.0

    def test_over_ideal_rate_clamped(self):
        assert compute_oee(OeeInputs(100, 0, 80, 50, 1.0)) == 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            OeeInputs(-1, 0, 1, 1, 1.0)
        with pytest.raises(ValueError):
            OeeInputs(1, 0, 1, 0, 1.0)
        with pytest.raises(ValueError):
            OeeInputs(1, 0, 1, 1, 1.5)

    @given(
        uptime=st.floats(0, 1e6),
        downtime=st.floats(0, 1e6),
        actual=st.floats(0, 1e6),
        ideal=st.floats(1e-3, 1e6),
        q=st.floats(0, 1),
    )
    def test_bounds(self, uptime, downtime, actual, ideal, q):
        value = compute_oee(OeeInputs(uptime, downtime, actual, ideal, q))
        assert 0.0 <= value <= 1.0

    @given(
        uptime=st.floats(0, 1e6),
        downtime=st.floats(0.001, 1e6),
        extra=st.floats(0.001, 1e6),
        actual=st.floats(0, 1e6),
        ideal=st.floats(1e-3, 1e6),
    )
    def test_monotone_in_uptime_and_rate(self, uptime, downtime, extra, actual, ideal):
        base = compute_oee(OeeInputs(uptime, downtime, actual, ideal, 1.0))
        more_up = compute_oee(OeeInputs(uptime + extra, downtime, actual, ideal, 1.0))
        more_rate = compute_oee(OeeInputs(uptime, downtime, actual + extra, ideal, 1.0))
        assert more_up >= base - 1e-12
        assert more_rate >= base - 1e-12

"""Twin lifecycle state machine and shadowed digital state.

Each TwinInstance has one writer: the ingest loop that shadows its machine's
stream. Nothing here takes a lock. Snapshots are plain immutable values that
may be handed to any reader.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import DuplicateAssetId, InvalidAssetId, InvalidTransition, TwinNotBound
from .wire import MACHINE_STATES, Channel, TelemetrySample


class LifecyclePhase(enum.Enum):
    Unbound = "Unbound"
    Bound = "Bound"
    Synchronized = "Synchronized"
    OutOfSync = "OutOfSync"
    Done = "Done"
    Stopped = "Stopped"


class LifecycleEvent(enum.Enum):
    Bind = "Bind"
    SyncEstablished = "SyncEstablished"
    SyncLost = "SyncLost"
    SyncRecovered = "SyncRecovered"
    WorkComplete = "WorkComplete"
    Stop = "Stop"
    Fault = "Fault"


# The transition table is the only mutation path for the phase. Fault is
# handled separately: it is accepted in every phase and resets to Unbound.
TRANSITIONS: dict[tuple[LifecyclePhase, LifecycleEvent], LifecyclePhase] = {
    (LifecyclePhase.Unbound, LifecycleEvent.Bind): LifecyclePhase.Bound,
    (LifecyclePhase.Bound, LifecycleEvent.SyncEstablished): LifecyclePhase.Synchronized,
    (LifecyclePhase.Synchronized, LifecycleEvent.SyncLost): LifecyclePhase.OutOfSync,
    (LifecyclePhase.OutOfSync, LifecycleEvent.SyncRecovered): LifecyclePhase.Synchronized,
    (LifecyclePhase.Synchronized, LifecycleEvent.WorkComplete): LifecyclePhase.Done,
    (LifecyclePhase.Done, LifecycleEvent.Stop): LifecyclePhase.Stopped,
}

# shadow_sample runs once per sample: it tests phases and channels by identity
# against these constants, as enum class attribute lookups and hashes of plain
# enum members are Python-level calls. A twin can shadow while Bound,
# Synchronized or OutOfSync.
_BOUND = LifecyclePhase.Bound
_SYNCHRONIZED = LifecyclePhase.Synchronized
_OUT_OF_SYNC = LifecyclePhase.OutOfSync
_PLC_STATE = Channel.plc_state
_PROPERTY_NAMES = {
    ch: "machine_state" if ch is Channel.plc_state else ch.value for ch in Channel
}


@dataclass(frozen=True)
class DigitalEvent:
    """Transient signal derived from an observation, tagged with the phase it
    was emitted in."""

    name: str
    ts: int
    phase: LifecyclePhase
    payload: Any = None


@dataclass(frozen=True)
class TwinState:
    """Immutable snapshot of a twin's digital state."""

    properties: Mapping[str, tuple[Any, int]]
    events: tuple[DigitalEvent, ...]


class TwinInstance:
    """Lifecycle-aware digital twin of one machine."""

    def __init__(self, asset_id: str):
        if not asset_id:
            raise InvalidAssetId("asset_id must be non-empty")
        self.asset_id = asset_id
        self._phase = LifecyclePhase.Unbound
        self._properties: dict[str, tuple[Any, int]] = {}
        self._events: list[DigitalEvent] = []

    @property
    def phase(self) -> LifecyclePhase:
        return self._phase

    def apply_lifecycle_event(self, event: LifecycleEvent) -> LifecyclePhase:
        """Advance the lifecycle; rejects pairs outside the transition table
        leaving the phase unchanged."""
        if event is LifecycleEvent.Fault:
            self._phase = LifecyclePhase.Unbound
            return self._phase
        target = TRANSITIONS.get((self._phase, event))
        if target is None:
            raise InvalidTransition(self._phase, event)
        self._phase = target
        return self._phase

    def append_event(self, name: str, ts: int, payload: Any = None) -> DigitalEvent:
        ev = DigitalEvent(name=name, ts=ts, phase=self._phase, payload=payload)
        self._events.append(ev)
        return ev

    def shadow_sample(self, sample: TelemetrySample) -> bool:
        """Fold one telemetry sample into the digital state; False when it was
        dropped: stale (ts strictly older than the stored property), or a
        plc_state code that names no MachineState. decode_sample range-checks
        plc codes only at quality good, so a suspect or missing sample may
        carry any code.

        plc_state samples map to the MachineState their code names in
        wire.MACHINE_STATES, looked up as it is, without truncation (2.0 is
        Waiting, 2.5 names none), and emit a state_changed event on
        transitions; any sample received while OutOfSync counts as recovery.
        """
        phase = self._phase
        if not (phase is _SYNCHRONIZED or phase is _BOUND or phase is _OUT_OF_SYNC):
            raise TwinNotBound(f"{self.asset_id} is {phase.name}; cannot shadow")
        if phase is _OUT_OF_SYNC:
            self.apply_lifecycle_event(LifecycleEvent.SyncRecovered)

        channel = sample.channel
        ts = sample.ts
        name = _PROPERTY_NAMES[channel]
        if channel is _PLC_STATE:
            value: Any = MACHINE_STATES.get(sample.value)
            if value is None:
                return False
        else:
            value = sample.value

        previous = self._properties.get(name)
        if previous is not None and ts < previous[1]:
            return False

        self._properties[name] = (value, ts)
        if channel is _PLC_STATE and (previous is None or previous[0] != value):
            self.append_event(
                "state_changed",
                ts=ts,
                payload={"from": previous[0] if previous else None, "to": value},
            )
        return True

    def snapshot_state(self) -> TwinState:
        """Immutable copy of properties and events, which later samples do
        not change. Take it on the writer's thread: the twin holds no lock."""
        return TwinState(
            properties=dict(self._properties),
            events=tuple(self._events),
        )


class TwinRuntime:
    """Registry of machine-level twins; enforces asset-id uniqueness."""

    def __init__(self):
        self._twins: dict[str, TwinInstance] = {}

    def create_twin(self, asset_id: str) -> TwinInstance:
        if asset_id in self._twins:
            raise DuplicateAssetId(asset_id)
        twin = TwinInstance(asset_id)
        self._twins[asset_id] = twin
        return twin

    def get(self, asset_id: str) -> TwinInstance:
        return self._twins[asset_id]

    def __contains__(self, asset_id: str) -> bool:
        return asset_id in self._twins

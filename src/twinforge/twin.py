"""Twin lifecycle state machine, shadowed digital state, and OEE derivation.

Each TwinInstance serializes its own mutations behind a lock; snapshots are
plain immutable values safe to hand across threads.
"""
from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .errors import DuplicateAssetId, InvalidAssetId, InvalidTransition, TwinNotBound
from .wire import Channel, TelemetrySample


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

DEFAULT_FRESHNESS_TIMEOUT_NS = 5_000_000_000  # 5 s on the simulated clock

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


class MachineState(enum.IntEnum):
    Idle = 0
    Active = 1
    Waiting = 2
    Failure = 3


_MACHINE_STATES = {state.value: state for state in MachineState}


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
    relationships: Mapping[str, str]


@dataclass(frozen=True)
class OeeInputs:
    uptime: float
    downtime: float
    actual_rate: float
    ideal_rate: float
    quality_factor: float = 1.0

    def __post_init__(self):
        if min(self.uptime, self.downtime, self.actual_rate, self.ideal_rate) < 0:
            raise ValueError("OEE inputs must be non-negative")
        if self.ideal_rate <= 0:
            raise ValueError("ideal_rate must be positive")
        if not 0.0 <= self.quality_factor <= 1.0:
            raise ValueError("quality_factor must be in [0, 1]")


def compute_oee(inputs: OeeInputs) -> float:
    """Availability x Performance x Quality, each clamped to [0, 1].

    A = uptime / (uptime + downtime), zero when both are zero.
    P = min(1, actual_rate / ideal_rate) so over-ideal bursts never inflate it.
    """
    total = inputs.uptime + inputs.downtime
    availability = inputs.uptime / total if total > 0 else 0.0
    performance = min(1.0, inputs.actual_rate / inputs.ideal_rate)
    return availability * performance * inputs.quality_factor


class TwinInstance:
    """Lifecycle-aware digital twin of one machine."""

    def __init__(self, asset_id: str, relationships: Optional[Mapping[str, str]] = None):
        if not asset_id:
            raise InvalidAssetId("asset_id must be non-empty")
        self.asset_id = asset_id
        self._lock = threading.RLock()
        self._phase = LifecyclePhase.Unbound
        self._properties: dict[str, tuple[Any, int]] = {}
        self._events: list[DigitalEvent] = []
        self._relationships: dict[str, str] = dict(relationships or {})

    @property
    def phase(self) -> LifecyclePhase:
        return self._phase

    def apply_lifecycle_event(self, event: LifecycleEvent) -> LifecyclePhase:
        """Advance the lifecycle; rejects pairs outside the transition table
        leaving the phase unchanged."""
        with self._lock:
            if event is LifecycleEvent.Fault:
                self._phase = LifecyclePhase.Unbound
                return self._phase
            target = TRANSITIONS.get((self._phase, event))
            if target is None:
                raise InvalidTransition(self._phase, event)
            self._phase = target
            return self._phase

    def append_event(self, name: str, ts: int, payload: Any = None) -> DigitalEvent:
        with self._lock:
            ev = DigitalEvent(name=name, ts=ts, phase=self._phase, payload=payload)
            self._events.append(ev)
            return ev

    def shadow_sample(self, sample: TelemetrySample) -> bool:
        """Fold one telemetry sample into the digital state; False when it was
        dropped: stale (ts strictly older than the stored property), or a
        plc_state code that names no MachineState. decode_sample range-checks
        plc codes only at quality good, so a suspect or missing sample may
        carry any code.

        plc_state samples map to the MachineState their code names as it is,
        without truncation (2.0 is Waiting, 2.5 names none), and emit a
        state_changed event on transitions; any sample received while
        OutOfSync counts as recovery.
        """
        with self._lock:
            phase = self._phase
            if not (phase is _SYNCHRONIZED or phase is _BOUND or phase is _OUT_OF_SYNC):
                raise TwinNotBound(f"{self.asset_id} is {phase.name}; cannot shadow")
            if phase is _OUT_OF_SYNC:
                self.apply_lifecycle_event(LifecycleEvent.SyncRecovered)

            channel = sample.channel
            ts = sample.ts
            name = _PROPERTY_NAMES[channel]
            if channel is _PLC_STATE:
                value: Any = _MACHINE_STATES.get(sample.value)
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

    def check_freshness(
        self, now: int, timeout: int = DEFAULT_FRESHNESS_TIMEOUT_NS
    ) -> Optional[LifecycleEvent]:
        """SyncLost if Synchronized and the newest property is older than
        timeout; None otherwise (including when nothing was shadowed yet)."""
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        with self._lock:
            if self._phase is not LifecyclePhase.Synchronized or not self._properties:
                return None
            latest = max(ts for _, ts in self._properties.values())
            if now - latest > timeout:
                return LifecycleEvent.SyncLost
            return None

    def snapshot_state(self) -> TwinState:
        """Consistent immutable copy of properties/events/relationships."""
        with self._lock:
            return TwinState(
                properties=dict(self._properties),
                events=tuple(self._events),
                relationships=dict(self._relationships),
            )


class TwinRuntime:
    """Registry of machine-level twins; enforces asset-id uniqueness."""

    def __init__(self):
        self._twins: dict[str, TwinInstance] = {}
        self._lock = threading.Lock()

    def create_twin(
        self, asset_id: str, relationships: Optional[Mapping[str, str]] = None
    ) -> TwinInstance:
        if not asset_id:
            raise InvalidAssetId("asset_id must be non-empty")
        with self._lock:
            if asset_id in self._twins:
                raise DuplicateAssetId(asset_id)
            twin = TwinInstance(asset_id, relationships)
            self._twins[asset_id] = twin
            return twin

    def get(self, asset_id: str) -> TwinInstance:
        return self._twins[asset_id]

    def __contains__(self, asset_id: str) -> bool:
        return asset_id in self._twins

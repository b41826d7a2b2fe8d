"""Workloads of the twinforge benchmark, shared by run.py and child.py.

Every workload uses the program's default replica grid (penalty {10, 40, 160}
x k {2..5} x block {25, 50} = 24 replicas) and the default 100 Hz sample
rate. Traces come from the default scenario of ``twinforge.simulate`` keyed
on the benchmark's --seed.
"""
from __future__ import annotations

from dataclasses import dataclass

NS_PER_S = 1_000_000_000
SAMPLE_RATE = 100
MACHINE = "m1"  # the machine a batch run analyses (the CLI default)

# Live replay: an edge every 4 s of simulated time from 10 s on; at each
# edge every machine is analysed, in sorted order, over its last 10 s.
LIVE_FIRST_EDGE_S = 10
LIVE_EDGE_EVERY_S = 4
LIVE_WINDOW_S = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch": one `twinforge run`; "live": sliding-window replay
    machines: tuple[str, ...]
    duration_s: int
    why: str

    def edges_ns(self) -> list[int]:
        """Simulated times at which a live replay analyses every machine."""
        return [
            s * NS_PER_S
            for s in range(LIVE_FIRST_EDGE_S, self.duration_s, LIVE_EDGE_EVERY_S)
        ]

    def analyses(self) -> int:
        """Number of results one repetition produces."""
        if self.kind == "batch":
            return 1
        return len(self.edges_ns()) * len(self.machines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batch-1m-600s",
            "batch",
            ("m1",),
            600,
            "ROADMAP scaling case: 2,400 blocks, ~85% of the time in PELT and "
            "silhouette; an analytics change moves it, an ingest-only change barely does",
        ),
        Workload(
            "live-3m-sliding",
            "live",
            ("m1", "m2", "m3"),
            60,
            "closed-loop live twin: 39 analyses of 10 s windows interleaved with "
            "appends of 3 machines; ingest, per-call overhead, window query and axis split show here",
        ),
    )
}

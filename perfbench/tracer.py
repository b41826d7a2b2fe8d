"""Per-layer tracing for the benchmark's traced run.

Each wrapper replaces the name the program's caller looks up (for example
``orchestrator.run_readiness``, which ``run_replica`` calls, or
``cli.zeroconf_run``, which ``cmd_run`` calls), so nothing under ``src/`` is
edited. Per-sample calls (decode, shadow, append) are aggregated as a count
plus a sum of wall time. Coarse calls become spans with parent ids, kept in
memory and written when the run ends.

Spans record both ``perf_counter`` and ``thread_time``: inside the replica
thread pool, wall-clock sums overlap, so busy time is thread CPU time and
wait is wall minus busy. The content digests behind the ``*_distinct_ratio``
metrics are taken inside the span but outside the measured busy time.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
import types
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from twinforge import archive, cli, orchestrator, twin, wire


class LayerNotCalled(RuntimeError):
    """A wrapped name recorded no calls on a workload that must reach it."""


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    wall0: float
    wall1: float
    cpu0: float
    cpu1: float
    overhead: float  # tracer CPU time spent inside this span (digests)
    digest: Optional[str] = None
    size: int = 0  # layer-specific work count, see SPANNED
    base: int = 0  # layer-specific base of a ratio, see SPANNED

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


def _digest(args, kwargs) -> str:
    """Content digest of a call's arguments (arrays by dtype, shape, bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for value in (*args, *sorted(kwargs.items())):
        value = getattr(value, "peaks", value)  # a FeatureSeries is its peaks
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).data)
        else:
            h.update(repr(value).encode())
        h.update(b"|")
    return h.hexdigest()


def _owner_name(owner) -> str:
    if isinstance(owner, types.ModuleType):
        return owner.__name__.rsplit(".", 1)[-1]
    return owner.__name__


def _query_sizes(call_args, result):
    store, query = call_args[0], call_args[1]
    return len(result), len(store.scan(query.asset_id))


# (owner, attribute) of every per-sample call, aggregated as count + sum.
COUNTED = (
    (wire, "decode_sample"),
    (twin.TwinInstance, "shadow_sample"),
    (twin.TwinInstance, "append_event"),
    (archive.Archive, "append_sample"),
)

# (owner, attribute, digest the arguments, sizes(args, result) -> (size, base))
SPANNED = (
    (archive.Archive, "query_window", False, _query_sizes),
    (cli, "zeroconf_run", False, None),
    (orchestrator, "zeroconf_run", False, None),
    (orchestrator, "run_replica", False, None),
    (orchestrator, "rank_replicas", False, None),
    (orchestrator, "run_readiness", True, None),
    (orchestrator, "pelt_segment", True, None),
    (orchestrator, "kmeans_fit", True, lambda a, r: (r.iterations_run, 0)),
    (orchestrator, "silhouette_score", True, lambda a, r: (len(a[0]), 0)),
)

SWEEPS = ("cli.zeroconf_run", "orchestrator.zeroconf_run")
# Wrapped names each workload kind must reach; zero calls is an error. Batch
# reaches the sweep through the CLI, the live loop through the orchestrator.
_ALWAYS = (
    "wire.decode_sample",
    "TwinInstance.shadow_sample",
    "TwinInstance.append_event",
    "Archive.append_sample",
    "Archive.query_window",
    "orchestrator.run_replica",
    "orchestrator.rank_replicas",
    "orchestrator.run_readiness",
    "orchestrator.pelt_segment",
    "orchestrator.kmeans_fit",
    "orchestrator.silhouette_score",
)
EXPECTED = {
    "batch": ("cli.zeroconf_run", *_ALWAYS),
    "live": ("orchestrator.zeroconf_run", *_ALWAYS),
}


class Tracer:
    def __init__(self):
        self.counters: dict[str, list] = {}  # name -> [calls, wall seconds]
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep: Optional[int] = None  # parent of spans in pool threads

    def install(self) -> None:
        for owner, attr in COUNTED:
            name = f"{_owner_name(owner)}.{attr}"
            setattr(owner, attr, self._counted(getattr(owner, attr), name))
        for owner, attr, digest, sizes in SPANNED:
            name = f"{_owner_name(owner)}.{attr}"
            wrapper = self._spanned(
                getattr(owner, attr), name, digest, sizes, sweep=name in SWEEPS
            )
            setattr(owner, attr, wrapper)

    def _counted(self, fn: Callable, name: str) -> Callable:
        acc = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[1] += clock() - t0
                acc[0] += 1

        return wrapper

    def _spanned(self, fn, name, digest, sizes, sweep) -> Callable:
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._sweep
            sid = next(self._ids)
            stack.append(sid)
            if sweep:
                self._sweep = sid
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            key = _digest(args, kwargs) if digest else None
            overhead = time.thread_time() - cpu0 if digest else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1, wall1 = time.thread_time(), time.perf_counter()
                stack.pop()
                if sweep:
                    self._sweep = None
                span = Span(sid, parent, name, threading.get_ident(),
                            wall0, wall1, cpu0, cpu1, overhead, key)
                self.spans.append(span)
            if sizes is not None:
                span.size, span.base = sizes(args, result)
            return result

        return wrapper

    def calls(self, name: str) -> int:
        if name in self.counters:
            return self.counters[name][0]
        return sum(1 for s in self.spans if s.name == name)

    def check(self, kind: str) -> None:
        silent = [name for name in EXPECTED[kind] if self.calls(name) == 0]
        if silent:
            raise LayerNotCalled(
                f"traced names recorded no calls on a {kind} workload: "
                f"{', '.join(silent)}; the program no longer calls them by "
                "these names, so the benchmark's wrappers must follow"
            )

    def sweeps(self) -> list[Span]:
        return sorted((s for s in self.spans if s.name in SWEEPS), key=lambda s: s.wall0)

    def metrics(self) -> dict[str, list]:
        """Per-layer metrics as name -> [value, sample count]."""
        out: dict[str, list] = {}

        def per_sample(prefix, counter):
            calls, total = self.counters[counter]
            out[f"{prefix}_s"] = [total, calls]
            out[f"{prefix}_ns_per_sample"] = [total / calls * 1e9 if calls else 0.0, calls]

        per_sample("wire.decode", "wire.decode_sample")
        per_sample("twin.shadow", "TwinInstance.shadow_sample")
        per_sample("archive.append", "Archive.append_sample")
        samples = self.counters["wire.decode_sample"][0]
        events = self.counters["TwinInstance.append_event"][0]
        out["wire.samples"] = [samples, samples]
        out["twin.events"] = [events, events]

        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def busy(s: Span) -> float:
            """Thread CPU time minus the tracer's own work inside the span."""
            pending, overhead = [s], 0.0
            while pending:
                cur = pending.pop()
                overhead += cur.overhead
                pending.extend(c for c in children.get(cur.id, ()) if c.thread == s.thread)
            return s.cpu - overhead

        queries = by_name.get("Archive.query_window", [])
        base = sum(s.base for s in queries)
        out["archive.query_s"] = [sum(s.wall for s in queries), len(queries)]
        out["archive.queries"] = [len(queries), len(queries)]
        out["archive.query_hit_ratio"] = [
            sum(s.size for s in queries) / base if base else 0.0, len(queries)
        ]

        sweeps = self.sweeps()
        replicas = by_name.get("orchestrator.run_replica", [])
        ranks = by_name.get("orchestrator.rank_replicas", [])
        out["orchestrator.sweep_s"] = [sum(s.wall for s in sweeps), len(sweeps)]
        out["orchestrator.sweeps"] = [len(sweeps), len(sweeps)]
        out["orchestrator.replicas"] = [len(replicas), len(replicas)]
        out["orchestrator.replica_busy_s"] = [sum(busy(s) for s in replicas), len(replicas)]
        # wall minus busy; the tracer's own CPU time is in both, so it cancels
        out["orchestrator.replica_wait_s"] = [sum(s.wall - s.cpu for s in replicas), len(replicas)]
        out["orchestrator.replica_self_s"] = [
            sum(
                s.cpu - sum(c.cpu for c in children.get(s.id, ()) if c.thread == s.thread)
                for s in replicas
            ),
            len(replicas),
        ]
        out["orchestrator.rank_s"] = [sum(s.wall for s in ranks), len(ranks)]

        def stage(span_name, busy_name, ratio_name, count_name, sized=False):
            spans = by_name.get(span_name, [])
            n = len(spans)
            out[busy_name] = [sum(busy(s) for s in spans), n]
            out[ratio_name] = [len({s.digest for s in spans}) / n if n else 0.0, n]
            out[count_name] = [sum(s.size for s in spans) if sized else n, n]

        stage("orchestrator.run_readiness", "readiness.busy_s",
              "readiness.distinct_ratio", "readiness.calls")
        stage("orchestrator.pelt_segment", "analytics.pelt_busy_s",
              "analytics.pelt_distinct_ratio", "analytics.pelt_calls")
        stage("orchestrator.kmeans_fit", "analytics.kmeans_busy_s",
              "analytics.kmeans_distinct_ratio", "analytics.kmeans_iterations", sized=True)
        stage("orchestrator.silhouette_score", "analytics.silhouette_busy_s",
              "analytics.silhouette_distinct_ratio", "analytics.silhouette_points", sized=True)
        return out

    def write(self, path) -> None:
        payload = {
            "counters": {k: {"calls": v[0], "wall_s": v[1]} for k, v in self.counters.items()},
            "spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

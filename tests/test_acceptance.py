"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured figure. Run with `pytest tests/test_acceptance.py -v -s`."""
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from conftest import archive_of
from oracles import brute_force_segment, naive_silhouette, random_step_series

import twinforge.rng as rng
from twinforge.analytics import (
    pelt_segment,
    silhouette_score,
)
from twinforge.archive import Archive, SegmentRecord, WindowQuery
from twinforge.errors import InvalidTransition
from twinforge.orchestrator import zeroconf_run
from twinforge.readiness import detect_outliers, fill_gaps
from twinforge.simulate import default_scenario, quiet_failure_scenario, simulate_scenario
from twinforge.twin import LifecycleEvent, LifecyclePhase, TwinInstance
from twinforge.wire import TelemetrySample, Channel


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


# -- 1. lifecycle transition table -------------------------------------------

SPEC_TABLE = {
    (LifecyclePhase.Unbound, LifecycleEvent.Bind): LifecyclePhase.Bound,
    (LifecyclePhase.Bound, LifecycleEvent.SyncEstablished): LifecyclePhase.Synchronized,
    (LifecyclePhase.Synchronized, LifecycleEvent.SyncLost): LifecyclePhase.OutOfSync,
    (LifecyclePhase.OutOfSync, LifecycleEvent.SyncRecovered): LifecyclePhase.Synchronized,
    (LifecyclePhase.Synchronized, LifecycleEvent.WorkComplete): LifecyclePhase.Done,
    (LifecyclePhase.Done, LifecycleEvent.Stop): LifecyclePhase.Stopped,
}

PATH_TO_PHASE = {
    LifecyclePhase.Unbound: (),
    LifecyclePhase.Bound: (LifecycleEvent.Bind,),
    LifecyclePhase.Synchronized: (LifecycleEvent.Bind, LifecycleEvent.SyncEstablished),
    LifecyclePhase.OutOfSync: (
        LifecycleEvent.Bind,
        LifecycleEvent.SyncEstablished,
        LifecycleEvent.SyncLost,
    ),
    LifecyclePhase.Done: (
        LifecycleEvent.Bind,
        LifecycleEvent.SyncEstablished,
        LifecycleEvent.WorkComplete,
    ),
    LifecyclePhase.Stopped: (
        LifecycleEvent.Bind,
        LifecycleEvent.SyncEstablished,
        LifecycleEvent.WorkComplete,
        LifecycleEvent.Stop,
    ),
}


def test_criterion_1_lifecycle_table_exhaustive():
    started = time.perf_counter()
    checked = 0
    for phase in LifecyclePhase:
        for event in LifecycleEvent:
            twin = TwinInstance("m")
            for step in PATH_TO_PHASE[phase]:
                twin.apply_lifecycle_event(step)
            assert twin.phase is phase
            if event is LifecycleEvent.Fault:
                assert twin.apply_lifecycle_event(event) is LifecyclePhase.Unbound
            elif (phase, event) in SPEC_TABLE:
                assert twin.apply_lifecycle_event(event) is SPEC_TABLE[(phase, event)]
            else:
                with pytest.raises(InvalidTransition):
                    twin.apply_lifecycle_event(event)
                assert twin.phase is phase
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 42
    assert elapsed < 1.0
    report(1, f"42/42 (phase, event) pairs match the table in {elapsed:.3f}s")


# -- 2. spike removal ----------------------------------------------------------


def spike_fixture(seed, n=10_000, rate=0.01, magnitude_sigma=15.0):
    """Bounded base (|x - mu| <= 3 sigma) with isolated >=10-sigma spikes on
    1% of samples, alternating sign."""
    key = rng.stream_key(seed, "accept-spikes")
    u = rng.uniforms(key, np.arange(n, dtype=np.uint64))
    t = np.arange(n) / 100.0
    base = np.sin(2 * np.pi * 5 * t) + (2.0 * u - 1.0)
    sigma = base.std()
    k = int(n * rate)
    stride = n // k
    positions = np.arange(k) * stride + 1 + (seed * 7) % (stride - 2)
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    spiked = base.copy()
    spiked[positions] = base.mean() + signs * magnitude_sigma * sigma
    return base, spiked, positions


def test_criterion_2_spike_removal():
    started = time.perf_counter()
    total_spikes = 0
    for seed in range(10):
        for axis in range(3):
            base, spiked, positions = spike_fixture(seed * 3 + axis)
            assert np.abs(base - base.mean()).max() <= 3 * base.std()
            mask = detect_outliers(spiked)
            flagged = set(np.flatnonzero(mask))
            assert flagged == set(positions), "must flag all and only the spikes"
            cleaned = fill_gaps(spiked, mask)
            non_spike = np.ones(len(base), dtype=bool)
            non_spike[positions] = False
            deviation = np.abs(cleaned[non_spike] - base[non_spike]).max()
            assert deviation <= 1e-9
            total_spikes += len(positions)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"{total_spikes} injected spikes removed, 0 false hits, "
              f"non-spike deviation 0.0 in {elapsed:.2f}s")


# -- 3. PELT exactness ---------------------------------------------------------


def test_criterion_3_pelt_matches_brute_force():
    started = time.perf_counter()
    checks = 0
    for seed in range(200):
        x = random_step_series(seed, max_n=128)
        for beta in (1.0, 10.0, 40.0, 160.0):
            (fast,) = pelt_segment(x, [beta])
            oracle = brute_force_segment(x, beta)
            assert fast.change_points == oracle.change_points, (seed, beta)
            assert abs(fast.total_cost - oracle.total_cost) <= 1e-9, (seed, beta)
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"{checks} series/penalty pairs identical to the DP oracle "
              f"in {elapsed:.1f}s")


# -- 4. silhouette oracle ------------------------------------------------------


def test_criterion_4_silhouette_matches_naive_definition():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        key = rng.stream_key(seed, "accept-sil")
        u = rng.uniforms(key, np.arange(2048, dtype=np.uint64))
        n = 10 + int(u[0] * 90)  # up to 100 keeps the O(n^2) oracle quick
        if seed < 3:
            n = 300  # a few full-size cases
        d = 1 + int(u[1] * 3)
        x = (u[2 : 2 + n * d].reshape(n, d) - 0.5) * 20
        labels = (u[2 + n * d : 2 + n * d + n] * (2 + int(u[3] * 4))).astype(int)
        (got,) = silhouette_score(x, labels[None])
        want = naive_silhouette(x.tolist(), labels.tolist())
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
        assert -1.0 <= got <= 1.0
    elapsed = time.perf_counter() - started
    report(4, f"100 random labelings, max |delta| {worst:.2e} in {elapsed:.1f}s")


# -- 5. ZeroConf end-to-end ----------------------------------------------------


def test_criterion_5_zeroconf_recovers_default_scenario():
    started = time.perf_counter()
    samples, truth = simulate_scenario(default_scenario())
    archive = archive_of(samples)
    report_, _, _ = zeroconf_run(archive, "m1", (0, 10**18))
    winner = report_.results[0]
    mt = truth.machines["m1"]
    bs = winner.hyperparams.block_size
    true_cps = mt.change_point_blocks(bs)
    assert winner.segment_count == len(mt.phases)
    for bound in true_cps:
        assert any(
            abs(cp - bound) <= 2 for cp in winner.segmentation.change_points
        ), f"true boundary {bound} unmatched in {winner.segmentation.change_points}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, f"selected {winner.replica_version}: {winner.segment_count} segments "
              f"(true {len(mt.phases)}), boundaries {winner.segmentation.change_points} "
              f"vs {true_cps} in {elapsed:.1f}s")


# -- 6. anomaly precision/recall -----------------------------------------------


def test_criterion_6_anomaly_precision_recall():
    started = time.perf_counter()
    tp = fp = fn = 0
    for seed in range(1, 21):
        spec = quiet_failure_scenario(seed)
        samples, truth = simulate_scenario(spec)
        archive = archive_of(samples)
        report_, _, anomalies = zeroconf_run(archive, "m1", (0, 10**18))
        bs = report_.results[0].hyperparams.block_size
        truth_blocks = set(truth.machines["m1"].anomaly_blocks(bs))
        n_blocks = -(-truth.machines["m1"].n_samples // bs)
        assert 0.02 <= len(truth_blocks) / n_blocks <= 0.05
        flagged = set()
        for ev in anomalies:
            flagged.update(range(*ev.block_range))
        tp += len(flagged & truth_blocks)
        fp += len(flagged - truth_blocks)
        fn += len(truth_blocks - flagged)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    elapsed = time.perf_counter() - started
    assert precision >= 0.9
    assert recall >= 0.9
    report(6, f"20 scenarios: precision {precision:.3f}, recall {recall:.3f} "
              f"(tp={tp} fp={fp} fn={fn}) in {elapsed:.0f}s")


# -- 7. throughput ---------------------------------------------------------------


def test_criterion_7_throughput_floor(tmp_path, capsys):
    from twinforge.cli import main
    from twinforge.wire import write_trace

    samples, _ = simulate_scenario(default_scenario())
    assert len(samples) >= 100_000
    trace = tmp_path / "bench.jsonl"
    write_trace(trace, samples)
    assert main(["bench", str(trace)]) == 0
    rate = int(capsys.readouterr().out.split()[0])
    assert rate >= 700
    with capsys.disabled():
        report(7, f"{rate} samples/s over {len(samples)} samples (floor 700)")


# -- 8. determinism across runs and thread counts --------------------------------


def test_criterion_8_byte_identical_artifacts(tmp_path):
    env_base = dict(os.environ)
    outputs = []
    for label, threads in (("a", "1"), ("b", "4")):
        sim = tmp_path / f"sim_{label}"
        out = tmp_path / f"out_{label}"
        env = dict(env_base, TWINFORGE_THREADS=threads)
        for argv in (
            ["simulate", "--seed", "42", "--out", str(sim)],
            ["run", str(sim / "trace.jsonl"), "--machine", "m1", "--out", str(out)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "twinforge", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outputs.append((sim, out))
    (sim_a, out_a), (sim_b, out_b) = outputs
    assert (sim_a / "trace.jsonl").read_bytes() == (sim_b / "trace.jsonl").read_bytes()
    for name in ("report.json", "timeline.csv", "anomalies.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(8, "trace, report.json, timeline.csv, anomalies.json byte-identical "
              "across runs with TWINFORGE_THREADS=1 and 4")


# -- 9. archive property suites ---------------------------------------------------


def test_criterion_9_archive_properties():
    started = time.perf_counter()

    # append-only audit: 10k interleaved ops, full scan == append log
    archive = Archive()
    key = rng.stream_key(1, "accept-audit")
    u = rng.uniforms(key, np.arange(10_000, dtype=np.uint64))
    shadow: dict = {}
    for i, x in enumerate(u):
        asset = f"m{int(x * 4) + 1}"
        s = TelemetrySample(asset, Channel.accel_x, int(x * 1e9), float(i))
        archive.append_sample(s)
        shadow.setdefault(asset, []).append(s)
        if i % 33 == 0:
            archive.query_window(WindowQuery(asset, 0, 10**10))
    for asset, expected in shadow.items():
        scan = archive.scan(asset)
        assert [e.sample for e in scan] == expected
        assert [e.seq for e in scan] == list(range(1, len(expected) + 1))

    # snapshot isolation: concurrent readers always see a clean prefix
    iso = Archive()
    failures: list = []
    stop = threading.Event()

    def reader():
        # ts == seq-1 in this fixture, so any window must come back as a
        # contiguous seq run: an in-flight append is all-or-nothing
        while not stop.is_set():
            if "m1" in iso.assets():
                seqs = [e.seq for e in iso.query_window(WindowQuery("m1", 0, 2000))]
                if seqs != list(range(1, len(seqs) + 1)):
                    failures.append(seqs)
                    return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for i in range(10_000):
        iso.append_sample(TelemetrySample("m1", Channel.accel_x, i, float(i)))
    stop.set()
    for t in threads:
        t.join()
    assert not failures

    # histogram conservation: sum of counts == records in range
    hist_archive = Archive()
    key2 = rng.stream_key(2, "accept-hist")
    v = rng.uniforms(key2, np.arange(30_000, dtype=np.uint64)).reshape(10_000, 3)
    per_version_ts: dict = {}
    for i, (a, b, c) in enumerate(v):
        version = f"v{int(a * 20) + 1}-x"
        start = i * 10  # disjoint ranges per record keep the invariant simple
        hist_archive.record_segment_stats(
            SegmentRecord(
                replica_version=version,
                segment_index=i,
                block_range=(start, start + 1 + int(b * 5)),
                cluster_label=int(c * 6),
                created_ts=int(b * 10**6),
            )
        )
        per_version_ts.setdefault(version, []).append(int(b * 10**6))
    for j, (version, ts_list) in enumerate(sorted(per_version_ts.items())):
        span = (j * 37 % 10**6, 10**6 - j * 11)
        if span[0] >= span[1]:
            continue
        hist = hist_archive.cluster_frequency_histogram(version, span)
        expected = sum(1 for t in ts_list if span[0] <= t < span[1])
        assert sum(hist.values()) == expected
    elapsed = time.perf_counter() - started
    report(9, f"30k+ randomized archive operations hold append-only, isolation "
              f"and conservation invariants in {elapsed:.1f}s")

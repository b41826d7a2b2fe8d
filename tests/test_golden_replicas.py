"""Behaviour lock on every replica of a live sweep, not only the winner.

test_golden.LIVE_WINDOWS digests what a live caller reads: the selected
version, its timeline and its anomalies. A last-bit change in a losing
replica's silhouette or cost leaves that hash alone as long as the ranking
holds; this one digests, for each of the 24 replicas of each of the same 15
sliding windows, its silhouette and total cost by repr, its change points
and the bytes of its labels.
"""
import hashlib

from twinforge.cli import ingest
from twinforge.orchestrator import zeroconf_run
from twinforge.simulate import default_scenario, simulate_scenario

LIVE_REPLICAS = "85642bec55026eeec56029aad44525b2657545cf2af850121feba3221215a446"
NS_PER_S = 10**9


def test_live_sliding_windows_every_replica_seed42():
    machines = ("m1", "m2", "m3")
    samples, _ = simulate_scenario(default_scenario(seed=42, duration_s=30, machines=machines))
    _, archive = ingest(samples)
    digest = hashlib.sha256()
    replicas = 0
    for edge in range(10 * NS_PER_S, 30 * NS_PER_S, 4 * NS_PER_S):
        for machine in machines:
            report, _, _ = zeroconf_run(archive, machine, (edge - 10 * NS_PER_S, edge))
            for r in report.results:
                item = (
                    machine,
                    edge,
                    r.replica_version,
                    repr(r.silhouette),
                    repr(r.segmentation.total_cost),
                    r.segmentation.change_points,
                )
                digest.update(repr(item).encode())
                digest.update(r.labels.astype("<i8").tobytes())
                replicas += 1
    assert replicas == 15 * 24
    assert digest.hexdigest() == LIVE_REPLICAS

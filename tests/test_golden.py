"""Behaviour lock: SHA-256 of the byte-identical artifacts for pinned inputs.

Criterion 8 compares two runs of the same code; this file compares against
committed hashes, so a refactor that changes a single output byte fails
here. A deliberate change to these hashes is logged in CHANGES.md with its
reason.
"""
import hashlib

from twinforge.cli import ingest, main
from twinforge.orchestrator import zeroconf_run
from twinforge.simulate import default_scenario, quiet_failure_scenario, simulate_scenario
from twinforge.wire import write_trace

LOCKED = ("report.json", "timeline.csv", "anomalies.json")

GOLDEN = {
    "default-seed42-m1": {
        "report.json": "56f52fca95ed92a9896261409f34e50c66dc93ec70ad701fe42407df9fca3175",
        "timeline.csv": "6d4053224aeb1ab980827581241740a57de5eb1e37be9c875f875fcbc55e49a1",
        "anomalies.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "quiet-failure-seed3-m1": {
        "report.json": "a07e4a2954891784ec9d7c0815f51a69756cfdbef246eda19edecf7fd0edc2e2",
        "timeline.csv": "dad22f1fd07ade6b7a2f83bd8fc0362eec59d3a7639fd867de9a956d7f8cc3ae",
        "anomalies.json": "333d652c00365af1c7a4a5a11c754e626cad527d7c08562264f784b43295423a",
    },
}

# Sliding 10 s windows (20 and 40 blocks) of a 30 s, 3-machine seed-42 trace:
# the short windows a live twin analyses, where k reaches 5 of 20 blocks.
LIVE_WINDOWS = "d4b312af71e7621bb5ecf8f079fecf07415d322471b863668c565bcf3b249dcd"
NS_PER_S = 10**9


def artifact_hashes(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in LOCKED}


def test_default_scenario_seed42(tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "42", "--out", str(sim)]) == 0
    assert main(["run", str(sim / "trace.jsonl"), "--machine", "m1", "--out", str(out)]) == 0
    assert artifact_hashes(out) == GOLDEN["default-seed42-m1"]


def test_quiet_failure_seed3(tmp_path):
    samples, _ = simulate_scenario(quiet_failure_scenario(seed=3))
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, samples)
    out = tmp_path / "out"
    assert main(["run", str(trace), "--machine", "m1", "--out", str(out)]) == 0
    assert artifact_hashes(out) == GOLDEN["quiet-failure-seed3-m1"]



def test_live_sliding_windows_seed42():
    machines = ("m1", "m2", "m3")
    samples, _ = simulate_scenario(default_scenario(seed=42, duration_s=30, machines=machines))
    _, archive = ingest(samples)
    digest = hashlib.sha256()
    analyses = 0
    for edge in range(10 * NS_PER_S, 30 * NS_PER_S, 4 * NS_PER_S):
        for machine in machines:
            window = (edge - 10 * NS_PER_S, edge)
            report, timeline, anomalies = zeroconf_run(archive, machine, window)
            flagged = [
                (a.segment_index, a.block_range, a.cluster_label, repr(a.rarity), a.ts)
                for a in anomalies
            ]
            item = (machine, edge, report.selected, timeline.change_points, timeline.rows, flagged)
            digest.update(repr(item).encode())
            analyses += 1
    assert analyses == 15
    assert digest.hexdigest() == LIVE_WINDOWS

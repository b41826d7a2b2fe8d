#!/usr/bin/env python3
"""End-to-end demo on the default scenario: simulate four machines, ingest
through twin shadowing, run the ZeroConf replica sweep, and emit plot-ready
CSVs (raw vs cleaned signal, block peaks, segmented timeline).

Usage: python scripts/demo_pipeline.py [--out demo_out] [--machine m1]
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from twinforge.cli import ingest, ranking_table, report_payload
from twinforge.orchestrator import DEFAULT_RARITY_THRESHOLD, zeroconf_run
from twinforge.readiness import ReadinessConfig, clean_axis
from twinforge.simulate import default_scenario, simulate_scenario
from twinforge.wire import Channel


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--machine", default="m1")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("simulating default scenario (4 machines, 120 s @ 100 Hz)...")
    samples, truth = simulate_scenario(default_scenario(seed=args.seed))

    print(f"ingesting {len(samples)} samples through twin shadowing...")
    runtime, archive = ingest(samples)

    print("running the ZeroConf replica sweep (24 replicas)...")
    report, timeline, anomalies = zeroconf_run(
        archive, args.machine, (0, 10**18), twin=runtime.get(args.machine)
    )

    payload = report_payload(report, args.machine, args.seed, DEFAULT_RARITY_THRESHOLD)
    print("\n" + ranking_table(payload["replicas"], report.selected))

    winner = report.results[0]
    mt = truth.machines[args.machine]
    print(f"\nselected {report.selected}")
    print(f"  change points: {winner.segmentation.change_points}")
    print(f"  ground truth : {mt.change_point_blocks(winner.hyperparams.block_size)}")
    print(f"  anomalies    : {len(anomalies)}")

    # plot-ready files: one machine's x-axis raw vs cleaned, the block peaks,
    # and the segmented timeline
    raw = np.array(
        [s.value for s in samples
         if s.asset_id == args.machine and s.channel is Channel.accel_x]
    )
    cleaned = clean_axis(raw, ReadinessConfig())
    with open(out / "signal.csv", "w") as fh:
        fh.write("sample,raw_x,cleaned_x\n")
        for i, (r, c) in enumerate(zip(raw.tolist(), cleaned.tolist())):
            fh.write(f"{i},{r!r},{c!r}\n")
    with open(out / "peaks.csv", "w") as fh:
        fh.write("block,peak_x,peak_y,peak_z\n")
        for i, row in enumerate(winner.features.peaks.tolist()):
            fh.write(f"{i},{row[0]!r},{row[1]!r},{row[2]!r}\n")
    (out / "timeline.csv").write_text(timeline.to_csv())
    print(f"\nwrote signal.csv, peaks.csv, timeline.csv to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Anomaly-detection experiment: sweep seeded quiet-operation scenarios with
short failure bursts (2.5-4.2% of blocks) and score the selected replica's
rare-cluster flags against simulator ground truth, block by block.

Usage: python scripts/anomaly_experiment.py [--seeds 20] [--duration 60]
"""
import argparse
import sys
import time

from twinforge.archive import Archive
from twinforge.orchestrator import zeroconf_run
from twinforge.simulate import quiet_failure_scenario, simulate_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--duration", type=float, default=60.0)
    args = parser.parse_args()

    print(f"{'seed':>4} {'block':>6} {'k':>3} {'silhouette':>11} "
          f"{'true':>5} {'flagged':>8} {'hit':>4}")
    tp = fp = fn = 0
    started = time.perf_counter()
    for seed in range(1, args.seeds + 1):
        spec = quiet_failure_scenario(seed, args.duration)
        samples, truth = simulate_scenario(spec)
        archive = Archive()
        for s in samples:
            archive.append_sample(s)
        report, _, anomalies = zeroconf_run(archive, "m1", (0, 10**18))
        winner = report.results[0]
        bs = winner.hyperparams.block_size
        true_blocks = set(truth.machines["m1"].anomaly_blocks(bs))
        flagged: set = set()
        for ev in anomalies:
            flagged.update(range(*ev.block_range))
        tp += len(flagged & true_blocks)
        fp += len(flagged - true_blocks)
        fn += len(true_blocks - flagged)
        print(f"{seed:>4} {bs:>6} {winner.hyperparams.k:>3} {winner.silhouette:>11.4f} "
              f"{len(true_blocks):>5} {len(flagged):>8} {len(flagged & true_blocks):>4}")

    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    print(f"\npooled precision {precision:.3f}  recall {recall:.3f}  "
          f"(tp={tp} fp={fp} fn={fn}) in {time.perf_counter() - started:.0f}s")
    return 0 if precision >= 0.9 and recall >= 0.9 else 1


if __name__ == "__main__":
    sys.exit(main())

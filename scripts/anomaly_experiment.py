#!/usr/bin/env python3
"""Anomaly-detection experiment: score the selected replica's rare-cluster
flags against simulator ground truth, block by block.

--scenario quiet (the default) sweeps seeded quiet-operation scenarios with
short failure bursts (2.5-4.2% of blocks) on m1 and exits 1 unless pooled
precision and recall both reach 0.9. --scenario default runs the default
scenario (seed 42, 120 s unless --duration is given) once per machine m1-m4
and reports each selected replica's failure-block recall; it only measures,
and exits 0.

Usage: python scripts/anomaly_experiment.py [--scenario quiet|default]
           [--seeds 20] [--duration 60]
"""
import argparse
import sys
import time

from twinforge.cli import ingest
from twinforge.orchestrator import zeroconf_run
from twinforge.simulate import (
    DEFAULT_DURATION_S,
    default_scenario,
    quiet_failure_scenario,
    simulate_scenario,
)


def score(archive, machine, truth):
    """Run the ZeroConf sweep over one machine's whole archive and compare
    the winner's flagged blocks with the true failure blocks."""
    report, _, anomalies = zeroconf_run(archive, machine, archive.time_span(machine))
    winner = report.results[0]
    true_blocks = set(truth.machines[machine].anomaly_blocks(winner.hyperparams.block_size))
    flagged: set = set()
    for ev in anomalies:
        flagged.update(range(*ev.block_range))
    return winner, true_blocks, flagged


def quiet_sweep(seeds: int, duration: float) -> int:
    print(f"{'seed':>4} {'block':>6} {'k':>3} {'silhouette':>11} "
          f"{'true':>5} {'flagged':>8} {'hit':>4}")
    tp = fp = fn = 0
    started = time.perf_counter()
    for seed in range(1, seeds + 1):
        samples, truth = simulate_scenario(quiet_failure_scenario(seed, duration))
        _, archive = ingest(samples)
        winner, true_blocks, flagged = score(archive, "m1", truth)
        tp += len(flagged & true_blocks)
        fp += len(flagged - true_blocks)
        fn += len(true_blocks - flagged)
        print(f"{seed:>4} {winner.hyperparams.block_size:>6} {winner.hyperparams.k:>3} "
              f"{winner.silhouette:>11.4f} {len(true_blocks):>5} {len(flagged):>8} "
              f"{len(flagged & true_blocks):>4}")

    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    print(f"\npooled precision {precision:.3f}  recall {recall:.3f}  "
          f"(tp={tp} fp={fp} fn={fn}) in {time.perf_counter() - started:.0f}s")
    return 0 if precision >= 0.9 and recall >= 0.9 else 1


def default_run(duration: float) -> int:
    spec = default_scenario(duration_s=duration)
    samples, truth = simulate_scenario(spec)
    _, archive = ingest(samples)
    print(f"seed {spec.seed}, {duration:g} s")
    print(f"{'machine':>7} {'replica':>13} {'block':>6} {'k':>3} {'silhouette':>11} "
          f"{'true':>5} {'flagged':>8} {'hit':>4} {'recall':>7}")
    hits = total = 0
    for machine in spec.machines:
        winner, true_blocks, flagged = score(archive, machine, truth)
        hit = len(flagged & true_blocks)
        hits += hit
        total += len(true_blocks)
        recall = hit / len(true_blocks) if true_blocks else 0.0
        print(f"{machine:>7} {winner.replica_version:>13} {winner.hyperparams.block_size:>6} "
              f"{winner.hyperparams.k:>3} {winner.silhouette:>11.4f} {len(true_blocks):>5} "
              f"{len(flagged):>8} {hit:>4} {recall:>7.3f}")
    print(f"\nfailure-block recall {hits}/{total}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=("quiet", "default"), default="quiet")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args(argv)
    if args.scenario == "default":
        return default_run(DEFAULT_DURATION_S if args.duration is None else args.duration)
    return quiet_sweep(args.seeds, 60.0 if args.duration is None else args.duration)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Train one experiment of cstnet.experiments over several seeds: the full
model on the moderate-nuisance preset (learnability), or base / +csl / +sti /
full on the high-clutter preset (ablation).  Print per variant the median
rank-1, the rank-1 of each seed and, when base ran, the mean and standard
error over seeds of the paired difference from base (the same seed trained as
base and as the variant)."""

import argparse
import time

import numpy as np

from cstnet.experiments import EXPERIMENTS, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment", choices=tuple(EXPERIMENTS))
    parser.add_argument("--seeds", type=str, help="comma-separated; default the experiment's")
    parser.add_argument("--epochs", type=int, help="default the experiment's")
    args = parser.parse_args()
    seeds = tuple(int(s) for s in args.seeds.split(",")) if args.seeds else None
    started = time.time()
    result = run_experiment(args.experiment, seeds=seeds, epochs=args.epochs, progress=print)
    seeds = tuple(next(iter(result.values())))
    base = result.get("base")
    print(f"{'variant':8s} median  rank-1 of seeds {','.join(map(str, seeds))}"
          + ("  d rank-1 vs base (mean +- SE)" if base else ""))
    for variant, per_seed in result.items():
        line = (f"{variant:8s} {np.median(list(per_seed.values())):.3f}   "
                + " ".join(f"{per_seed[s]:.3f}" for s in seeds))
        if base and variant != "base":
            diff = np.array([per_seed[s] - base[s] for s in seeds])
            se = diff.std(ddof=1) / np.sqrt(len(seeds)) if len(seeds) > 1 else float("nan")
            line += f"  {diff.mean():+.3f} +- {se:.3f}"
        print(line)
    print(f"total {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()

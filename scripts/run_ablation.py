#!/usr/bin/env python3
"""Train base / +csl / +sti / full on the high-clutter preset over several
seeds.  Print per variant the median rank-1, the rank-1 of each seed, and the
mean and standard error over seeds of the paired difference from base (the
same seed trained as base and as the variant)."""

import argparse
import time

import numpy as np

from cstnet.experiments import ABLATION_VARIANTS, run_ablation


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seeds", type=str, default="0,1,2,3,4")
    args = parser.parse_args()
    seeds = tuple(int(s) for s in args.seeds.split(","))
    started = time.time()
    result = run_ablation(seeds=seeds, epochs=args.epochs, progress=print)
    base = result.per_variant["base"]
    print(f"{'variant':8s} median  rank-1 of seeds {','.join(map(str, seeds))}  "
          f"d rank-1 vs base (mean +- SE)")
    for variant in ABLATION_VARIANTS:
        per_seed = result.per_variant[variant]
        line = (f"{variant:8s} {result.median(variant):.3f}   "
                + " ".join(f"{per_seed[s]:.3f}" for s in seeds))
        if variant != "base":
            diff = np.array([per_seed[s] - base[s] for s in seeds])
            se = diff.std(ddof=1) / np.sqrt(len(seeds)) if len(seeds) > 1 else float("nan")
            line += f"  {diff.mean():+.3f} +- {se:.3f}"
        print(line)
    print(f"total {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()

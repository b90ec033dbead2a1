#!/usr/bin/env python3
"""Time conv2d, batch_norm and adaptive_avg_pool2d, forward and backward rule,
at the exact calls of one training forward of the full model (PK 8x2 clips of
T=4 frames of 32x16, CSL and STI at stages 2-4), and write BENCH_ops.json.

    PYTHONPATH=src python3 scripts/bench_ops.py [--repeats 30] [--out BENCH_ops.json]

The script pins BLAS and OpenMP to one thread before numpy loads.  It runs one
forward with the three ops wrapped to keep each call's arguments, then replays
every call ``--repeats`` times: the forward as the model called it (same
tensors, same gradient flags) and the backward rule of its graph node on a
fixed random upstream gradient.  Each call reports its median times and the
bytes its graph node keeps for the backward (the unique base arrays of its
saved values, counted as ``graph.saved_mb`` counts a whole graph); each op
kind reports the sum over its calls, which is one forward's worth.  The JSON
also holds the thread variables, the BLAS, nproc and the 1-minute load average
at start and end.
"""

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_VARIABLES:            # before numpy loads its BLAS
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from cstnet import csl, model, nn, sti, tensor  # noqa: E402

OPS = ("conv2d", "batch_norm", "adaptive_avg_pool2d")
# (module, name) of every place the model calls one of OPS from
CALL_SITES = ((nn, "conv2d"), (nn, "batch_norm"), (model, "adaptive_avg_pool2d"),
              (csl, "adaptive_avg_pool2d"), (sti, "adaptive_avg_pool2d"))
P, K, T, H, W = 8, 2, 4, 32, 16


def record_calls(seed: int) -> list:
    """(op, args, kwargs) of each call of OPS in one training forward."""
    calls = []
    originals = {}

    def recorder(op, fn):
        def wrapped(*args, **kwargs):
            calls.append((op, args, kwargs))
            return fn(*args, **kwargs)
        return wrapped

    for module, name in CALL_SITES:
        originals[module, name] = vars(module)[name]
        setattr(module, name, recorder(name, originals[module, name]))
    try:
        net = model.Cstnet(model.CstnetConfig(num_identities=16, clip_len=T, frame_h=H,
                                              frame_w=W, seed=seed))
        clips = np.random.default_rng(seed).random((P * K, T, 3, H, W)).astype(np.float32)
        net(clips)
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)
    return calls


def describe(op: str, args, kwargs) -> dict:
    x = args[0]
    row = {"op": op, "x": list(x.shape), "dtype": str(x.dtype), "x_requires_grad": x.requires_grad}
    if op == "conv2d":
        row.update(w=list(args[1].shape), bias=len(args) > 2 and args[2] is not None,
                   stride=kwargs.get("stride", 1), padding=kwargs.get("padding", 0))
    elif op == "batch_norm":
        row.update(training=args[5] if len(args) > 5 else kwargs["training"])
    else:
        row.update(out=list(args[1:3]))
    return row


def saved_bytes(values) -> int:
    """Bytes of the unique root arrays among (nested) saved values."""
    roots, stack = {}, list(values)
    while stack:
        v = stack.pop()
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, np.ndarray):
            while isinstance(v.base, np.ndarray):
                v = v.base
            roots[id(v)] = v.nbytes
    return sum(roots.values())


def time_call(fn, args, kwargs, repeats: int, rng) -> tuple[float, float, int]:
    """Median forward and backward-rule milliseconds of one call, and its saved bytes."""
    out = fn(*args, **kwargs)
    nbytes = saved_bytes(out.op.saved)
    g = rng.standard_normal(out.shape).astype(out.dtype)
    fwd, bwd = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        fwd.append(time.perf_counter() - start)
        start = time.perf_counter()
        out.op.backward_fn(g, out.op.saved)
        bwd.append(time.perf_counter() - start)
    return 1e3 * float(np.median(fwd)), 1e3 * float(np.median(bwd)), nbytes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_ops.json")
    args = parser.parse_args()

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    env.update(numpy=np.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
               python=platform.python_version(), nproc=os.cpu_count(),
               load1_start=os.getloadavg()[0])

    rng = np.random.default_rng(args.seed)
    rows = []
    for op, call_args, call_kwargs in record_calls(args.seed):
        fwd_ms, bwd_ms, nbytes = time_call(vars(tensor)[op], call_args, call_kwargs,
                                           args.repeats, rng)
        rows.append({**describe(op, call_args, call_kwargs),
                     "fwd_ms": round(fwd_ms, 4), "bwd_ms": round(bwd_ms, 4), "saved_bytes": nbytes})
    totals = {op: {"calls": sum(r["op"] == op for r in rows),
                   "fwd_ms": round(sum(r["fwd_ms"] for r in rows if r["op"] == op), 3),
                   "bwd_ms": round(sum(r["bwd_ms"] for r in rows if r["op"] == op), 3),
                   "saved_bytes": sum(r["saved_bytes"] for r in rows if r["op"] == op)}
              for op in OPS}
    env["load1_end"] = os.getloadavg()[0]
    result = {"env": env,
              "workload": {"model": "full", "batch": f"PK {P}x{K}", "clip_len": T,
                           "frame": [H, W], "seed": args.seed, "repeats": args.repeats},
              "ops": totals, "calls": rows}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for op, t in totals.items():
        print(f"{op:20s} calls={t['calls']:3d} fwd_ms={t['fwd_ms']:8.3f} bwd_ms={t['bwd_ms']:8.3f} "
              f"saved_mb={t['saved_bytes'] / 2 ** 20:7.2f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

"""Benchmark of cstnet: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 15 --trace 0

The run pins BLAS and OpenMP to one thread, sets up the workload several
times (set-up time is the median), runs warm-up rounds, then runs closed-loop
rounds (one client; the next operation starts when the previous one ends)
until ``--seconds`` have passed, and then checks the program's outputs.
With ``--trace 1`` every other round is traced and the per-layer metrics
are reported instead of the end-to-end ones; the untraced rounds of the same
run give the tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_VARIABLES:            # before numpy loads its BLAS
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

END_TO_END = {"setup_s": "s", "op_ms.p50": "ms", "clips_per_s": "1/s", "peak_rss_mb": "MB"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def environment(when: str) -> dict:
    env = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env.update(numpy=np.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
               nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(),
               python=sys.version.split()[0])
    env[f"load1_{when}"] = os.getloadavg()[0]
    return env


def import_program():
    """Import cstnet from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "cstnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cstnet sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cstnet
    if not Path(cstnet.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported cstnet from {cstnet.__file__}, not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env", json.dumps(environment("start"), sort_keys=True))

    clock = time.perf_counter
    workdir = HERE / "out" / f"run-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups, parts = [], []
        for _ in range(wl.setup_repeats):
            start = clock()
            parts.append(wl.setup())
            setups.append(clock() - start)
        for _ in range(wl.warmup_rounds):
            wl.round()

        durations = {False: [], True: []}      # by whether the round was traced
        attempted = failed = clips = 0
        errors = []
        started = clock()
        rounds = 0
        # a traced run needs an untraced round too, for the overhead
        while clock() - started < args.seconds or (tracer is not None and rounds < 2):
            traced = tracer is not None and rounds % 2 == 0
            rounds += 1
            if traced:
                tracer.install()
            try:
                ops, round_clips = wl.round()
            except Exception:                  # a failed round counts, the run goes on
                attempted += wl.ops_per_round
                failed += wl.ops_per_round
                errors.append(traceback.format_exc(limit=3))
                continue
            finally:
                if traced:
                    tracer.remove()
            attempted += len(ops)
            clips += round_clips
            durations[traced].extend(ops)
        window = clock() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = wl.checks()
    finally:
        wl.close()

    untraced, traced_ops = durations[False], durations[True]
    if tracer is None:
        values = {"setup_s": statistics.median(setups),
                  "op_ms.p50": 1e3 * statistics.median(untraced),
                  "clips_per_s": clips / window, "peak_rss_mb": peak_rss_mb}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        layer = tracer.report(len(traced_ops))
        for name in tracing.SETUP_METRICS:
            layer[name] = statistics.median(p.get(name, 0.0) for p in parts)
        layer["trace.overhead_pct"] = 100.0 * (statistics.median(traced_ops)
                                               / statistics.median(untraced) - 1.0)
        metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER_METRICS.items()}
        checks.append(backward_split_check(layer))

    print(f"setup runs {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups) + " s")
    print(f"operations timed: {len(untraced)} untraced, {len(traced_ops)} traced "
          f"in {window:.2f} s; failed {failed}")
    if len(untraced) >= 100:
        p90 = 1e3 * statistics.quantiles(untraced, n=10)[-1]
        print(f"op_ms.p90 {p90:.4f} ms (over {len(untraced)} operations)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, passed, detail in checks:
        print(f"check {'PASS' if passed else 'FAIL'} {name}: {detail}")
    for error in errors:
        print("error in a round:\n" + error)
    print("env", json.dumps(environment("end"), sort_keys=True))
    if tracer is not None:
        write_trace(tracer, args)

    correct = all(passed for _, passed, _ in checks)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def backward_split_check(layer: dict):
    """The backward split by module and by op kind cover the same time, within the total."""
    modules = sum(v for k, v in layer.items() if k.startswith("bwd.") and k != "bwd.engine_ms")
    kinds = sum(v for k, v in layer.items() if k.startswith("bwd_op."))
    total = layer["engine.backward_ms"]
    ok = abs(modules - kinds) <= 1e-9 * max(1.0, total) and modules <= total
    return ("backward_split_sums", ok,
            f"modules {modules:.4f} ms, op kinds {kinds:.4f} ms, engine.backward_ms {total:.4f} ms")


def write_trace(tracer, args):
    """Spans of the traced rounds, kept in memory until now."""
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"],
                               "spans": [s for s in tracer.spans if s is not None]}))
    print(f"trace written to {out.relative_to(ROOT)} ({len(tracer.spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())

"""Smoke runs of ``scripts/``: each script runs to the end in a subprocess and
prints or writes what it promises.  The command line's exit code is checked
across the process boundary too."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cstnet.blas import THREAD_VARIABLES

ROOT = Path(__file__).resolve().parents[1]


def run(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           **{variable: "1" for variable in THREAD_VARIABLES}}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def run_script(name: str, *args: str) -> str:
    done = run(str(ROOT / "scripts" / name), *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def variant_rows(stdout: str) -> dict[str, list[str]]:
    """variant -> the words of its row in the summary table."""
    lines = stdout.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("variant"))
    return {line.split()[0]: line.split() for line in lines[head + 1:-1]}


def test_ablation_prints_every_variant_and_the_paired_difference():
    stdout = run_script("run_experiment.py", "ablation", "--seeds", "0", "--epochs", "1")
    assert "d rank-1 vs base (mean +- SE)" in stdout
    rows = variant_rows(stdout)
    assert list(rows) == ["base", "csl", "sti", "full"]
    assert len(rows["base"]) == 3                     # name, median, seed 0
    for variant in ("csl", "sti", "full"):       # a mean difference, and no SE of one seed
        assert len(rows[variant]) == 6 and rows[variant][-2:] == ["+-", "nan"]


def test_learnability_prints_the_full_row():
    stdout = run_script("run_experiment.py", "learnability", "--seeds", "0", "--epochs", "1")
    rows = variant_rows(stdout)
    assert list(rows) == ["full"]
    assert len(rows["full"]) == 3
    assert "vs base" not in stdout


def test_bench_ops_records_every_op_kind(tmp_path):
    out = tmp_path / "ops.json"
    run_script("bench_ops.py", "--repeats", "1", "--out", str(out))
    result = json.loads(out.read_text())
    assert "env" in result
    for op in ("conv2d", "batch_norm", "adaptive_avg_pool2d"):
        assert result["ops"][op]["calls"] > 0, op


def test_thread_variables_load_no_numpy():
    # scripts import the list before they pin the BLAS, which numpy loads
    done = run("-c", "import sys; from cstnet.blas import THREAD_VARIABLES; "
                     "print(len(THREAD_VARIABLES), 'numpy' in sys.modules)")
    assert done.stdout.split() == ["6", "False"], done.stderr


def test_every_package_name_loads_on_first_use():
    import cstnet
    assert all(getattr(cstnet, name).__name__ == name for name in cstnet.__all__)


def test_cli_process_exits_one_without_a_traceback(tmp_path):
    done = run("-m", "cstnet.cli", "eval", "--checkpoint", str(tmp_path),
               "--data", str(tmp_path), "--out", str(tmp_path / "out"))
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {tmp_path}: ")
    assert "Traceback" not in done.stderr

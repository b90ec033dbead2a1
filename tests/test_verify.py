"""The self-verification suite itself: clean pass and mutation detection."""

import numpy as np

from cstnet.verify import main_report, run_verification


def test_clean_build_passes_everything():
    results = run_verification()
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing properties: {failed}"


def test_sign_flip_fault_is_caught_where_expected():
    results = {r.name: r for r in run_verification(inject_fault="ncc-sign-flip")}
    assert results["ncc/symmetry_exact"].passed            # symmetry survives the flip
    assert not results["ncc/affine_invariance"].passed     # invariance breaks
    assert not results["oracle/fused_cosaliency"].passed   # the model's path against the oracle
    assert any(not r.passed for r in results.values())


def test_gradcheck_suite_reports_small_errors(gradcheck_run):
    results, _ = gradcheck_run
    assert all(r.passed for r in results)
    worst = max(r.measured for r in results if r.name.startswith("grad/"))
    assert worst < 1e-4


def test_report_lines_and_exit_logic(capsys, gradcheck_run):
    results, _ = gradcheck_run
    ok = main_report(results, checks_s=1.25)
    out = capsys.readouterr().out
    assert ok
    assert "max gradient-check relative error" in out
    assert f"{len(results)}/{len(results)} properties passed (1.25s checks)" in out
    assert out.count("PASS") == len(results)

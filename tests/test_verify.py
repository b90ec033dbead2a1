"""The self-verification suite itself: clean pass and mutation detection."""

import numpy as np

from cstnet.verify import main_report, run_gradcheck_suite, run_verification


def test_clean_build_passes_everything():
    results = run_verification()
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing properties: {failed}"


def test_sign_flip_fault_is_caught_where_expected():
    results = {r.name: r for r in run_verification(inject_fault="ncc-sign-flip")}
    assert results["ncc/symmetry_exact"].passed            # symmetry survives the flip
    assert not results["ncc/affine_invariance"].passed     # invariance breaks
    assert not results["oracle/spatial_volume"].passed     # oracles catch it too
    assert not results["oracle/channel_volume"].passed
    assert any(not r.passed for r in results.values())


def test_gradcheck_suite_reports_small_errors():
    results = run_gradcheck_suite()
    assert all(r.passed for r in results)
    worst = max(r.measured for r in results if r.name.startswith("grad/"))
    assert worst < 1e-4


def test_report_lines_and_exit_logic(capsys):
    results = run_gradcheck_suite()
    ok = main_report(results, checks_s=1.25)
    out = capsys.readouterr().out
    assert ok
    assert "max gradient-check relative error" in out
    assert f"{len(results)}/{len(results)} properties passed (1.25s checks)" in out
    assert out.count("PASS") == len(results)

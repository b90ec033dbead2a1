"""The self-verification suite itself: clean pass, mutation detection,
gradcheck errors and the report."""

from cstnet.verify import main_report, run_verification


def test_clean_build_passes_everything():
    results = run_verification()
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing properties: {failed}"


def test_sign_flip_fault_is_caught_where_expected(sign_flip_verify_run):
    _, status = sign_flip_verify_run
    failed = {name for name, verdict in status.items() if verdict == "FAIL"}
    assert status["ncc/symmetry_exact"] == "PASS"             # symmetry survives the flip
    # invariance breaks, and the model's path no longer matches the oracle;
    # nothing else reads the fault
    assert failed == {"ncc/affine_invariance", "oracle/fused_cosaliency"}


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

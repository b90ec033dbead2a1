"""The self-verification suite itself: clean pass, gradcheck errors and the
report.  The run under an injected fault is checked through the CLI."""

from cstnet.verify import main_report


def test_clean_build_passes_everything(verify_run):
    results, _ = verify_run
    failed = [name for name, r in results.items() if not r.passed]
    assert not failed, f"failing properties: {failed}"


def test_gradcheck_suite_reports_small_errors(verify_run):
    results, _ = verify_run
    grads = [r for name, r in results.items() if name.startswith("grad/")]
    assert grads and all(r.passed for r in grads)
    assert max(r.measured for r in grads) < 1e-4


def test_report_lines_and_exit_logic(capsys, verify_run):
    results = list(verify_run[0].values())
    ok = main_report(results, checks_s=1.25)
    out = capsys.readouterr().out
    assert ok
    assert "max gradient-check relative error" in out
    assert f"{len(results)}/{len(results)} properties passed (1.25s checks)" in out
    assert out.count("PASS") == len(results)

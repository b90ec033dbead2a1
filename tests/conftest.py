import contextlib
import io
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cstnet.cli import main
from cstnet.verify import run_gradcheck_suite

settings.register_profile(
    "ci", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def gradcheck_run():
    """One run of the finite-difference suite, shared by the tests that only
    read its results: (results, seconds the run took)."""
    started = time.perf_counter()
    results = run_gradcheck_suite()
    return results, time.perf_counter() - started


@pytest.fixture(scope="session")
def sign_flip_verify_run():
    """One ``cstnet verify --inject-fault ncc-sign-flip`` run, shared by the
    tests that read it: (exit code, {property name: "PASS" or "FAIL"})."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--inject-fault", "ncc-sign-flip"])
    status = {}
    for line in out.getvalue().splitlines():
        if line.startswith(("PASS  ", "FAIL  ")):
            verdict, name = line.split()[:2]
            status[name] = verdict
    return code, status

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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

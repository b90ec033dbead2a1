import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cstnet.verify import run_verification

settings.register_profile(
    "ci", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def verify_run():
    """One clean ``run_verification``, shared by the tests that only read its
    results: ({property name: result}, seconds the run took)."""
    started = time.perf_counter()
    results = run_verification()
    elapsed = time.perf_counter() - started
    by_name = {r.name: r for r in results}
    assert len(by_name) == len(results), "property names must be unique"
    return by_name, elapsed

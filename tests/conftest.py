import sys

import pytest

from twinforge.archive import Archive
from twinforge.simulate import quiet_failure_scenario, simulate_scenario


def archive_of(samples) -> Archive:
    archive = Archive()
    for s in samples:
        archive.append_sample(s)
    return archive


@pytest.fixture(scope="session")
def small_run():
    """One quiet-failure scenario simulated and archived (session-cached)."""
    spec = quiet_failure_scenario(seed=3)
    samples, truth = simulate_scenario(spec)
    return spec, samples, truth, archive_of(samples)


# An int past Python's default limit of 4,300 digits for int-to-text
# conversion, where repr and str raise ValueError.
HUGE_INT = 10**5000
HUGE_INT_SHOWN = "an int of 16610 bits"


@pytest.fixture
def int_text_limit():
    """Python's default int-to-text limit, whatever the environment sets
    (PYTHONINTMAXSTRDIGITS), restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-text limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)

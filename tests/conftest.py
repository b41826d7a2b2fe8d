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

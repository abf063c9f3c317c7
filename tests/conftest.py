import signal

import pytest
from hypothesis import HealthCheck, settings

# Property tests draw the same examples on every run, and few of them, so
# the suite stays deterministic and fast; nothing is written to disk.
settings.register_profile(
    "tier1",
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tier1")

# Well above the slowest test and above `helpers.run_child`'s 60 s timeout.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S with TimeoutError
    instead of letting it hang the suite: a scheduled run whose flags are
    all down, or a worker that missed its wake, would otherwise wait
    forever. Where the OS has no interval timer the limit is not armed."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {TEST_TIME_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)

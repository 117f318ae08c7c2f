import contextlib
import signal

import pytest
from hypothesis import settings

# Tier-1 runs draw the same examples every time (derandomize seeds the
# generator from each test, and implies no example database), so a failure
# reproduces from the command line alone. `--hypothesis-profile=explore`
# draws at random, with the example database, to look for new failures.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that fails a block that hangs."""
    return _deadline

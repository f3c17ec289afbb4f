import signal

import pytest


@pytest.fixture
def deadline():
    """deadline(seconds) makes the test fail with TimeoutError, rather
    than hang, once it has run that long (a SIGALRM timer)."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)

import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def deadline():
    """``deadline(seconds)`` fails the test instead of letting it hang when it
    runs longer (SIGALRM; pytest runs tests on the main thread)."""
    def on_alarm(signum, frame):
        pytest.fail("did not finish before its deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)

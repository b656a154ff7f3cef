"""One time limit for every test, so a test that loops fails by name instead of hanging the suite.

The slowest test takes about 2 s; the limit is far above every test, and
no test sets its own.
"""

import signal

import pytest

TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TIME_LIMIT_S.

    Not an Exception, so no handler in the code under test catches it.
    """


def _expire(signum, frame):
    raise TimeLimitExceeded(f"the test ran past its {TIME_LIMIT_S} s limit")


@pytest.fixture(autouse=True)
def _time_limit():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

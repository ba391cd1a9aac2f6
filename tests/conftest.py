import pytest
from mpmath import mp


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    # mpmath's precision is process-wide: a test that sets mp.dps changes the
    # oracles of every later test; use ``with mp.workdps(n)`` instead
    dps = mp.dps
    try:
        result = yield
    finally:
        left, mp.dps = mp.dps, dps
    if left != dps:
        pytest.fail(f"the test left mp.dps at {left}; use mp.workdps")
    return result

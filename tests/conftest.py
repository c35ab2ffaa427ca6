import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def pytest_report_header(config):
    from latfun import kernels

    return f"latfun kernel backend: {kernels.BACKEND}"

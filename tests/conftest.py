import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from diskmag.config import DEFAULT_CONFIG
from diskmag.crossings import crossings_range
from diskmag.degennes import compute_constants
from diskmag.derivatives import one_sided_chain


@pytest.fixture(scope="session")
def config():
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def constants(config):
    return compute_constants(config)


@pytest.fixture(scope="session")
def crossings400(config):
    return crossings_range(400, config)


@pytest.fixture(scope="session")
def envelope_derivatives(config, crossings400):
    """(left, right) = (lambda'(n, beta_n), lambda'(n+1, beta_n)) for all n."""
    left, right, _, _ = one_sided_chain(range(len(crossings400)), 400, config)
    return left.as_dict(), right.as_dict()

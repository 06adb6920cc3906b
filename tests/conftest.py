import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from diskmag.crossings import crossings_range
from diskmag.degennes import compute_constants
from diskmag.derivatives import one_sided_chain


@pytest.fixture(scope="session")
def constants():
    return compute_constants()


@pytest.fixture(scope="session")
def crossings400():
    return crossings_range(400)


@pytest.fixture(scope="session")
def envelope_derivatives(crossings400):
    """(left, right) = (lambda'(n, beta_n), lambda'(n+1, beta_n)) for all n."""
    left, right, _, _ = one_sided_chain(range(len(crossings400)), 400)
    return left, right

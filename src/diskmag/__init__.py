"""Spectral toolkit for the magnetic Neumann Laplacian on the unit disk."""

from .crossings import (CrossingPoint, crossing_by_curves, crossing_by_phi,
                        crossing_by_system, crossings_range, saint_james_beta)
from .degennes import DeGennesConstants, compute_constants
from .derivatives import conjecture_scan, lambda_prime, one_sided_derivatives
from .spectrum import EigenPoint, ground_state, lowest_eigenvalue

__all__ = [
    "CrossingPoint", "crossing_by_curves", "crossing_by_phi",
    "crossing_by_system", "crossings_range", "saint_james_beta",
    "DeGennesConstants", "compute_constants",
    "conjecture_scan", "lambda_prime", "one_sided_derivatives",
    "EigenPoint", "ground_state", "lowest_eigenvalue",
]
__version__ = "0.1.0"

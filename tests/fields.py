"""Fields the tests build by hand."""

import math

import numpy as np

from expsqlab import SpectralField


def constant_field(grid, value: float) -> SpectralField:
    """The constant field ``value``: coeff(0) = 2 pi value, every other mode 0."""
    coeffs = np.zeros((grid.modes_per_dim,) * 2, dtype=np.complex128)
    coeffs[0, 0] = 2.0 * math.pi * value
    return SpectralField(grid, coeffs)

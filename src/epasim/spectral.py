"""Transform-based operators on the periodic unit torus T = [-1/2, 1/2).

Fields are plain float64 arrays sampled at the uniform points
x_j = -1/2 + j/n of a :class:`Grid`. Spectral coefficients follow the
e^{2 pi i k x} convention on the unit-length torus, so the derivative
multiplier is 2*pi*i*k and the fractional Laplacian multiplier is
(2*pi*|k|)^alpha, which ``model.spectral_plan`` applies. All operators
are pure functions of their inputs and are safe to call concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Relative tolerance on the mean of g - psi_l * rho, which the velocity
# recovery integrates, and on the drift of the mean density from its
# conserved value. A larger residual signals a broken invariant upstream.
MEAN_TOL = 1e-10


class InvalidFieldError(ValueError):
    """Field contains NaN or infinite samples."""


class GridMismatchError(ValueError):
    """Operands sampled on different grids."""


class MeanViolationError(ValueError):
    """Primitive of a field whose mean is not (numerically) zero, or a mass drift."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n points on the unit torus.

    Parameters
    ----------
    n : int
        Number of points, an integer and not a bool; must be even and at
        least 8 so the 2/3 dealiasing cutoff is well defined. Powers of two
        give the fastest transforms but are not required.
    """

    n: int

    def __post_init__(self) -> None:
        # Grid(64.0) and Grid(True) would compare and hash equal to int grids
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 8:
            raise ValueError(f"grid size must be >= 8, got {self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"grid size must be even, got {self.n}")
        object.__setattr__(self, "dx", 1.0 / self.n)
        object.__setattr__(self, "x", -0.5 + np.arange(self.n) / self.n)
        # rfft layout: integer modes k = 0 .. n/2, of which the 2/3 rule
        # keeps the band k = 0 .. n // 3
        k = np.arange(self.n // 2 + 1)
        object.__setattr__(self, "modes", k)
        object.__setattr__(self, "two_pi_k", 2.0 * np.pi * k)
        object.__setattr__(self, "band", self.n // 3 + 1)


def _check(f: np.ndarray, grid: Grid) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n,):
        raise GridMismatchError(f"expected shape ({grid.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidFieldError("field contains non-finite samples")
    return f


def _origin_phase(grid: Grid) -> np.ndarray:
    # samples start at x_0 = -1/2, so rfft output is (-1)^k times the
    # true coefficient of e^{2 pi i k x}
    return np.where(grid.modes % 2 == 0, 1.0, -1.0)


def to_spectrum(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients c_k of e^{2 pi i k x}, k = 0..n/2 (rfft layout).

    Real fields have Hermitian-symmetric full spectra, so the
    non-negative half determines the field.
    """
    return _origin_phase(grid) * np.fft.rfft(_check(f, grid)) / grid.n


def mean(f: np.ndarray) -> float:
    """Torus integral of f (domain has unit length)."""
    return float(np.mean(f))


def derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dx. The asymmetric Nyquist mode is zeroed."""
    fh = np.fft.rfft(_check(f, grid))
    fh *= 1j * grid.two_pi_k
    fh[-1] = 0.0
    return np.fft.irfft(fh, n=grid.n)


def second_derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d^2/dx^2 (even multiplier, Nyquist kept)."""
    fh = np.fft.rfft(_check(f, grid))
    fh *= -np.square(grid.two_pi_k)
    return np.fft.irfft(fh, n=grid.n)


def convolve(f: np.ndarray, g: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic convolution (f*g)(x) = int_T f(y) g(x-y) dy.

    Computed as a spectral product; exact for band-limited inputs.
    """
    fh = np.fft.rfft(_check(f, grid))
    gh = np.fft.rfft(_check(g, grid))
    return np.fft.irfft(_origin_phase(grid) * fh * gh / grid.n, n=grid.n)

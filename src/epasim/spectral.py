"""Transform-based operators on the periodic unit torus T = [-1/2, 1/2).

Fields are plain float64 arrays sampled at the uniform points
x_j = -1/2 + j/n of a :class:`Grid`. Spectral coefficients follow the
e^{2 pi i k x} convention on the unit-length torus, so the derivative
multiplier is 2*pi*i*k and the fractional Laplacian multiplier is
(2*pi*|k|)^alpha, which ``model.spectral_plan`` applies. All operators
are pure functions of their inputs and are safe to call concurrently.

:func:`rfft` and :func:`irfft` are the one home of every transform in
``epasim``; callers in other modules reach them as ``spectral.rfft`` and
``spectral.irfft``, so that a test can wrap them. They call numpy's
pocketfft gufuncs directly, with the fct argument and a fresh output of
the shape and dtype that ``np.fft.rfft`` and ``np.fft.irfft`` pass, so
their results are numpy's bit for bit. What they skip is numpy's Python
wrapper (dtype resolution, axis normalisation, ``empty_like`` and the
gufunc's ``axes=`` parsing), which costs about as much as the transform
on the solver's small blocks: with ``timeit`` at n = 256 a (2, n) rfft
took 7.1 against 4.3 us and a (2, n // 3 + 1) band irfft 7.5 against
4.3 us (2-core Xeon, numpy 2.4.6). The gufuncs live in numpy >= 2.0's
private ``numpy.fft._pocketfft_umath``, which the package requires; there
is no fallback, and the bit-for-bit test of the home against ``np.fft``
is what catches a numpy that moves or changes them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

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

    A grid stores ``n``, the spacing ``dx = 1/n`` and ``band = n // 3 + 1``,
    the number of rfft modes k = 0 .. n // 3 that the 2/3 rule keeps, and no
    array: the points ``x``, the rfft modes ``modes`` (k = 0 .. n/2) and
    ``two_pi_k`` are computed on each read, as only the cached builders of
    multipliers, ``make_initial`` and the gaussian presets read them.

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
        object.__setattr__(self, "band", self.n // 3 + 1)

    x = property(lambda self: -0.5 + np.arange(self.n) / self.n)
    modes = property(lambda self: np.arange(self.n // 2 + 1))
    two_pi_k = property(lambda self: 2.0 * np.pi * self.modes)


def rfft(x: np.ndarray) -> np.ndarray:
    """``np.fft.rfft(x)`` of the float64 rows x along the last axis, bit for bit."""
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (n // 2 + 1,), dtype=complex)
    # pocketfft's even-length kernel gives wrong values, with no error, on an odd row
    return (_pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd)(x, 1, out=out)


def irfft(spec: np.ndarray, n: int) -> np.ndarray:
    """``np.fft.irfft(spec, n=n)`` of the complex128 rows spec, bit for bit.

    A band of fewer than n // 2 + 1 modes transforms as its zero-padded
    spectrum.
    """
    out = np.empty(spec.shape[:-1] + (n,))
    return _pocketfft.irfft(spec, 1.0 / n, out=out)


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


def mean(f: np.ndarray) -> float:
    """Torus integral of f (domain has unit length): ``np.mean`` of a float
    array bit for bit, without its Python wrapper."""
    return float(np.add.reduce(f, axis=None)) / f.size


def derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dx. The asymmetric Nyquist mode is zeroed."""
    fh = rfft(_check(f, grid))
    fh *= 1j * grid.two_pi_k
    fh[-1] = 0.0
    return irfft(fh, n=grid.n)


def second_derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d^2/dx^2 (even multiplier, Nyquist kept)."""
    fh = rfft(_check(f, grid))
    fh *= -np.square(grid.two_pi_k)
    return irfft(fh, n=grid.n)


def convolve(f: np.ndarray, g: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic convolution (f*g)(x) = int_T f(y) g(x-y) dy.

    Computed as a spectral product; exact for band-limited inputs.
    """
    fh = rfft(_check(f, grid))
    gh = rfft(_check(g, grid))
    return irfft(_origin_phase(grid) * fh * gh / grid.n, n=grid.n)

"""Communication kernels and attraction-repulsion potentials.

The singular kernel family is psi_alpha(x) = sum_m c_alpha / |x+m|^(1+alpha),
the periodization of c_alpha |x|^-(1+alpha) over the unit torus, normalized
so that principal-value quadrature against it reproduces the fractional
Laplacian multiplier (2 pi |k|)^alpha. An effective kernel is
c * psi_alpha + psi_l with psi_l bounded and Lipschitz, and must be
strictly positive away from the origin.

Potentials split into a Newtonian part of strength k (whose induced force
solves the Poisson equation with background) and a twice-differentiable
regular part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectral import (
    Grid,
    _check,
    circular_correlate,
    convolve,
    derivative,
    midpoint_offsets,
    resample_midpoints,
    second_derivative,
    to_spectrum,
)


class SingularityError(ValueError):
    """Kernel evaluated at x = 0 (mod 1)."""


class KernelPositivityError(ValueError):
    """Effective kernel is not strictly positive away from the origin."""


def c_alpha(alpha: float) -> float:
    """Normalization constant of the 1D fractional Laplacian kernel.

    c_alpha = 2^alpha Gamma((1+alpha)/2) / (sqrt(pi) |Gamma(-alpha/2)|) is
    the unique constant for which

        c_alpha P.V. int (f(x) - f(x+y)) / |y|^(1+alpha) dy

    equals the Fourier multiplier (2 pi |k|)^alpha on the unit torus.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    return (
        2.0**alpha
        * math.gamma((1.0 + alpha) / 2.0)
        / (math.sqrt(math.pi) * abs(math.gamma(-alpha / 2.0)))
    )


def _tail(b: np.ndarray, alpha: float) -> np.ndarray:
    # Euler-Maclaurin midpoint tail of sum_{m>M} (m+x)^-(1+alpha), b = M+1/2+x:
    #   int_b^inf s^-(1+a) ds + f'(b)/24 - 7 f'''(b)/5760
    p1 = 1.0 + alpha
    return (
        b**-alpha / alpha
        - (p1 / 24.0) * b ** -(2.0 + alpha)
        + (7.0 * p1 * (2.0 + alpha) * (3.0 + alpha) / 5760.0) * b ** -(4.0 + alpha)
    )


def _truncation_order(alpha: float, tol: float) -> int:
    # leading neglected Euler-Maclaurin term: 31 f^(5)(b) / 967680
    k5 = 31.0 * math.prod(alpha + j for j in range(1, 6)) / 967680.0
    m = (4.0 * c_alpha(alpha) * k5 / tol) ** (1.0 / (6.0 + alpha))
    return max(16, int(math.ceil(m)))


def psi_alpha(x, alpha: float, tol: float = 1e-12):
    """Periodized singular kernel sum_m c_alpha / |x+m|^(1+alpha).

    Evaluated by symmetric truncation of the lattice sum at |m| <= M plus
    an integral tail estimate with Euler-Maclaurin corrections; M is
    chosen from ``tol`` so the absolute truncation error stays below it.

    Parameters
    ----------
    x : float or array
        Point(s) on the torus, x != 0 (mod 1).
    alpha : float
        Singularity exponent, in (0, 2).
    tol : float
        Absolute truncation error budget.
    """
    ca = c_alpha(alpha)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    # reduce to periodic distance s in (0, 1/2]
    s = np.abs(xs - np.round(xs))
    if np.any(s < 1e-15):
        raise SingularityError("psi_alpha is singular at x = 0 (mod 1)")
    p = 1.0 + alpha
    m_max = _truncation_order(alpha, tol)
    total = s**-p
    mm = np.arange(1.0, m_max + 1.0)
    # chunk the (points x terms) table to bound memory on fine grids
    step = max(1, int(2e6) // mm.size)
    for lo in range(0, s.size, step):
        blk = s[lo : lo + step, None]
        total[lo : lo + step] += np.sum((mm + blk) ** -p + (mm - blk) ** -p, axis=1)
    a = m_max + 0.5
    total += _tail(a + s, alpha) + _tail(a - s, alpha)
    out = ca * total
    return float(out[0]) if scalar else out


def psi_alpha_min(alpha: float, tol: float = 1e-12) -> float:
    """Minimum of psi_alpha over the torus, attained at x = 1/2."""
    return float(psi_alpha(0.5, alpha, tol))


# ---------------------------------------------------------------------------
# kernel and potential presets


def _interp_periodic(x, xs, vs):
    return np.interp(np.asarray(x, dtype=float), np.asarray(xs), np.asarray(vs), period=1.0)


def _validate_table(xs, vs) -> None:
    xs = np.asarray(xs)
    vs = np.asarray(vs)
    if xs.size < 2 or xs.size != vs.size:
        raise ValueError("sampled table needs at least two (x, value) rows")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise ValueError("sampled table contains non-finite entries")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    if xs[0] < -0.5 or xs[-1] >= 0.5:
        raise ValueError("table abscissae must lie in [-1/2, 1/2)")


@dataclass(frozen=True)
class LipschitzKernel:
    """Bounded Lipschitz kernel part, from a closed preset list.

    kind: "zero" | "constant" (value a) | "cosine" (a + b cos 2 pi x)
    | "table" (periodic linear interpolation of sampled points).
    """

    kind: str = "zero"
    a: float = 0.0
    b: float = 0.0
    xs: tuple = ()
    vs: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "constant", "cosine", "table"):
            raise ValueError(f"unknown Lipschitz kernel kind {self.kind!r}")
        if self.kind == "table":
            _validate_table(self.xs, self.vs)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (
            self.kind in ("constant", "cosine") and self.a == 0.0 and self.b == 0.0
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.a)
        if self.kind == "cosine":
            return self.a + self.b * np.cos(2 * np.pi * x)
        return _interp_periodic(x, self.xs, self.vs)

    def sup_norm(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return abs(self.a)
        if self.kind == "cosine":
            return abs(self.a) + abs(self.b)
        return float(np.max(np.abs(self.vs)))


@dataclass(frozen=True)
class RegularPotential:
    """W^{2,inf} potential part.

    kind: "zero" | "cosine" (amp cos 2 pi x) | "gaussian" (periodized
    amp exp(-x^2 / 2 width^2)) | "table" (sampled values, linear
    interpolation; curvature estimated by divided differences).
    """

    kind: str = "zero"
    amp: float = 0.0
    width: float = 0.1
    xs: tuple = ()
    vs: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "cosine", "gaussian", "table"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian potential needs width > 0")
        if self.kind == "table":
            _validate_table(self.xs, self.vs)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind in ("cosine", "gaussian") and self.amp == 0.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "cosine":
            return self.amp * np.cos(2 * np.pi * x)
        if self.kind == "gaussian":
            out = np.zeros_like(x)
            for m in range(-6, 7):
                out += np.exp(-((x + m) ** 2) / (2.0 * self.width**2))
            return self.amp * out
        return _interp_periodic(x, self.xs, self.vs)

    def second_derivative_sup(self) -> float:
        """Recorded sup-norm of the potential curvature, |d^2 K/dx^2|."""
        if self.is_zero:
            return 0.0
        if self.kind == "cosine":
            return abs(self.amp) * (2 * np.pi) ** 2
        if self.kind == "gaussian":
            x = np.linspace(-0.5, 0.5, 4097)
            w2 = self.width**2
            out = np.zeros_like(x)
            for m in range(-6, 7):
                u = x + m
                out += (u**2 / w2 - 1.0) / w2 * np.exp(-(u**2) / (2.0 * w2))
            return float(np.max(np.abs(self.amp * out)))
        # three-point divided differences on the sampled nodes, periodic wrap
        xs = np.asarray(self.xs)
        vs = np.asarray(self.vs)
        xe = np.concatenate(([xs[-1] - 1.0], xs, [xs[0] + 1.0]))
        ve = np.concatenate(([vs[-1]], vs, [vs[0]]))
        h0 = xe[1:-1] - xe[:-2]
        h1 = xe[2:] - xe[1:-1]
        dd = 2.0 * (ve[2:] * h0 + ve[:-2] * h1 - ve[1:-1] * (h0 + h1)) / (h0 * h1 * (h0 + h1))
        return float(np.max(np.abs(dd)))


@dataclass(frozen=True)
class KernelSpec:
    """Effective alignment kernel c * psi_alpha + psi_l."""

    c: float = 1.0
    alpha: float = 0.5
    psi_l: LipschitzKernel = field(default_factory=LipschitzKernel)

    def __post_init__(self) -> None:
        if self.c < 0:
            raise ValueError("singular coefficient c must be >= 0")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.c > 0 and self.alpha >= 2.0:
            raise ValueError("singular kernel requires alpha < 2")

    @property
    def enabled(self) -> bool:
        """Whether any alignment force is present."""
        return self.c > 0 or not self.psi_l.is_zero

    def __call__(self, x, tol: float = 1e-12):
        vals = self.psi_l(x)
        if self.c > 0:
            vals = vals + self.c * psi_alpha(x, self.alpha, tol)
        return vals


@dataclass(frozen=True)
class PotentialSpec:
    """Attraction-repulsion description: Newtonian strength plus regular part.

    k > 0 is attractive, k < 0 repulsive.
    """

    k: float = 0.0
    kreg: RegularPotential = field(default_factory=RegularPotential)

    @property
    def is_zero(self) -> bool:
        return self.k == 0.0 and self.kreg.is_zero


@lru_cache(maxsize=64)
def kernel_min(spec: KernelSpec, n_probe: int = 8192) -> float:
    """Minimum of the effective kernel over probe points x != 0."""
    x = -0.5 + np.arange(n_probe) / n_probe
    x = x[np.abs(x) > 1e-12]
    return float(np.min(spec(x)))


def validate_positivity(spec: KernelSpec) -> float:
    """Positivity gate: reject kernels without a positive lower bound.

    Returns the (positive) kernel minimum on success.
    """
    if not spec.enabled:
        raise KernelPositivityError("kernel is identically zero")
    m = kernel_min(spec)
    if m <= 0.0:
        raise KernelPositivityError(f"effective kernel minimum {m:.3e} is not positive")
    return m


@lru_cache(maxsize=64)
def lipschitz_on_grid(psi_l: LipschitzKernel, grid: Grid) -> np.ndarray:
    vals = np.asarray(psi_l(grid.x), dtype=float)
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=64)
def potential_on_grid(kreg: RegularPotential, grid: Grid) -> np.ndarray:
    vals = np.asarray(kreg(grid.x), dtype=float)
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=32)
def quadrature_weights(spec: KernelSpec, refinement: int, tol: float = 1e-12) -> np.ndarray:
    """Effective kernel sampled at the midpoint quadrature offsets."""
    y = midpoint_offsets(refinement)
    w = np.asarray(spec(y, tol), dtype=float)
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# forces


def newtonian_force(rho: np.ndarray, k: float, grid: Grid) -> np.ndarray:
    """Force -d(phi)/dx where phi solves phi'' = k (rho - mean rho).

    Spectral multiplier -k / (2 pi i k_mode) on the nonzero modes; the
    output always has zero mean.
    """
    rho = _check(rho, grid)
    fh = np.fft.rfft(rho)
    fh[0] = 0.0
    fh[1:] *= -k / (1j * grid.two_pi_k[1:])
    fh[-1] = 0.0
    return np.fft.irfft(fh, n=grid.n)


def regular_force(rho: np.ndarray, pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Force -d/dx (K_reg * rho) from the regular potential part."""
    if pot.kreg.is_zero:
        return np.zeros(grid.n)
    return -derivative(convolve(potential_on_grid(pot.kreg, grid), rho, grid), grid)


def g_source(rho: np.ndarray, rho_bar: float, pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Potential source term -k (rho - rho_bar) - d^2/dx^2 (K_reg * rho)."""
    out = np.zeros(grid.n)
    if pot.k != 0.0:
        out -= pot.k * (rho - rho_bar)
    if not pot.kreg.is_zero:
        out -= second_derivative(convolve(potential_on_grid(pot.kreg, grid), rho, grid), grid)
    return out


def g_source_multiplier(pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Multiplier -k + (2 pi k)^2 K_reg_hat of the potential source, rfft layout.

    Applied to rfft(rho) it gives rfft(g_source(rho, rho_bar, pot, grid))
    on every mode but k = 0, which needs k n rho_bar added for the
    background.
    """
    out = np.full(grid.n // 2 + 1, -pot.k, dtype=complex)
    if not pot.kreg.is_zero:
        out += np.square(grid.two_pi_k) * to_spectrum(potential_on_grid(pot.kreg, grid), grid)
    return out


def fractional_laplacian_direct(
    f: np.ndarray, alpha: float, grid: Grid, refinement: int, tol: float = 1e-12
) -> np.ndarray:
    """Principal-value quadrature route to the fractional Laplacian.

    Approximates c_alpha P.V. int (f(x) - f(x+y)) / |y|^(1+alpha) dy as a
    midpoint sum over ``refinement`` half-cell-offset nodes (so y = 0 is
    never sampled and the symmetric +-y pairing cancels the odd part),
    with f interpolated trigonometrically onto the refined nodes. This is
    the independent check of the (2 pi |k|)^alpha multiplier route; the
    naive cost O(n * refinement) is reduced to O(refinement log) by
    evaluating the sums as one circular correlation.
    """
    f = _check(f, grid)
    r = -(-int(refinement) // grid.n) * grid.n  # round up to a grid multiple
    spec = KernelSpec(c=1.0, alpha=alpha)
    w = quadrature_weights(spec, r, tol)
    fr = resample_midpoints(f, grid, r)
    corr = circular_correlate(w, fr)
    idx = (np.arange(grid.n) * (r // grid.n) - r // 2) % r
    return (f * np.sum(w) - corr[idx]) / r

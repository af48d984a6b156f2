"""Communication kernels and attraction-repulsion potentials.

The singular kernel family is psi_alpha(x) = sum_m c_alpha / |x+m|^(1+alpha),
the periodization of c_alpha |x|^-(1+alpha) over the unit torus, normalized
so that principal-value quadrature against it reproduces the fractional
Laplacian multiplier (2 pi |k|)^alpha. An effective kernel is
c * psi_alpha + psi_l with psi_l bounded and Lipschitz, and must be
strictly positive away from the origin; the envelope bounds need this,
so ``diagnostics.bound_constants`` rejects a kernel whose ``kernel_min``
is not positive. psi_alpha is convex on (0, 1) and symmetric about 1/2,
so ``kernel_min`` is c psi_alpha(1/2) + min psi_l: the infimum over x != 0
for every kernel but one with c > 0 and a cosine psi_l with b < 0, where
it is a certified but possibly loose lower bound.

Potentials split into a Newtonian part of strength k (whose induced force
solves the Poisson equation with background) and a twice-differentiable
regular part.

Every preset, kernel or potential, is even in x, as in the model: the
alignment and the regular force then act on each pair of points with
equal and opposite momentum, so the dynamics conserve the momentum
int rho u, which every velocity recovery pins to its initial value. A
kernel that is not even would make that pin silently wrong, so there is
no kind for arbitrary samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import Grid, convolve, second_derivative, to_spectrum


class SingularityError(ValueError):
    """Kernel evaluated at x = 0 (mod 1)."""


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


# ---------------------------------------------------------------------------
# kernel and potential presets


@dataclass(frozen=True)
class LipschitzKernel:
    """Bounded Lipschitz kernel part, from a closed preset list.

    kind: "zero" | "constant" (value a) | "cosine" (a + b cos 2 pi x).
    """

    kind: str = "zero"
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "constant", "cosine"):
            raise ValueError(f"unknown Lipschitz kernel kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.a == 0.0 and self.b == 0.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.a)
        return self.a + self.b * np.cos(2 * np.pi * x)

    def value_range(self) -> tuple[float, float]:
        """Minimum and maximum over the torus."""
        if self.kind == "zero":
            return 0.0, 0.0
        if self.kind == "constant":
            return self.a, self.a
        return self.a - abs(self.b), self.a + abs(self.b)

    def sup_norm(self) -> float:
        lo, hi = self.value_range()
        return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class RegularPotential:
    """W^{2,inf} potential part.

    kind: "zero" | "cosine" (amp cos 2 pi x) | "gaussian" (periodized
    amp exp(-x^2 / 2 width^2)).
    """

    kind: str = "zero"
    amp: float = 0.0
    width: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "cosine", "gaussian"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian potential needs width > 0")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or self.amp == 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "cosine":
            return self.amp * np.cos(2 * np.pi * x)
        out = np.zeros_like(x)
        for m in range(-6, 7):
            out += np.exp(-((x + m) ** 2) / (2.0 * self.width**2))
        return self.amp * out

    @cached_property
    def second_derivative_sup(self) -> float:
        """Sup-norm of the potential curvature |d^2 K/dx^2|, sampled once."""
        if self.is_zero:
            return 0.0
        if self.kind == "cosine":
            return abs(self.amp) * (2 * np.pi) ** 2
        x = np.linspace(-0.5, 0.5, 4097)
        w2 = self.width**2
        out = np.zeros_like(x)
        for m in range(-6, 7):
            u = x + m
            out += (u**2 / w2 - 1.0) / w2 * np.exp(-(u**2) / (2.0 * w2))
        return float(np.max(np.abs(self.amp * out)))


@dataclass(frozen=True)
class KernelSpec:
    """Effective alignment kernel c * psi_alpha + psi_l."""

    c: float = 1.0
    alpha: float = 0.5
    psi_l: LipschitzKernel = field(default_factory=LipschitzKernel)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0):  # NaN fails every comparison
            raise ValueError(f"singular coefficient c must be finite and >= 0, got {self.c}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.c > 0 and self.alpha >= 2.0:
            raise ValueError("singular kernel requires alpha < 2")

    @property
    def enabled(self) -> bool:
        """Whether any alignment force is present."""
        return self.c > 0 or not self.psi_l.is_zero


@dataclass(frozen=True)
class PotentialSpec:
    """Attraction-repulsion description: Newtonian strength plus regular part.

    k > 0 is attractive, k < 0 repulsive.
    """

    k: float = 0.0
    kreg: RegularPotential = field(default_factory=RegularPotential)

    def __post_init__(self) -> None:
        if not math.isfinite(self.k):
            raise ValueError(f"Newtonian strength k must be finite, got {self.k}")

    @property
    def is_zero(self) -> bool:
        return self.k == 0.0 and self.kreg.is_zero


def kernel_min(spec: KernelSpec) -> float:
    """Lower bound c psi_alpha(1/2) + min psi_l of the kernel on x != 0; exact
    but for c > 0 with a cosine psi_l whose b < 0."""
    singular = spec.c * psi_alpha(0.5, spec.alpha) if spec.c > 0 else 0.0
    return singular + spec.psi_l.value_range()[0]


# ---------------------------------------------------------------------------
# potential source


def g_source(rho: np.ndarray, rho_bar: float, pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Potential source term -k (rho - rho_bar) - d^2/dx^2 (K_reg * rho)."""
    out = np.zeros(grid.n)
    if pot.k != 0.0:
        out -= pot.k * (rho - rho_bar)
    if not pot.kreg.is_zero:
        out -= second_derivative(convolve(pot.kreg(grid.x), rho, grid), grid)
    return out


def g_source_multiplier(pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Multiplier -k + (2 pi k)^2 K_reg_hat of the potential source, on the band.

    It has the ``grid.band`` modes k = 0 .. n // 3 of the rfft layout that
    the solver carries. Applied to the band of rfft(rho) it gives the band
    of rfft(g_source(rho, rho_bar, pot, grid)) on every mode but k = 0,
    which needs k n rho_bar added for the background.
    """
    b = grid.band
    out = np.full(b, -pot.k, dtype=complex)
    if not pot.kreg.is_zero:
        kreg_hat = to_spectrum(pot.kreg(grid.x), grid)[:b]
        out += np.square(grid.two_pi_k[:b]) * kreg_hat
    return out

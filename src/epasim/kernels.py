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
when c = 0 or psi_l is zero, constant or a + b cos 2 pi x with b >= 0,
and a certified but possibly loose lower bound otherwise.

Potentials split into a Newtonian part of strength k (whose induced force
solves the Poisson equation with background) and a twice-differentiable
regular part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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

    def value_range(self) -> tuple[float, float]:
        """Minimum and maximum over the torus."""
        if self.kind == "zero":
            return 0.0, 0.0
        if self.kind == "constant":
            return self.a, self.a
        if self.kind == "cosine":
            return self.a - abs(self.b), self.a + abs(self.b)
        return float(np.min(self.vs)), float(np.max(self.vs))

    def sup_norm(self) -> float:
        lo, hi = self.value_range()
        return max(abs(lo), abs(hi))


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

    @cached_property
    def second_derivative_sup(self) -> float:
        """Sup-norm of the potential curvature |d^2 K/dx^2|, sampled once."""
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


def kernel_min(spec: KernelSpec) -> float:
    """Lower bound c psi_alpha(1/2) + min psi_l of the kernel on x != 0; exact
    for c = 0 and for a zero, constant or b >= 0 cosine psi_l."""
    singular = spec.c * psi_alpha(0.5, spec.alpha) if spec.c > 0 else 0.0
    return singular + spec.psi_l.value_range()[0]


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


# ---------------------------------------------------------------------------
# potential source


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

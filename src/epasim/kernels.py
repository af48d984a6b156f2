"""Communication kernels and attraction-repulsion potentials.

The singular kernel family psi_alpha is x -> sum_m c_alpha / |x+m|^(1+alpha),
the periodization of c_alpha |x|^-(1+alpha) over the unit torus, normalized
so that principal-value quadrature against it reproduces the fractional
Laplacian multiplier (2 pi |k|)^alpha. An effective kernel is
c * psi_alpha + psi_l with psi_l bounded and Lipschitz, and must be
strictly positive away from the origin; the envelope bounds need this,
so ``diagnostics.bound_constants`` rejects a kernel whose ``kernel_min``
is not positive. psi_alpha is convex on (0, 1) and symmetric about 1/2,
so ``kernel_min`` is c psi_alpha + min psi_l with psi_alpha at 1/2, in
closed form: the infimum over x != 0 for every kernel but one with c > 0
and a cosine psi_l with b < 0, where it is a certified but possibly loose
lower bound. The solver reads psi_alpha only as a Fourier multiplier.

Potentials split into a Newtonian part of strength k (whose induced force
solves the Poisson equation with background) and a twice-differentiable
regular part.

Every preset, kernel or potential, is even in x, as in the model: the
alignment and the regular force then act on each pair of points with
equal and opposite momentum, so the dynamics conserve the momentum
int rho u, which every velocity recovery pins to its initial value. A
kernel that is not even would make that pin silently wrong, so there is
no kind for arbitrary samples.

The solver reads psi_l and K_reg only as Fourier multipliers, and each
preset gives its own band, ``band(grid)``, in closed form and exactly
real: the gaussian K_reg's is the transform of its whole periodization,
which sampling would alias on a coarse grid, while a call samples 13 images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import Grid, convolve, second_derivative


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


# B_2j / (2j)!, j = 1 .. 7: the weights of _zeta1p's Euler-Maclaurin corrections
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000, 1 / 74724249600)


def _zeta1p(a: float) -> float:
    """Riemann zeta(1 + a) for 0 < a < 2, within 5e-16 relative.

    Euler-Maclaurin from N = 9, s = 1 + a: the terms k^-s for k < N, then
    N^-a / a + N^-s / 2 + sum_j B_2j / (2j)! s (s+1) .. (s+2j-2) N^(1-s-2j),
    j = 1 .. 7, whose first neglected term is below 4e-16 of the sum. The
    large terms read a, as zeta would amplify the rounding of 1 + a by 1/a.
    """
    n = 9.0
    s = 1.0 + a
    n1s = n**-a  # N^(1-s)
    x = n1s / n  # N^-s
    term = s * x / n
    total = 0.0
    for j, w in enumerate(_EM_WEIGHTS):
        total += w * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    total += 0.5 * x
    total += n1s / a
    for k in range(8, 1, -1):
        total += k**-a / k
    return total + 1.0


# ---------------------------------------------------------------------------
# kernel and potential presets


def _require_finite(preset, *names: str) -> None:
    for name in names:
        value = getattr(preset, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(preset).__name__} {name} must be finite, got {value}")


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
        _require_finite(self, "a", "b")

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

    def band(self, grid: Grid) -> np.ndarray:
        """Coefficients of e^{2 pi i k x}, k = 0 .. n // 3: a at k = 0 and b / 2 at k = 1."""
        out = np.zeros(grid.band, dtype=complex)
        if self.kind != "zero":
            out[0] = self.a
        if self.kind == "cosine":
            out[1] = 0.5 * self.b
        return out

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
        _require_finite(self, "amp", "width")
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

    def band(self, grid: Grid) -> np.ndarray:
        """Coefficients of e^{2 pi i k x}, k = 0 .. n // 3: amp / 2 at k = 1 for
        the cosine, amp w sqrt(2 pi) exp(-2 pi^2 k^2 w^2) for the gaussian."""
        out = np.zeros(grid.band, dtype=complex)
        if self.kind == "cosine":
            out[1] = 0.5 * self.amp
        elif self.kind == "gaussian":
            w, k = self.width, grid.modes[:grid.band]
            out.real = self.amp * w * math.sqrt(2 * math.pi) * np.exp(-2 * (math.pi * w * k) ** 2)
        return out

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
    """Lower bound c psi_alpha + min psi_l of the kernel on x != 0, psi_alpha
    at 1/2; exact but for c > 0 with a cosine psi_l whose b < 0.

    psi_alpha at 1/2 is c_alpha sum_m |m + 1/2|^-(1+alpha), which is
    2 c_alpha (2^(1+alpha) - 1) zeta(1+alpha): within 6e-16 relative of
    the exact value for a float c_alpha, in about 3 microseconds.
    """
    singular = 0.0
    if spec.c > 0:
        a = spec.alpha
        singular = spec.c * (2.0 * c_alpha(a) * (2.0 * 2.0**a - 1.0) * _zeta1p(a))
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
    return np.square(grid.two_pi_k[:grid.band]) * pot.kreg.band(grid) - pot.k

"""State and dynamics of the density / transformed-gradient system.

The solver advances the pair (rho, g) where

    g = du/dx - c * Lambda^alpha rho + psi_l * rho

(star denoting periodic convolution). In these variables the dynamics is
a pair of transport equations

    d(rho)/dt = -d(rho u)/dx
    d(g)/dt   = -d(g u)/dx - k (rho - rho_bar) - d^2/dx^2 (K_reg * rho)

with the velocity recovered from (rho, g) up to a constant fixed by
momentum conservation. Velocity is always derived, never advanced.

Every linear operator of the dynamics is a Fourier multiplier, and
:func:`spectral_plan` builds them once per (grid, kernel, potential), in
the rfft layout of ``np.fft.rfft``:

- velocity: u_hat = -i inv_k (g_hat + vel_rho rho_hat), with
  inv_k = 1/(2 pi k) and vel_rho = c (2 pi |k|)^alpha - psi_l_hat, so
  -i inv_k vel_rho = (c (2 pi |k|)^alpha - psi_l_hat)/(2 pi i k); inv_k
  is 0 at k = 0 and at Nyquist;
- flux derivative: i flux, with flux = 2 pi k on the 2/3-rule band and 0
  above it, so dealiasing and d/dx are one product;
- potential source: source rho_hat with source = -k + (2 pi k)^2 K_reg_hat,
  plus k n rho_bar on mode 0 for the background.

Mode 0 of g_hat + vel_rho rho_hat is n mean(g - psi_l * rho), the
zero-mean constraint that makes the velocity periodic; :func:`rhs` reads
it there. One :func:`rhs` call costs 7 FFTs: rho, g and u for the
velocity, and a forward and an inverse transform for each flux.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .kernels import (  # noqa: F401  (g_source: perfbench traces model.g_source)
    KernelSpec,
    PotentialSpec,
    g_source,
    g_source_multiplier,
    lipschitz_on_grid,
    quadrature_weights,
)
from .spectral import (
    MEAN_TOL,
    Grid,
    MeanViolationError,
    _check,
    circular_correlate,
    convolve,
    dealias,
    derivative,
    fractional_laplacian,
    mean,
    resample_midpoints,
    to_spectrum,
)

RHO_FLOOR = 1e-8  # below this, treat the run as having reached vacuum
STATE_MEAN_TOL = 1e-10


class VacuumError(RuntimeError):
    """Density has (numerically) reached vacuum; g/rho is undefined."""


class NonFiniteError(RuntimeError):
    """Non-finite values produced while evaluating the dynamics."""


class SpectralPlan(NamedTuple):
    """Read-only Fourier multipliers of one problem (see the module docstring)."""

    inv_k: np.ndarray
    vel_rho: np.ndarray
    flux: np.ndarray
    source: np.ndarray | None  # None without a potential


@lru_cache(maxsize=32)
def spectral_plan(grid: Grid, kernel: KernelSpec, potential: PotentialSpec) -> SpectralPlan:
    """Multipliers of the dynamics on ``grid``, built once per problem."""
    two_pi_k = grid.two_pi_k
    inv_k = np.zeros(grid.n // 2 + 1)
    inv_k[1:-1] = 1.0 / two_pi_k[1:-1]
    psi_l_hat = to_spectrum(lipschitz_on_grid(kernel.psi_l, grid), grid)
    vel_rho = kernel.c * two_pi_k**kernel.alpha - psi_l_hat
    flux = np.where(grid.dealias_keep, two_pi_k, 0.0)
    source = None if potential.is_zero else g_source_multiplier(potential, grid)
    for arr in (inv_k, vel_rho, flux, source):
        if arr is not None:
            arr.flags.writeable = False
    return SpectralPlan(inv_k, vel_rho, flux, source)


@dataclass(frozen=True, eq=False)
class SimState:
    """Snapshot of the evolved pair plus its conserved references.

    rho_bar is the conserved mean density and m0 the conserved momentum
    integral; both are fixed at initialization time.
    """

    grid: Grid
    rho: np.ndarray
    g: np.ndarray
    t: float
    rho_bar: float
    m0: float
    kernel: KernelSpec
    potential: PotentialSpec

    def validate(self, rho_floor: float = RHO_FLOOR) -> None:
        """Re-check the structural invariants; raises on violation.

        The zero-mean constraint is read as mean(g) - mean(psi_l) mean(rho),
        the mean of g - psi_l * rho, so it needs no transform.
        """
        if not (np.all(np.isfinite(self.rho)) and np.all(np.isfinite(self.g))):
            raise NonFiniteError("state contains non-finite samples")
        if float(np.min(self.rho)) <= rho_floor:
            raise VacuumError(f"min density {np.min(self.rho):.3e} at t={self.t:.6f}")
        rho_mean = mean(self.rho)
        if abs(rho_mean - self.rho_bar) > STATE_MEAN_TOL * max(1.0, abs(self.rho_bar)):
            raise NonFiniteError("mean density drifted from its conserved value")
        # mode 0 of vel_rho is c 0^alpha - mean(psi_l) = -mean(psi_l)
        vel_rho = spectral_plan(self.grid, self.kernel, self.potential).vel_rho
        resid = mean(self.g) + vel_rho[0].real * rho_mean
        scale = max(1.0, float(np.max(np.abs(self.g))))
        if abs(resid) > STATE_MEAN_TOL * scale:
            raise NonFiniteError("zero-mean constraint on the transformed gradient broke")


def compute_g(rho: np.ndarray, u: np.ndarray, kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Transform (rho, u) into the advected gradient variable."""
    rho = _check(rho, grid)
    u = _check(u, grid)
    g = derivative(u, grid)
    if kernel.c > 0:
        g = g - kernel.c * fractional_laplacian(rho, kernel.alpha, grid)
    if not kernel.psi_l.is_zero:
        g = g + convolve(lipschitz_on_grid(kernel.psi_l, grid), rho, grid)
    return g


def _velocity(state: SimState, plan: SpectralPlan, rho_floor: float,
              check_vacuum: bool) -> tuple[np.ndarray, np.ndarray]:
    """rfft(rho) and the velocity, after the checks on the state (3 FFTs)."""
    rho, g, n = state.rho, state.g, state.grid.n
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(g))):
        raise NonFiniteError(f"non-finite state at t={state.t:.6f}")
    if check_vacuum and float(np.min(rho)) <= rho_floor:
        raise VacuumError(f"min density {np.min(rho):.3e}: velocity ratio undefined")
    rho_hat = np.fft.rfft(rho)
    u_hat = np.fft.rfft(g)
    u_hat += plan.vel_rho * rho_hat
    # mode 0 is n mean(g - psi_l * rho); only a residual above MEAN_TOL pays
    # for the scale max(1, |g - psi_l * rho|_inf) of spectral.antiderivative
    resid = u_hat[0].real / n
    if abs(resid) > MEAN_TOL:
        psi_l = state.kernel.psi_l
        f = g if psi_l.is_zero else g - convolve(lipschitz_on_grid(psi_l, state.grid), rho,
                                                 state.grid)
        if abs(resid) > MEAN_TOL * max(1.0, float(np.max(np.abs(f)))):
            raise MeanViolationError(f"mean(g - psi_l * rho) = {resid:.3e} is not zero")
    u_hat *= plan.inv_k
    u_hat *= -1j
    u = np.fft.irfft(u_hat, n=n)
    u += (state.m0 * n - np.dot(rho, u)) / rho_hat[0].real
    return rho_hat, u


def recover_velocity(state: SimState, rho_floor: float = RHO_FLOOR,
                     check_vacuum: bool = True) -> np.ndarray:
    """Invert the gradient transform, pin the momentum and return the velocity.

    u = c * Lambda^alpha d^-1 (rho - rho_bar) + d^-1 (g - psi_l * rho) + I0,
    with the constant I0 solved from int rho u = m0 at every call, so the
    momentum integral is enforced structurally rather than tracked. Costs
    3 FFTs through the problem's :func:`spectral_plan`.
    """
    plan = spectral_plan(state.grid, state.kernel, state.potential)
    return _velocity(state, plan, rho_floor, check_vacuum)[1]


def _minus_flux_derivative(f: np.ndarray, plan: SpectralPlan) -> np.ndarray:
    # spectrum of -d/dx of the dealiased f
    f_hat = np.fft.rfft(f)
    f_hat *= plan.flux
    f_hat *= -1j
    return f_hat


def rhs(state: SimState,
        rho_floor: float = RHO_FLOOR) -> tuple[np.ndarray, np.ndarray, float]:
    """Time derivatives of (rho, g) and sup |u| of the velocity behind them.

    Quadratic products are dealiased. Raises VacuumError at the density
    floor, NonFiniteError on non-finite input or output, and
    MeanViolationError if mean(g - psi_l * rho) is not zero.
    """
    plan = spectral_plan(state.grid, state.kernel, state.potential)
    n = state.grid.n
    rho_hat, u = _velocity(state, plan, rho_floor, check_vacuum=True)
    drho = np.fft.irfft(_minus_flux_derivative(state.rho * u, plan), n=n)
    dg_hat = _minus_flux_derivative(state.g * u, plan)
    if plan.source is not None:
        rho_hat *= plan.source
        rho_hat[0] += state.potential.k * n * state.rho_bar
        dg_hat += rho_hat
    dg = np.fft.irfft(dg_hat, n=n)
    if not (np.all(np.isfinite(drho)) and np.all(np.isfinite(dg))):
        raise NonFiniteError(f"non-finite time derivative at t={state.t:.6f}")
    return drho, dg, max(float(np.max(u)), -float(np.min(u)))


def alignment_spectral(rho: np.ndarray, u: np.ndarray, kernel: KernelSpec,
                       grid: Grid) -> np.ndarray:
    """Commutator route to the alignment force.

    c * (u Lambda^a rho - Lambda^a (rho u)) + psi_l*(rho u) - u (psi_l*rho);
    this identity is what turns the primitive velocity equation into pure
    transport of g.
    """
    out = np.zeros(grid.n)
    if kernel.c > 0:
        out += kernel.c * (
            u * fractional_laplacian(rho, kernel.alpha, grid)
            - fractional_laplacian(rho * u, kernel.alpha, grid)
        )
    if not kernel.psi_l.is_zero:
        pl = lipschitz_on_grid(kernel.psi_l, grid)
        out += convolve(pl, rho * u, grid) - u * convolve(pl, rho, grid)
    return out


def alignment_direct(rho: np.ndarray, u: np.ndarray, kernel: KernelSpec, grid: Grid,
                     refinement: int) -> np.ndarray:
    """Direct quadrature of int psi(y) (u(x+y) - u(x)) rho(x+y) dy.

    Independent of the commutator route: the integrand is assembled from
    trigonometric interpolants of rho and u on a refined half-cell-offset
    grid and integrated with the midpoint rule, whose symmetric node set
    implements the principal value. ``refinement`` is rounded up to a
    multiple of the grid size; nominal cost O(n * refinement), evaluated
    as circular correlations in O(refinement log refinement).
    """
    rho = _check(rho, grid)
    u = _check(u, grid)
    if refinement < grid.n:
        raise ValueError("refinement must be at least the grid size")
    r = -(-int(refinement) // grid.n) * grid.n
    w = quadrature_weights(kernel, r)
    rho_r = resample_midpoints(rho, grid, r)
    mom_r = rho_r * resample_midpoints(u, grid, r)
    idx = (np.arange(grid.n) * (r // grid.n) - r // 2) % r
    flux = circular_correlate(w, mom_r)[idx]
    weight = circular_correlate(w, rho_r)[idx]
    return (flux - u * weight) / r


_PRESET_PARAMS = {
    "uniform": {"rho_base", "u_mean"},
    "cosine": {"rho_base", "rho_amp", "u_amp", "u_mean"},
    "gaussian-bump": {"rho_base", "amp", "width", "u_amp", "u_mean"},
    "burgers-shock": {"rho_base", "u_amp"},
    "near-vacuum": {"eps", "amp", "width"},
}


def initial_fields(preset: str, grid: Grid, **params) -> tuple[np.ndarray, np.ndarray]:
    """Density/velocity pair for a named preset (before the transform)."""
    if preset not in _PRESET_PARAMS:
        raise ValueError(f"unknown initial preset {preset!r}")
    unknown = set(params) - _PRESET_PARAMS[preset]
    if unknown:
        raise ValueError(f"preset {preset!r} does not take parameters {sorted(unknown)}")
    x = grid.x
    if preset == "uniform":
        rho = np.full(grid.n, params.get("rho_base", 1.0))
        u = np.full(grid.n, params.get("u_mean", 0.0))
    elif preset == "cosine":
        rho = params.get("rho_base", 1.0) + params.get("rho_amp", 0.5) * np.cos(2 * np.pi * x)
        u = params.get("u_mean", 0.0) + params.get("u_amp", 0.0) * np.sin(2 * np.pi * x)
    elif preset == "gaussian-bump":
        width = params.get("width", 0.1)
        bump = np.zeros(grid.n)
        for m in range(-4, 5):
            bump += np.exp(-((x + m) ** 2) / (2 * width**2))
        rho = params.get("rho_base", 1.0) + params.get("amp", 0.5) * bump
        u = params.get("u_mean", 0.0) + params.get("u_amp", 0.0) * np.sin(2 * np.pi * x)
    elif preset == "burgers-shock":
        rho = np.full(grid.n, params.get("rho_base", 1.0))
        u = -params.get("u_amp", 1.0) * np.sin(2 * np.pi * x)
    else:  # near-vacuum
        width = params.get("width", 0.1)
        bump = np.zeros(grid.n)
        for m in range(-4, 5):
            bump += np.exp(-((x + m) ** 2) / (2 * width**2))
        rho = params.get("eps", 1e-2) + params.get("amp", 1.0) * bump
        u = np.zeros(grid.n)
    return rho, u


def make_initial(preset: str, grid: Grid, kernel: KernelSpec,
                 potential: PotentialSpec | None = None, **params) -> SimState:
    """Build a simulation state from a preset.

    Fields are dealiased so the evolved state starts band-limited; the
    conserved mean density and momentum are taken from the (dealiased)
    initial data, and the gradient variable is produced by the transform.
    """
    rho, u = initial_fields(preset, grid, **params)
    rho = dealias(rho, grid)
    u = dealias(u, grid)
    if float(np.min(rho)) <= 0.0:
        raise ValueError(
            f"preset {preset!r} with these parameters gives min density {np.min(rho):.3e}"
        )
    g = compute_g(rho, u, kernel, grid)
    return SimState(
        grid=grid,
        rho=rho,
        g=g,
        t=0.0,
        rho_bar=mean(rho),
        m0=mean(rho * u),
        kernel=kernel,
        potential=potential if potential is not None else PotentialSpec(),
    )


def advance(state: SimState, rho, g, dt: float) -> SimState:
    """New state with updated fields and time (references unchanged)."""
    return replace(state, rho=rho, g=g, t=state.t + dt)

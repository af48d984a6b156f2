"""State and dynamics of the density / transformed-gradient system.

The solver advances the pair (rho, g) where

    g = du/dx - c * Lambda^alpha rho + psi_l * rho

(star denoting periodic convolution). In these variables the dynamics is
a pair of transport equations

    d(rho)/dt = -d(rho u)/dx
    d(g)/dt   = -d(g u)/dx - k (rho - rho_bar) - d^2/dx^2 (K_reg * rho)

with the velocity recovered from (rho, g) up to a constant fixed by
momentum conservation. Velocity is always derived, never advanced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelSpec, PotentialSpec, g_source, lipschitz_on_grid, quadrature_weights
from .spectral import (
    Grid,
    _check,
    antiderivative,
    circular_correlate,
    convolve,
    dealias,
    derivative,
    fractional_laplacian,
    fractional_laplacian_antiderivative,
    mean,
    resample_midpoints,
)

RHO_FLOOR = 1e-8  # below this, treat the run as having reached vacuum
STATE_MEAN_TOL = 1e-10


class VacuumError(RuntimeError):
    """Density has (numerically) reached vacuum; g/rho is undefined."""


class NonFiniteError(RuntimeError):
    """Non-finite values produced while evaluating the dynamics."""


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

    def psi_l_conv(self) -> np.ndarray:
        """Convolution of the Lipschitz kernel part with the density."""
        if self.kernel.psi_l.is_zero:
            return np.zeros(self.grid.n)
        return convolve(lipschitz_on_grid(self.kernel.psi_l, self.grid), self.rho, self.grid)

    def validate(self, rho_floor: float = RHO_FLOOR) -> None:
        """Re-check the structural invariants; raises on violation."""
        if not (np.all(np.isfinite(self.rho)) and np.all(np.isfinite(self.g))):
            raise NonFiniteError("state contains non-finite samples")
        if float(np.min(self.rho)) <= rho_floor:
            raise VacuumError(f"min density {np.min(self.rho):.3e} at t={self.t:.6f}")
        if abs(mean(self.rho) - self.rho_bar) > STATE_MEAN_TOL * max(1.0, abs(self.rho_bar)):
            raise NonFiniteError("mean density drifted from its conserved value")
        resid = mean(self.g - self.psi_l_conv())
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


def recover_velocity(state: SimState, rho_floor: float = RHO_FLOOR,
                     check_vacuum: bool = True) -> np.ndarray:
    """Invert the gradient transform, pin the momentum and return the velocity.

    u = c * Lambda^alpha d^-1 (rho - rho_bar) + d^-1 (g - psi_l * rho) + I0,
    with the constant I0 solved from int rho u = m0 at every call, so the
    momentum integral is enforced structurally rather than tracked.
    """
    grid = state.grid
    if check_vacuum and float(np.min(state.rho)) <= rho_floor:
        raise VacuumError(f"min density {np.min(state.rho):.3e}: velocity ratio undefined")
    u_part = antiderivative(state.g - state.psi_l_conv(), grid)
    if state.kernel.c > 0:
        u_part = u_part + state.kernel.c * fractional_laplacian_antiderivative(
            state.rho, state.kernel.alpha, grid
        )
    i0 = (state.m0 - mean(state.rho * u_part)) / mean(state.rho)
    return u_part + i0


def rhs(state: SimState, rho_floor: float = RHO_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (rho, g); quadratic products are dealiased."""
    grid = state.grid
    u = recover_velocity(state, rho_floor)
    drho = -derivative(dealias(state.rho * u, grid), grid)
    dg = -derivative(dealias(state.g * u, grid), grid)
    if not state.potential.is_zero:
        dg = dg + g_source(state.rho, state.rho_bar, state.potential, grid)
    if not (np.all(np.isfinite(drho)) and np.all(np.isfinite(dg))):
        raise NonFiniteError(f"non-finite time derivative at t={state.t:.6f}")
    return drho, dg


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

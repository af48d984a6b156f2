"""Reference routes through the dynamics and the diagnostics, for tests only.

Most compose the per-operator functions of ``epasim.spectral`` and
``epasim.kernels``, one transform per operator, the way the solver did
before its multipliers were fused into ``model.spectral_plan``. The fused
``rhs`` and ``recover_velocity`` are checked against them. The force and
quadrature routes check the operators themselves, and ``roll_lag_table``
is the plain loop that ``diagnostics._lag_table`` must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from epasim.kernels import (
    KernelSpec,
    PotentialSpec,
    g_source,
    lipschitz_on_grid,
    potential_on_grid,
    psi_alpha,
    quadrature_weights,
)
from epasim.model import SimState
from epasim.spectral import (
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


def psi_l_conv(state: SimState) -> np.ndarray:
    """Convolution of the Lipschitz kernel part with the density."""
    if state.kernel.psi_l.is_zero:
        return np.zeros(state.grid.n)
    return convolve(lipschitz_on_grid(state.kernel.psi_l, state.grid), state.rho, state.grid)


def composed_velocity(state: SimState) -> np.ndarray:
    """u = c Lambda^alpha d^-1 rho + d^-1 (g - psi_l * rho) + I0, operator by operator."""
    grid = state.grid
    u_part = antiderivative(state.g - psi_l_conv(state), grid)
    if state.kernel.c > 0:
        u_part = u_part + state.kernel.c * fractional_laplacian_antiderivative(
            state.rho, state.kernel.alpha, grid
        )
    return u_part + (state.m0 - mean(state.rho * u_part)) / mean(state.rho)


def composed_rhs(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (rho, g): dealias, then differentiate, then add g_source."""
    grid = state.grid
    u = composed_velocity(state)
    drho = -derivative(dealias(state.rho * u, grid), grid)
    dg = -derivative(dealias(state.g * u, grid), grid)
    if not state.potential.is_zero:
        dg = dg + g_source(state.rho, state.rho_bar, state.potential, grid)
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


def psi_alpha_min(alpha: float, tol: float = 1e-12) -> float:
    """Minimum of psi_alpha over the torus, attained at x = 1/2."""
    return float(psi_alpha(0.5, alpha, tol))


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


def roll_lag_table(rho: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances l/n, D[l] = max_i |rho_i - rho_{i+l}| and its first argmax i,
    one ``np.roll`` per lag l = 1..n/2."""
    rho = np.asarray(rho, dtype=float)
    half = n // 2
    diffs = np.empty(half)
    at = np.empty(half, dtype=np.intp)
    for lag in range(1, half + 1):
        diff = np.abs(rho - np.roll(rho, -lag))
        i = int(np.argmax(diff))
        at[lag - 1] = i
        diffs[lag - 1] = diff[i]
    return np.arange(1, half + 1) / n, diffs, at

"""Reference routes through the dynamics, for tests only.

They compose the per-operator functions of ``epasim.spectral`` and
``epasim.kernels``, one transform per operator, the way the solver did
before its multipliers were fused into ``model.spectral_plan``. The fused
``rhs`` and ``recover_velocity`` are checked against them.
"""

from __future__ import annotations

import numpy as np

from epasim.kernels import g_source, lipschitz_on_grid
from epasim.model import SimState
from epasim.spectral import (
    antiderivative,
    convolve,
    dealias,
    derivative,
    fractional_laplacian_antiderivative,
    mean,
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

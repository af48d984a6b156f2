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
zero-mean constraint that makes the velocity periodic. :func:`check_fields`
checks it, with the density floor and finiteness; a :class:`SimState`
runs it when it is built, so the dynamics take every state as valid.

The dynamics are a function of one (2, n) field block, with rho and g as
its rows: :func:`rhs_block` takes the block and the problem's plan, and
:func:`rhs` and :func:`recover_velocity` are thin wrappers that read the
block of a state. Transforms of the two fields run as the two rows of one
FFT call, which pocketfft computes bit for bit as two separate calls. One
evaluation makes 4 FFT calls over 7 transforms: the block, u, the stacked
fluxes (rho u, g u) and both flux derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .kernels import (  # noqa: F401  (g_source: perfbench traces model.g_source)
    KernelSpec,
    LipschitzKernel,
    PotentialSpec,
    g_source,
    g_source_multiplier,
    lipschitz_on_grid,
)
from .spectral import (
    MEAN_TOL,
    Grid,
    GridMismatchError,
    MeanViolationError,
    _check,
    convolve,
    dealias,
    derivative,
    fractional_laplacian,
    mean,
    to_spectrum,
)

RHO_FLOOR = 1e-8  # below this, treat the run as having reached vacuum


class VacuumError(RuntimeError):
    """Density has (numerically) reached vacuum; g/rho is undefined."""


class NonFiniteError(RuntimeError):
    """A state with non-finite samples."""


class SpectralPlan(NamedTuple):
    """Read-only real Fourier multipliers of one problem (see the module docstring)."""

    inv_k: np.ndarray
    vel_rho: np.ndarray
    flux: np.ndarray
    source: np.ndarray | None  # None without a potential
    two_pi_k: np.ndarray  # the grid's d/dx multiplier, divided by i


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
    return SpectralPlan(inv_k, vel_rho, flux, source, two_pi_k)


@dataclass(frozen=True, eq=False)
class SimState:
    """Snapshot of the evolved pair plus its conserved references.

    rho_bar is the conserved mean density and m0 the conserved momentum
    integral; both are fixed at initialization time. Building a state, by
    any route, runs :meth:`validate`, the one check of its fields, so every
    state is valid by construction. Nothing writes to the fields of a state
    that a step has returned, so a quantity derived from such a state is
    computed once: ``drho_inf`` is shared by the run loop's detectors and
    the diagnostics recorder. The dynamics read ``_block``, the (2, n)
    array whose rows are rho and g. A step's result carries the block its
    fields are the rows of. A state built from separate arrays stacks them
    once, on first use, and its rho and g become the rows of that block:
    the same values, in one array instead of two, so a state holds no copy
    of its fields.
    """

    grid: Grid
    rho: np.ndarray
    g: np.ndarray
    t: float
    rho_bar: float
    m0: float
    kernel: KernelSpec
    potential: PotentialSpec

    def __post_init__(self) -> None:
        self.validate()

    @cached_property
    def drho_inf(self) -> float:
        """sup |d rho/dx| on the grid, computed once per state.

        The run loop stores it from the velocity transform of the next
        step's first stage, before the monitors and detectors read it (see
        :func:`rhs_block`); any other state, such as a run's final one, pays
        2 FFT calls on the first read. Both are bit for bit
        ``max |spectral.derivative(rho)|``.
        """
        return float(np.max(np.abs(derivative(self.rho, self.grid))))

    @cached_property
    def _block(self) -> np.ndarray:
        block = np.stack((self.rho, self.g))
        object.__setattr__(self, "rho", block[0])
        object.__setattr__(self, "g", block[1])
        return block

    def validate(self) -> None:
        """Run :func:`check_fields` on the state; raises on the first violation."""
        check_fields(self.rho, self.g, self.t, self.rho_bar, self.grid, self.kernel)


@lru_cache(maxsize=32)
def _psi_l_mean(psi_l: LipschitzKernel, grid: Grid) -> float:
    """mean(psi_l) on the grid, summed once per problem for :func:`check_fields`."""
    return float(lipschitz_on_grid(psi_l, grid).sum()) / grid.n


def check_fields(rho: np.ndarray, g: np.ndarray, t: float, rho_bar: float, grid: Grid,
                 kernel: KernelSpec) -> None:
    """Check the fields of a state at time t, in order; raises on the first violation.

    Shape (n,) (GridMismatchError); finite, read from the sums, so an
    overflowing sum counts (NonFiniteError, which means only this);
    min rho above RHO_FLOOR (VacuumError); mean(rho) = rho_bar and
    mean(g - psi_l * rho) = mean(g) - mean(psi_l) mean(rho) = 0 (both
    MeanViolationError), where only a residual above MEAN_TOL pays for
    the guard's scale max(1, |g - psi_l * rho|_inf). The RK stages of a
    step call it on their rows directly, without building a state.
    """
    n = grid.n
    if rho.shape != (n,) or g.shape != (n,):
        raise GridMismatchError(f"fields of shape {rho.shape} and {g.shape} "
                                f"on a grid of {n} points")
    rho_mean = float(rho.sum()) / n
    g_mean = float(g.sum()) / n
    if not math.isfinite(rho_mean + g_mean):
        raise NonFiniteError(f"non-finite state at t={t:.6f}")
    rho_min = float(rho.min())
    if rho_min <= RHO_FLOOR:
        raise VacuumError(f"min density {rho_min:.3e} at t={t:.6f}")
    if abs(rho_mean - rho_bar) > MEAN_TOL * max(1.0, abs(rho_bar)):
        raise MeanViolationError("mean density drifted from its conserved value")
    resid = g_mean - _psi_l_mean(kernel.psi_l, grid) * rho_mean
    if abs(resid) > MEAN_TOL:
        f = g - convolve(lipschitz_on_grid(kernel.psi_l, grid), rho, grid)
        if abs(resid) > MEAN_TOL * max(1.0, float(np.max(np.abs(f)))):
            raise MeanViolationError(f"mean(g - psi_l * rho) = {resid:.3e} is not zero")


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


def _velocity(x: np.ndarray, plan: SpectralPlan, m0: float,
              drho_row: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of the field block x and the velocity, as row 0 of a new block.

    2 FFT calls over 3 transforms: one rfft of x, one irfft of u_hat. With
    ``drho_row`` the irfft carries i 2 pi k rho_hat (Nyquist zeroed) as a
    second row, 4 transforms in all: row 1 is then d rho/dx, bit for bit
    ``spectral.derivative(rho)``.
    """
    n = x.shape[1]
    spec = np.fft.rfft(x)
    rho_hat = spec[0]
    rows = np.empty((1 + drho_row, rho_hat.size), dtype=complex)
    u_hat = rows[0]
    np.multiply(plan.vel_rho, rho_hat, out=u_hat)
    u_hat += spec[1]
    u_hat *= plan.inv_k
    u_hat *= -1j
    if drho_row:
        np.multiply(rho_hat, 1j * plan.two_pi_k, out=rows[1])
        rows[1, -1] = 0.0
    w = np.fft.irfft(rows, n=n)
    u = w[0]
    u += (m0 * n - np.dot(x[0], u)) / rho_hat[0].real
    return spec, w


def recover_velocity(state: SimState) -> np.ndarray:
    """Invert the gradient transform, pin the momentum and return the velocity.

    u = c * Lambda^alpha d^-1 (rho - rho_bar) + d^-1 (g - psi_l * rho) + I0,
    with the constant I0 solved from int rho u = m0 at every call, so the
    momentum integral is enforced structurally rather than tracked. Costs
    2 FFT calls over 3 transforms through the problem's
    :func:`spectral_plan`. Checks nothing: the state was validated when it
    was built.
    """
    plan = spectral_plan(state.grid, state.kernel, state.potential)
    return _velocity(state._block, plan, state.m0)[1][0]


def rhs_block(x: np.ndarray, plan: SpectralPlan, m0: float, rho_bar: float, k: float,
              drho: bool = False) -> tuple[np.ndarray, float, float | None]:
    """Time derivatives of the field block x = (rho, g), as a new (2, n) block.

    Also returns sup |u| of the velocity behind them and, with ``drho``,
    sup |d rho/dx|, else None. m0 and rho_bar are the state's conserved
    references and k the potential's Newtonian strength. Quadratic products
    are dealiased. 4 FFT calls over 7 transforms: the two of
    :func:`_velocity`, then one rfft of the fluxes (rho u, g u) and one
    irfft of both flux derivatives, written into the flux buffer. With
    ``drho`` the velocity transform also gives d rho/dx (one transform
    more, in the same call); the run loop sets it on the first stage of
    each step. Checks nothing: x is the block of a valid state or of a
    stage that was checked, and a non-finite derivative fails the check of
    the next stage.
    """
    n = x.shape[1]
    spec, w = _velocity(x, plan, m0, drho)
    drho_inf = float(np.max(np.abs(w[1]))) if drho else None
    u = w[0]
    u_inf = max(float(np.max(u)), -float(np.min(u)))
    src = None
    if plan.source is not None:
        src = spec[0] * plan.source
        src[0] += k * n * rho_bar
    del spec  # free the spectrum, all but the source row, before the flux transform
    # the elementwise work with an (n,) operand goes row by row: an in-place
    # op on a (2, n) block with an (n,) operand would allocate a (2, n) buffer
    flux = np.empty((2, n))
    np.multiply(x[0], u, out=flux[0])
    np.multiply(x[1], u, out=flux[1])
    del w, u
    f_hat = np.fft.rfft(flux)
    for row in f_hat:  # spectrum of -d/dx of the dealiased flux
        row *= plan.flux
        row *= -1j
    if src is not None:
        f_hat[1] += src
    np.fft.irfft(f_hat, n=n, out=flux)
    return flux, u_inf, drho_inf


def rhs(state: SimState) -> tuple[np.ndarray, np.ndarray, float]:
    """Time derivatives of (rho, g) and sup |u| of the velocity behind them.

    :func:`rhs_block` on the state's block, through the problem's
    :func:`spectral_plan`; the two derivatives are the rows of one (2, n)
    array. Checks nothing: the state was validated when it was built.
    """
    plan = spectral_plan(state.grid, state.kernel, state.potential)
    d, u_inf, _ = rhs_block(state._block, plan, state.m0, state.rho_bar, state.potential.k)
    return d[0], d[1], u_inf


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
    A density not above ``RHO_FLOOR`` raises VacuumError, as for any state.
    """
    rho, u = initial_fields(preset, grid, **params)
    rho = dealias(rho, grid)
    u = dealias(u, grid)
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


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
:func:`spectral_plan` builds them once per (grid, kernel, potential), on
the band that the 2/3 rule keeps: the modes k = 0 .. n // 3, the first
b = ``Grid.band`` entries of the rfft layout. Every transform is a call
of ``spectral.rfft`` or ``spectral.irfft``, the one home of the FFT, whose
results are ``np.fft``'s bit for bit. The band is the solver's
dealiasing: every spectrum it carries or multiplies has b modes, and
``spectral.irfft(band, n)`` zero-pads the modes above it. The Nyquist
mode n/2 is never in the band.

- velocity: u_hat = inv_ddx (g_hat + vel_rho rho_hat), with
  inv_ddx = 1/(2 pi i k), 0 at k = 0, and
  vel_rho = c (2 pi |k|)^alpha - psi_l_hat, built once per (grid, kernel)
  and shared with :func:`compute_g`, which inverts this relation;
- flux derivative: flux = -2 pi i k;
- potential source: source rho_hat with source = -k + (2 pi k)^2 K_reg_hat,
  plus k n rho_bar on mode 0 for the background.

Mode 0 of g_hat + vel_rho rho_hat is n mean(g - psi_l * rho), the
zero-mean constraint that makes the velocity periodic. :func:`check_fields`
checks it, with the density floor and finiteness; a :class:`SimState`
runs it when it is built, so the dynamics take every state as valid.

A state stores its fields as the rows of one (2, n) block x = (rho, g).
The dynamics are evaluated on the block's spectrum, the (2, b) band of
its rfft: :func:`rhs_spectrum` takes it with the fields themselves and the
problem's plan, and returns the band of the spectrum of their time
derivatives. The FFT budget of an evaluation and of a step is stated
once, in ``integrator``. Both rows of a block go through one FFT call,
which pocketfft computes bit for bit as two separate calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral
from .kernels import KernelSpec, PotentialSpec, g_source_multiplier, lipschitz_on_grid
from .kernels import g_source  # noqa: F401  (perfbench traces model.g_source)
from .spectral import (
    MEAN_TOL,
    Grid,
    GridMismatchError,
    MeanViolationError,
    _check,
    convolve,
    derivative,
    mean,
    to_spectrum,
)

RHO_FLOOR = 1e-8  # below this, treat the run as having reached vacuum


class VacuumError(RuntimeError):
    """Density has (numerically) reached vacuum; g/rho is undefined."""


class NonFiniteError(RuntimeError):
    """A state with non-finite samples."""


class SpectralPlan(NamedTuple):
    """Read-only Fourier multipliers of one problem (see the module docstring).

    Each has the b entries of the band. All but two_pi_k are complex128:
    inv_ddx and flux carry the factor i, and vel_rho and source carry the
    transforms of psi_l and K_reg, which are complex for a kernel that is
    not even. inv_ddx and flux depend on the grid alone, so the plans of
    one grid share them; vel_rho is a view of the kernel's one array.
    """

    inv_ddx: np.ndarray
    vel_rho: np.ndarray
    flux: np.ndarray
    source: np.ndarray | None  # None without a potential
    two_pi_k: np.ndarray  # the grid's d/dx multiplier, divided by i


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=32)
def _grid_multipliers(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    # inv_ddx and flux of the plans on this grid (see the module docstring)
    two_pi_k = grid.two_pi_k[:grid.band]
    inv = np.zeros(two_pi_k.size)
    inv[1:] = 1.0 / two_pi_k[1:]
    return _read_only(-1j * inv), _read_only(-1j * two_pi_k)


@lru_cache(maxsize=32)
def _vel_rho(grid: Grid, kernel: KernelSpec) -> np.ndarray:
    # c (2 pi |k|)^alpha - psi_l_hat: the plan's vel_rho, whose mode 0 is
    # -mean(psi_l) on the grid
    psi_l_hat = to_spectrum(lipschitz_on_grid(kernel.psi_l, grid), grid)
    return _read_only(kernel.c * grid.two_pi_k**kernel.alpha - psi_l_hat)


@lru_cache(maxsize=32)
def spectral_plan(grid: Grid, kernel: KernelSpec, potential: PotentialSpec) -> SpectralPlan:
    """Multipliers of the dynamics on ``grid``, built once per problem."""
    b = grid.band
    inv_ddx, flux = _grid_multipliers(grid)
    source = None if potential.is_zero else _read_only(g_source_multiplier(potential, grid))
    return SpectralPlan(inv_ddx, _vel_rho(grid, kernel)[:b], flux, source, grid.two_pi_k[:b])


@dataclass(frozen=True, eq=False)
class SimState:
    """Snapshot of the evolved pair plus its conserved references.

    x is the (2, n) block whose rows are the fields rho and g. rho_bar is
    the conserved mean density and m0 the conserved momentum integral;
    both are fixed at initialization time. Building a state, by any route,
    runs :meth:`validate`, the one check of its fields, so every state is
    valid by construction. Nothing writes to the fields of a state that a
    step has returned, so a quantity derived from such a state is computed
    once: ``drho_inf`` is shared by the run loop's detectors and the
    diagnostics recorder.
    """

    grid: Grid
    x: np.ndarray
    t: float
    rho_bar: float
    m0: float
    kernel: KernelSpec
    potential: PotentialSpec

    def __post_init__(self) -> None:
        self.validate()

    @property
    def rho(self) -> np.ndarray:
        return self.x[0]

    @property
    def g(self) -> np.ndarray:
        return self.x[1]

    @cached_property
    def drho_inf(self) -> float:
        """sup |d rho/dx| on the grid, computed once per state.

        The run loop stores it from the velocity transform of the next
        step's first stage, before the monitors and detectors read it (see
        :func:`rhs_spectrum`). That transform differentiates the density row
        of the band the loop carries, so the value is
        ``max |spectral.derivative(rho)|`` to rounding. Any other state,
        such as a run's final one, pays 2 FFT calls on the first read, one
        ``spectral.rfft`` and one ``spectral.irfft``, for exactly that value.
        """
        return float(np.max(np.abs(derivative(self.rho, self.grid))))

    def validate(self) -> None:
        """Run :func:`check_fields` on the state; raises on the first violation."""
        check_fields(self.x, self.t, self.rho_bar, self.grid, self.kernel,
                     _vel_rho(self.grid, self.kernel))


def check_fields(x: np.ndarray, t: float, rho_bar: float, grid: Grid,
                 kernel: KernelSpec, vel_rho: np.ndarray) -> None:
    """Check the field block x = (rho, g) at time t, in order; raises on the first violation.

    Shape (2, n) (GridMismatchError); finite, read from the sums, so an
    overflowing sum counts (NonFiniteError, which means only this);
    min rho above RHO_FLOOR (VacuumError); mean(rho) = rho_bar and
    mean(g - psi_l * rho) = mean(g) - mean(psi_l) mean(rho) = 0 (both
    MeanViolationError), with mean(psi_l) read from mode 0 of the plan's
    vel_rho, where only a residual above MEAN_TOL pays for the guard's
    scale max(1, |g - psi_l * rho|_inf). The RK stages of a step call it on
    their fields directly, without building a state, with the vel_rho of
    the run's plan, so that no cache lookup runs on the stage path.
    """
    n = grid.n
    if x.shape != (2, n):
        raise GridMismatchError(f"fields of shape {x.shape} on a grid of {n} points")
    rho_sum, g_sum = x.sum(axis=1).tolist()  # bit for bit the sums of the rows
    rho_mean = rho_sum / n
    g_mean = g_sum / n
    if not math.isfinite(rho_mean + g_mean):
        raise NonFiniteError(f"non-finite state at t={t:.6f}")
    rho_min = float(x[0].min())
    if rho_min <= RHO_FLOOR:
        raise VacuumError(f"min density {rho_min:.3e} at t={t:.6f}")
    if abs(rho_mean - rho_bar) > MEAN_TOL * max(1.0, abs(rho_bar)):
        raise MeanViolationError("mean density drifted from its conserved value")
    resid = g_mean + float(vel_rho[0].real) * rho_mean
    if abs(resid) > MEAN_TOL:
        f = x[1] - convolve(lipschitz_on_grid(kernel.psi_l, grid), x[0], grid)
        if abs(resid) > MEAN_TOL * max(1.0, float(np.max(np.abs(f)))):
            raise MeanViolationError(f"mean(g - psi_l * rho) = {resid:.3e} is not zero")


def compute_g(rho: np.ndarray, u: np.ndarray, kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Transform (rho, u) into the advected gradient variable.

    g_hat = 2 pi i k u_hat (Nyquist zeroed) - vel_rho rho_hat, the velocity
    relation of the module docstring solved for g_hat: one rfft of the
    stacked (rho, u) and one irfft.
    """
    h = spectral.rfft(np.stack((_check(rho, grid), _check(u, grid))))
    g_hat = h[1]
    g_hat *= 1j * grid.two_pi_k
    g_hat[-1] = 0.0
    g_hat -= _vel_rho(grid, kernel) * h[0]
    return spectral.irfft(g_hat, n=grid.n)


def _velocity(spec: np.ndarray, rho: np.ndarray, plan: SpectralPlan, m0: float,
              drho_row: bool = False) -> np.ndarray:
    """Velocity of the block with spectrum spec and density rho, as row 0 of a new block.

    One irfft of u_hat, one transform. With ``drho_row`` the call carries
    i 2 pi k rho_hat as a second row, two transforms in all: row 1 is then
    d rho/dx.
    """
    rho_hat = spec[0]
    rows = np.empty((1 + drho_row, rho_hat.size), dtype=complex)
    u_hat = rows[0]
    np.multiply(plan.vel_rho, rho_hat, out=u_hat)
    u_hat += spec[1]
    u_hat *= plan.inv_ddx
    if drho_row:
        np.multiply(rho_hat, plan.two_pi_k, out=rows[1])
        rows[1] *= 1j
    n = rho.size
    w = spectral.irfft(rows, n=n)
    u = w[0]
    u += (m0 * n - np.dot(rho, u)) / rho_hat[0].real
    return w


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
    return _velocity(spectral.rfft(state.x)[:, :state.grid.band], state.rho, plan, state.m0)[0]


def rhs_spectrum(spec: np.ndarray, x: np.ndarray, plan: SpectralPlan, m0: float,
                 rho_bar: float, k: float,
                 drho: bool = False) -> tuple[np.ndarray, float, float | None]:
    """Spectrum of the time derivatives of the field block x = (rho, g), whose spectrum is spec.

    Returns a new (2, b) band, sup |u| of the velocity behind it
    and, with ``drho``, sup |d rho/dx|, else None. m0 and rho_bar are the
    state's conserved references and k the potential's Newtonian strength.
    The velocity irfft of :func:`_velocity` is followed by one rfft of the
    fluxes (rho u, g u), which are written into x (FFT budget: see
    ``integrator``); the products with the plan's flux multiplier read its
    band alone, which dealiases the quadratic products. With ``drho``
    the velocity transform also gives d rho/dx as a second row, and the
    fluxes go into its block instead, so x is only read; the run loop sets
    it on the first stage of each step, whose x is the accepted state's.
    Checks nothing: x holds the fields of a valid state or of a stage that
    was checked, and a non-finite derivative fails the check of the next
    stage.
    """
    n = x.shape[1]
    w = _velocity(spec, x[0], plan, m0, drho)
    u = w[0]
    u_inf = max(float(u.max()), -float(u.min()))
    drho_inf = None
    # the elementwise work with an (n,) operand goes row by row: an in-place
    # op on a (2, n) block with an (n,) operand would allocate a (2, n) buffer
    if drho:
        drho_inf = float(np.abs(w[1]).max())
        flux = w
        np.multiply(x[1], u, out=flux[1])
        flux[0] *= x[0]
    else:
        flux = x
        flux[0] *= u
        flux[1] *= u
    del w, u
    d = spectral.rfft(flux)
    del flux, x  # x passed as a temporary is freed here, before the products below
    d = d[:, :plan.flux.size] * plan.flux  # band of -d/dx of the dealiased flux
    if plan.source is not None:
        d[1] += spec[0] * plan.source
        d[1, 0] += k * n * rho_bar
    return d, u_inf, drho_inf


def rhs(state: SimState) -> tuple[np.ndarray, np.ndarray, float]:
    """Time derivatives of (rho, g) and sup |u| of the velocity behind them.

    :func:`rhs_spectrum` on the band of the state's block and a copy of
    it, through the problem's :func:`spectral_plan`, and one irfft back:
    4 FFT calls over 7 transforms. The two derivatives are the rows of one
    (2, n) array. Checks nothing: the state was validated when it was built.
    """
    plan = spectral_plan(state.grid, state.kernel, state.potential)
    x = state.x
    d, u_inf, _ = rhs_spectrum(spectral.rfft(x)[:, :state.grid.band], x.copy(), plan, state.m0,
                               state.rho_bar, state.potential.k)
    d = spectral.irfft(d, n=state.grid.n)
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

    def bump():  # a gaussian of the given width, periodized
        w = params.get("width", 0.1)
        return sum(np.exp(-((x + m) ** 2) / (2 * w**2)) for m in range(-4, 5))

    if preset == "uniform":
        rho = np.full(grid.n, params.get("rho_base", 1.0))
        u = np.full(grid.n, params.get("u_mean", 0.0))
    elif preset == "cosine":
        rho = params.get("rho_base", 1.0) + params.get("rho_amp", 0.5) * np.cos(2 * np.pi * x)
        u = params.get("u_mean", 0.0) + params.get("u_amp", 0.0) * np.sin(2 * np.pi * x)
    elif preset == "gaussian-bump":
        rho = params.get("rho_base", 1.0) + params.get("amp", 0.5) * bump()
        u = params.get("u_mean", 0.0) + params.get("u_amp", 0.0) * np.sin(2 * np.pi * x)
    elif preset == "burgers-shock":
        rho = np.full(grid.n, params.get("rho_base", 1.0))
        u = -params.get("u_amp", 1.0) * np.sin(2 * np.pi * x)
    else:  # near-vacuum
        rho = params.get("eps", 1e-2) + params.get("amp", 1.0) * bump()
        u = np.zeros(grid.n)
    return rho, u


def make_initial(preset: str, grid: Grid, kernel: KernelSpec,
                 potential: PotentialSpec | None = None, **params) -> SimState:
    """Build a simulation state from a preset.

    Fields are dealiased (2/3 rule) as one (2, n) transform pair, the
    irfft of the band of their rfft, so the evolved state starts
    band-limited; the conserved mean density and momentum are taken from
    the dealiased initial data, and the gradient variable is produced by
    the transform. A density not above ``RHO_FLOOR`` raises VacuumError,
    as for any state.
    """
    h = spectral.rfft(np.stack(initial_fields(preset, grid, **params)))
    x = spectral.irfft(h[:, :grid.band], n=grid.n)  # rows rho and u, then rho and g
    rho, u = x
    rho_bar, m0 = mean(rho), mean(rho * u)
    x[1] = compute_g(rho, u, kernel, grid)
    return SimState(grid, x, 0.0, rho_bar, m0, kernel,
                    potential if potential is not None else PotentialSpec())


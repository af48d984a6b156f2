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
b = ``Grid.band`` entries of the rfft layout. The band is the solver's
dealiasing: every spectrum it carries or multiplies has b modes, and
``spectral.irfft(band, n)`` zero-pads the modes above it. The Nyquist
mode n/2 is never in the band.

- velocity: u_hat = inv_ddx (g_hat + vel_rho rho_hat), with
  inv_ddx = 1/(2 pi i k), 0 at k = 0, and
  vel_rho = c (2 pi |k|)^alpha - psi_l_hat, the kernel's one band array
  per grid, which :func:`make_initial` also reads to solve this relation
  for g_hat;
- flux derivative: flux = -2 pi i k, which also gives the first stage's
  gradient row rho_hat flux, -d rho/dx, one complex product;
- potential source: source rho_hat with source = -k + (2 pi k)^2 K_reg_hat,
  plus k n rho_bar on mode 0 for the background.

Mode 0 of g_hat + vel_rho rho_hat is n mean(g - psi_l * rho), the
zero-mean constraint that makes the velocity periodic. :func:`check_fields`
checks it, with the density floor and finiteness; a :class:`SimState`
runs it when it is built, so the dynamics take every state as valid.

A state is (problem, x, t): a :class:`Problem` holds what a run keeps
fixed, and x is the (2, n) block of the fields (rho, g). The dynamics are
evaluated on the block's spectrum, the (2, b) band of its rfft:
:func:`rhs_spectrum` takes it with the fields themselves and the problem,
and returns the band of the spectrum of their time derivatives. The FFT
and reduction budgets of an evaluation and of a step are stated once, in
``integrator``. Both rows of a block go through one FFT call, which
pocketfft computes bit for bit as two separate calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import spectral
from .kernels import KernelSpec, PotentialSpec, g_source_multiplier
from .kernels import g_source  # noqa: F401  (perfbench traces model.g_source)
from .spectral import (
    MEAN_TOL,
    Grid,
    GridMismatchError,
    MeanViolationError,
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

    Each has the b entries of the band, as complex128: inv_ddx and flux
    carry the factor i, and vel_rho and source carry the transforms of
    psi_l and K_reg. Those are real to rounding, as every kernel and
    potential is even, but stay complex so that every product with a
    spectrum is complex-by-complex: a complex-by-real product goes through
    numpy's buffered cast. flux is also the d/dx band, negated (see
    :func:`_velocity`). inv_ddx and flux depend on the grid alone, so the
    plans of one grid share them; vel_rho is the kernel's band array,
    which the plans of one (grid, kernel) share.
    """

    inv_ddx: np.ndarray
    vel_rho: np.ndarray
    flux: np.ndarray
    source: np.ndarray | None  # None without a potential


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
    # c (2 pi |k|)^alpha - psi_l_hat on the band: the plan's vel_rho, whose
    # mode 0 is -mean(psi_l) on the grid
    b = grid.band
    psi_l_hat = to_spectrum(kernel.psi_l(grid.x), grid)[:b]
    return _read_only(kernel.c * grid.two_pi_k[:b]**kernel.alpha - psi_l_hat)


@lru_cache(maxsize=32)
def spectral_plan(grid: Grid, kernel: KernelSpec, potential: PotentialSpec) -> SpectralPlan:
    """Multipliers of the dynamics on ``grid``, built once per problem."""
    inv_ddx, flux = _grid_multipliers(grid)
    source = None if potential.is_zero else _read_only(g_source_multiplier(potential, grid))
    return SpectralPlan(inv_ddx, _vel_rho(grid, kernel), flux, source)


@dataclass(frozen=True, eq=False, slots=True)
class Problem:
    """What a run keeps fixed: the grid, the kernel, the potential, the
    conserved mean density rho_bar and the conserved momentum integral m0.

    It looks up the arrays it shares with other problems once, so no step
    looks up a cache: ``vel_rho0``, mode 0 of vel_rho or -mean(psi_l), when
    it is built, and ``plan``, its :func:`spectral_plan`, on first read.
    """

    grid: Grid
    kernel: KernelSpec
    potential: PotentialSpec
    rho_bar: float
    m0: float
    vel_rho0: float = field(init=False, repr=False)
    plan: SpectralPlan = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vel_rho0", float(_vel_rho(self.grid, self.kernel)[0].real))

    def __getattr__(self, name: str) -> SpectralPlan:
        # reached only by a name the problem does not hold: plan before its first read
        if name != "plan":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        plan = spectral_plan(self.grid, self.kernel, self.potential)
        object.__setattr__(self, "plan", plan)
        return plan


@dataclass(frozen=True, eq=False, slots=True)
class SimState:
    """Snapshot of the evolved pair at time t, on its problem.

    x is the (2, n) block whose rows are the fields rho and g; the
    problem's constants read through the state. Building a state, by any
    route, runs :meth:`validate`, so every state is valid by construction.
    ``drho_inf``, sup |d rho/dx|, is computed once: a state computes
    ``max |spectral.derivative(rho)|`` on its first read, and the run loop
    stores that value, to rounding, from the next step's first stage (see
    ``integrator``).
    Slots keep a state and its problem about 500 bytes smaller than the
    instance dicts of ``cached_property`` (Python 3.11).
    """

    problem: Problem
    x: np.ndarray
    t: float
    drho_inf: float = field(init=False, repr=False)

    rho = property(lambda self: self.x[0])
    g = property(lambda self: self.x[1])
    grid = property(attrgetter("problem.grid"))
    kernel = property(attrgetter("problem.kernel"))
    potential = property(attrgetter("problem.potential"))
    rho_bar = property(attrgetter("problem.rho_bar"))
    m0 = property(attrgetter("problem.m0"))

    def __post_init__(self) -> None:
        self.validate()

    def __getattr__(self, name: str) -> float:
        # reached only by a name the state does not hold: drho_inf before its first read
        if name != "drho_inf":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        drho_inf = float(np.max(np.abs(derivative(self.rho, self.grid))))
        object.__setattr__(self, "drho_inf", drho_inf)
        return drho_inf

    def validate(self) -> None:
        """Run :func:`check_fields` on the state; raises on the first violation."""
        check_fields(self.x, self.t, self.problem)


def check_fields(x: np.ndarray, t: float, problem: Problem) -> np.ndarray:
    """Return the field block x = (rho, g) of the problem at time t, checked in order.

    Raises on the first violation: shape (2, n) (GridMismatchError);
    finite, read from the sums, so an overflowing sum counts
    (NonFiniteError, which means only this); min rho above RHO_FLOOR
    (VacuumError); mean(rho) = rho_bar and mean(g - psi_l * rho) =
    mean(g) - mean(psi_l) mean(rho) = 0 (both MeanViolationError), with
    -mean(psi_l) the problem's ``vel_rho0``, where only a residual above
    MEAN_TOL pays for the guard's scale max(1, |g - psi_l * rho|_inf).
    """
    grid = problem.grid
    n = grid.n
    if x.shape != (2, n):
        raise GridMismatchError(f"fields of shape {x.shape} on a grid of {n} points")
    rho_sum, g_sum = np.add.reduce(x, axis=1).tolist()
    rho_mean = rho_sum / n
    g_mean = g_sum / n
    if not math.isfinite(rho_mean + g_mean):
        raise NonFiniteError(f"non-finite state at t={t:.6f}")
    rho_min = float(np.minimum.reduce(x[0]))
    if rho_min <= RHO_FLOOR:
        raise VacuumError(f"min density {rho_min:.3e} at t={t:.6f}")
    if abs(rho_mean - problem.rho_bar) > MEAN_TOL * max(1.0, abs(problem.rho_bar)):
        raise MeanViolationError("mean density drifted from its conserved value")
    resid = g_mean + problem.vel_rho0 * rho_mean
    if abs(resid) > MEAN_TOL:
        f = x[1] - convolve(problem.kernel.psi_l(grid.x), x[0], grid)
        if abs(resid) > MEAN_TOL * max(1.0, float(np.max(np.abs(f)))):
            raise MeanViolationError(f"mean(g - psi_l * rho) = {resid:.3e} is not zero")
    return x


def _velocity(spec: np.ndarray, rho: np.ndarray, problem: Problem,
              drho_row: bool = False) -> np.ndarray:
    """Velocity of the block with spectrum spec and density rho, as row 0 of a new block.

    One irfft of u_hat, one transform. With ``drho_row`` the call carries
    rho_hat flux = -2 pi i k rho_hat as a second row, two transforms in
    all: row 1 is then -d rho/dx, bit for bit the negated derivative, as
    flux has a zero real part and the irfft of -X is -irfft(X).
    """
    plan = problem.plan
    rho_hat = spec[0]
    rows = np.empty((1 + drho_row, rho_hat.size), dtype=complex)
    u_hat = rows[0]
    np.multiply(plan.vel_rho, rho_hat, out=u_hat)
    u_hat += spec[1]
    u_hat *= plan.inv_ddx
    if drho_row:
        np.multiply(rho_hat, plan.flux, out=rows[1])
    n = rho.size
    w = spectral.irfft(rows, n=n)
    u = w[0]
    u += (problem.m0 * n - float(np.dot(rho, u))) / float(rho_hat[0].real)
    return w


def recover_velocity(state: SimState) -> np.ndarray:
    """Invert the gradient transform, pin the momentum and return the velocity.

    u = c * Lambda^alpha d^-1 (rho - rho_bar) + d^-1 (g - psi_l * rho) + I0,
    with the constant I0 solved from int rho u = m0 at every call, so the
    momentum integral is enforced structurally rather than tracked. Costs
    2 FFT calls over 3 transforms through the problem's plan. Checks
    nothing: the state was validated when it was built.
    """
    problem = state.problem
    return _velocity(spectral.rfft(state.x)[:, :problem.grid.band], state.rho, problem)[0]


def rhs_spectrum(spec: np.ndarray, x: np.ndarray, problem: Problem,
                 drho: bool = False) -> tuple[np.ndarray, float | None, float | None]:
    """Spectrum of the time derivatives of the field block x = (rho, g), whose spectrum is spec.

    Returns a new (2, b) band and, with ``drho``, the flag of a step's
    first stage, sup |u| of the velocity behind it and sup |d rho/dx|, else
    None for both: the inner stages need neither. The velocity irfft of
    :func:`_velocity` is followed by one rfft of the fluxes (rho u, g u),
    which are written into x (budgets: see ``integrator``); the products
    with the plan's flux multiplier read its band alone, which dealiases the
    quadratic products. With ``drho`` the velocity transform also gives
    -d rho/dx as a second row, and the fluxes go into its block instead, so
    x is only read. Checks nothing: x holds the fields of a valid state or
    of a stage that was checked, and a non-finite derivative fails the
    check of the next stage.
    """
    plan = problem.plan
    n = x.shape[1]
    w = _velocity(spec, x[0], problem, drho)
    u = w[0]
    # the elementwise work with an (n,) operand goes row by row: an in-place
    # op on a (2, n) block with an (n,) operand would allocate a (2, n) buffer
    if drho:
        u_inf = max(float(np.maximum.reduce(u)), -float(np.minimum.reduce(u)))
        drho_inf = float(np.maximum.reduce(np.abs(w[1], out=w[1])))
        flux = w
        np.multiply(x[1], u, out=flux[1])
        flux[0] *= x[0]
    else:
        u_inf = drho_inf = None
        flux = x
        flux[0] *= u
        flux[1] *= u
    del w, u
    d = spectral.rfft(flux)
    del flux, x  # x passed as a temporary is freed here, before the products below
    d = d[:, :plan.flux.size] * plan.flux  # band of -d/dx of the dealiased flux
    if plan.source is not None:
        d[1] += spec[0] * plan.source
        d[1, 0] += problem.potential.k * n * problem.rho_bar
    return d, u_inf, drho_inf


def rhs(state: SimState) -> tuple[np.ndarray, np.ndarray, float]:
    """Time derivatives of (rho, g) and sup |u| of the velocity behind them.

    :func:`rhs_spectrum` as a first stage, on the band of the state's
    block, and one irfft back: 4 FFT calls over 8 transforms. The two
    derivatives are the rows of one (2, n) array. Checks nothing.
    """
    problem = state.problem
    d, u_inf, _ = rhs_spectrum(spectral.rfft(state.x)[:, :problem.grid.band], state.x, problem,
                               drho=True)
    d = spectral.irfft(d, n=problem.grid.n)
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
    band-limited; the conserved mean density and momentum of the state's
    new :class:`Problem` are taken from the dealiased initial data. The
    gradient variable is one irfft of g_hat = 2 pi i k u_hat - vel_rho
    rho_hat on the same band, the velocity relation of the module docstring
    solved for g_hat. A density not above ``RHO_FLOOR`` raises VacuumError,
    as for any state.
    """
    h = spectral.rfft(np.stack(initial_fields(preset, grid, **params)))[:, :grid.band]
    x = spectral.irfft(h, n=grid.n)  # rows rho and u, then rho and g
    rho, u = x
    rho_bar, m0 = mean(rho), mean(rho * u)
    g_hat = h[1]
    g_hat *= 1j * grid.two_pi_k[:grid.band]
    g_hat -= _vel_rho(grid, kernel) * h[0]
    x[1] = spectral.irfft(g_hat, n=grid.n)
    return SimState(Problem(grid, kernel, potential or PotentialSpec(), rho_bar, m0), x, 0.0)


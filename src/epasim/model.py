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
- flux derivative: flux = -2 pi i k, which also gives -d rho/dx as
  rho_hat flux, one complex product: a first stage's gradient row, and
  the one irfft of :func:`drho_sup`, whose sup :func:`drho_bound` bounds;
- potential source: source rho_hat with source = -k + (2 pi k)^2 K_reg_hat,
  plus k n rho_bar on mode 0 for the background.

psi_l_hat and K_reg_hat are the presets' own bands (``band(grid)``), and
the initial data's is :func:`initial_band`: closed forms, not transforms
of samples, but for the gaussian initial data (dtypes: :class:`SpectralPlan`).

Mode 0 of g_hat + vel_rho rho_hat is n mean(g - psi_l * rho), the
zero-mean constraint that makes the velocity periodic. :func:`check_fields`
checks it, with the density floor and finiteness, on every state.

A state is (problem, x, t): a :class:`Problem` holds what a run keeps
fixed, and x is the (2, n) block of the fields (rho, g). The dynamics are
evaluated on the state's ``spec``, the (2, b) band of the block's rfft:
:func:`rhs_spectrum` takes it with the fields and the problem, and
returns the band of their time derivatives. ``integrator`` states the
FFT and reduction budgets of an evaluation and of a step. Both rows of a
block go through one FFT call, which pocketfft computes bit for bit as
two separate calls.
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
from .spectral import MEAN_TOL, Grid, GridMismatchError, MeanViolationError

RHO_FLOOR = 1e-8  # below this, treat the run as having reached vacuum


class VacuumError(RuntimeError):
    """Density has (numerically) reached vacuum; g/rho is undefined."""


class NonFiniteError(RuntimeError):
    """A state with non-finite samples."""


class SpectralPlan(NamedTuple):
    """Read-only Fourier multipliers of one problem (see the module docstring).

    Each has the b entries of the band, as complex128: inv_ddx and flux
    carry the factor i, and vel_rho and source carry the bands of psi_l and
    K_reg. As every kernel and potential is even, those are exactly real,
    from the closed forms. They stay complex so that every product
    with a spectrum is complex-by-complex: a complex-by-real product goes
    through numpy's buffered cast. inv_ddx and flux depend on the grid
    alone, so the plans of one grid share them; vel_rho is the kernel's
    band array, which the plans of one (grid, kernel) share.
    """

    inv_ddx: np.ndarray
    vel_rho: np.ndarray
    flux: np.ndarray
    source: np.ndarray | None  # None without a potential


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
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
    # mode 0 is -mean(psi_l)
    return _read_only(kernel.c * grid.two_pi_k[:grid.band]**kernel.alpha
                      - kernel.psi_l.band(grid))


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
    Two values are filled once, on first read: ``spec``, the read-only
    (2, b) band whose irfft is x, a copy of rfft(x)'s first b modes, and
    ``drho_inf``, sup |d rho/dx|, :func:`drho_sup` of that band; a run
    stores both where it has them (see ``integrator``). Slots keep a state
    and its problem about 500 bytes smaller than the instance dicts of
    ``cached_property`` (Python 3.11).
    """

    problem: Problem
    x: np.ndarray
    t: float
    spec: np.ndarray = field(init=False, repr=False)
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

    def __getattr__(self, name: str) -> np.ndarray | float:
        # reached only by a name the state does not hold: spec or drho_inf before its first read
        if name == "spec":
            value = _read_only(spectral.rfft(self.x)[:, :self.grid.band].copy())
        elif name == "drho_inf":
            value = drho_sup(self.spec, self.problem)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

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
    MEAN_TOL pays for the guard's scale max(1, |g - psi_l * rho|_inf), with
    psi_l * rho the irfft of the band of rfft(rho) times psi_l's band.
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
        psi_l_rho = spectral.rfft(x[0])[:grid.band] * problem.kernel.psi_l.band(grid)
        f = x[1] - spectral.irfft(psi_l_rho, n)
        if abs(resid) > MEAN_TOL * max(1.0, float(np.max(np.abs(f)))):
            raise MeanViolationError(f"mean(g - psi_l * rho) = {resid:.3e} is not zero")
    return x


def _velocity(spec: np.ndarray, rho: np.ndarray, problem: Problem,
              drho_row: bool = False) -> np.ndarray:
    """Velocity of the block with spectrum spec and density rho, as row 0 of a new block.

    One irfft of u_hat, one transform, on the row that the product
    vel_rho rho_hat allocates. With ``drho_row`` the call carries
    rho_hat flux = -2 pi i k rho_hat as a second row, two transforms in
    all: row 1 is then -d rho/dx, bit for bit the negated derivative, as
    flux has a zero real part and the irfft of -X is -irfft(X).
    """
    plan = problem.plan
    rho_hat = spec[0]
    if drho_row:
        rows = np.empty((2, rho_hat.size), dtype=complex)
        u_hat = np.multiply(plan.vel_rho, rho_hat, out=rows[0])
        np.multiply(rho_hat, plan.flux, out=rows[1])
    else:
        u_hat = np.multiply(plan.vel_rho, rho_hat)
        rows = u_hat[np.newaxis]
    u_hat += spec[1]
    u_hat *= plan.inv_ddx
    n = rho.size
    w = spectral.irfft(rows, n=n)
    u = w[0]
    u += (problem.m0 * n - float(rho.dot(u))) / float(rho_hat[0].real)
    return w


def drho_sup(spec: np.ndarray, problem: Problem) -> float:
    """sup |d rho/dx| of the block with spectrum spec: the max of
    |irfft(spec[0] flux)|, one irfft of the density row, one transform:
    bit for bit the sup of the row a first stage's velocity irfft carries."""
    w = spectral.irfft(spec[0] * problem.plan.flux, problem.grid.n)
    return float(np.maximum.reduce(np.abs(w, out=w)))


def drho_bound(spec: np.ndarray, problem: Problem) -> float:
    """An upper bound on :func:`drho_sup` of the band spec, at no FFT.

    A density in the band is a sum of its modes, so sup |d rho/dx| is at
    most the sum of their amplitudes, (2/n) sum_k 2 pi k |rho_hat_k| (the
    band holds no Nyquist mode), which is -2 |rho_hat| . flux.imag / n.
    The factor 1 + 1e-9 covers the rounding of that sum and of the irfft.
    """
    flux = problem.plan.flux
    return -2.0 * float(np.abs(spec[0]).dot(flux.imag)) / problem.grid.n * (1.0 + 1e-9)


def recover_velocity(state: SimState) -> np.ndarray:
    """Invert the gradient transform, pin the momentum and return the velocity.

    u = c * Lambda^alpha d^-1 (rho - rho_bar) + d^-1 (g - psi_l * rho) + I0,
    with the constant I0 solved from int rho u = m0 at every call, so the
    momentum integral is enforced structurally rather than tracked. Costs
    one irfft of the state's band through the problem's plan. Checks
    nothing: the state was validated when it was built.
    """
    return _velocity(state.spec, state.rho, state.problem)[0]


def rhs_spectrum(spec: np.ndarray, x: np.ndarray, problem: Problem,
                 drho: bool | None = None) -> tuple[np.ndarray, float | None, float | None]:
    """Spectrum of the time derivatives of the field block x = (rho, g), whose spectrum is spec.

    Returns a new (2, b) band, sup |u| of the velocity behind it and
    sup |d rho/dx|, each None where not asked for. An inner stage passes no
    ``drho``, needs neither sup and writes the fluxes (rho u, g u) into x,
    its temporary fields. A step's first stage passes it, False for sup |u|
    alone, True for both, and only reads x, a state's fields: with True the
    velocity transform also gives -d rho/dx as a second row, and the fluxes
    go into its block, else into a new one; one reduction over that block's
    |values| gives the sups. The velocity irfft of :func:`_velocity` is
    followed by one rfft of the fluxes (budgets: see ``integrator``); the
    products with the plan's flux multiplier read its band alone, which
    dealiases the quadratic products. Checks nothing: x holds the fields of
    a valid state or of a stage that was checked, and a non-finite
    derivative fails the check of the next stage.
    """
    plan = problem.plan
    n = x.shape[1]
    w = _velocity(spec, x[0], problem, bool(drho))
    u = w[0]
    # the elementwise work with an (n,) operand goes row by row: an in-place
    # op on a (2, n) block with an (n,) operand would allocate a (2, n) buffer
    if drho is None:
        u_inf = drho_inf = None
        flux = x
        flux[0] *= u
        flux[1] *= u
    else:
        sups = np.maximum.reduce(np.abs(w), axis=1).tolist()
        u_inf, drho_inf = sups if drho else (sups[0], None)
        flux = w if drho else np.empty((2, n))
        np.multiply(x[1], u, out=flux[1])
        np.multiply(x[0], u, out=flux[0])
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

    :func:`rhs_spectrum` as a first stage, on the state's band, and one
    irfft back: 3 FFT calls over 6 transforms. The two derivatives are the
    rows of one (2, n) array. Checks nothing.
    """
    d, u_inf, _ = rhs_spectrum(state.spec, state.x, state.problem, drho=True)
    d = spectral.irfft(d, n=state.grid.n)
    return d[0], d[1], u_inf


_PRESET_PARAMS = {  # each initial preset's parameters, with their defaults
    "uniform": {"rho_base": 1.0, "u_mean": 0.0},
    "cosine": {"rho_base": 1.0, "rho_amp": 0.5, "u_amp": 0.0, "u_mean": 0.0},
    "gaussian-bump": {"rho_base": 1.0, "amp": 0.5, "width": 0.1, "u_amp": 0.0, "u_mean": 0.0},
    "burgers-shock": {"rho_base": 1.0, "u_amp": 1.0},
    "near-vacuum": {"eps": 1e-2, "amp": 1.0, "width": 0.1},
}


def initial_band(preset: str, grid: Grid, **params) -> np.ndarray:
    """The (2, b) band of the rfft of the preset's (rho, u) samples, as a new array.

    The samples start at x = -1/2, so mode k is n (-1)^k c_k: written in
    closed form for ``uniform``, ``cosine`` (rho_base + rho_amp cos 2 pi x,
    u_mean + u_amp sin 2 pi x) and ``burgers-shock`` (rho_base, -u_amp
    sin 2 pi x), and the rfft of the samples, which define them, for the
    gaussian bump of 9 periodic images that ``gaussian-bump`` and
    ``near-vacuum`` add to the density. An unknown preset or parameter, a
    parameter that is not finite and a width not above 0 raise ValueError.
    """
    if preset not in _PRESET_PARAMS:
        raise ValueError(f"unknown initial preset {preset!r}")
    unknown = set(params) - _PRESET_PARAMS[preset].keys()
    if unknown:
        raise ValueError(f"preset {preset!r} does not take parameters {sorted(unknown)}")
    p = params  # this call's own dict: filled in place, it leaves no second dict behind
    for name, default in _PRESET_PARAMS[preset].items():
        if not math.isfinite(p.setdefault(name, default)):
            raise ValueError(f"preset {preset!r} {name} must be finite, got {p[name]}")
    if "width" in p:  # gaussian-bump and near-vacuum
        if not p["width"] > 0:
            raise ValueError(f"preset {preset!r} width must be above 0, got {p['width']}")
        x = grid.x
        bump = p["amp"] * sum(np.exp(-((x + m) ** 2) / (2 * p["width"] ** 2)) for m in range(-4, 5))
        u = p.get("u_mean", 0.0) + p.get("u_amp", 0.0) * np.sin(2 * np.pi * x)
        return spectral.rfft(np.stack((p.get("rho_base", p.get("eps")) + bump, u)))[:, :grid.band]
    h = np.zeros((2, grid.band), dtype=complex)
    h[:, 0] = grid.n * p["rho_base"], grid.n * p.get("u_mean", 0.0)
    if preset == "cosine":
        h[:, 1] = -0.5 * grid.n * p["rho_amp"], 0.5j * grid.n * p["u_amp"]
    elif preset == "burgers-shock":
        h[1, 1] = -0.5j * grid.n * p["u_amp"]
    return h


def make_initial(preset: str, grid: Grid, kernel: KernelSpec,
                 potential: PotentialSpec | None = None, **params) -> SimState:
    """Build a simulation state from a preset's :func:`initial_band` alone.

    The fields are dealiased (2/3 rule), so the evolved state starts
    band-limited, and the new :class:`Problem` reads rho_bar from mode 0
    and m0 = mean(rho u) by Parseval, exact for the band's product. Row 1
    becomes g_hat = 2 pi i k u_hat - vel_rho rho_hat, the velocity relation
    solved for g_hat, and one irfft gives the block (rho, g): 1 FFT call
    from cleared memo tables, 2 for a gaussian preset. A density not above
    ``RHO_FLOOR`` raises VacuumError, as for any state.
    """
    h = initial_band(preset, grid, **params)
    n = grid.n
    m0 = float(h[0, 0].real * h[1, 0].real + 2.0 * np.vdot(h[1, 1:], h[0, 1:]).real) / n**2
    problem = Problem(grid, kernel, potential or PotentialSpec(), float(h[0, 0].real) / n, m0)
    h[1] *= 1j * grid.two_pi_k[:grid.band]
    h[1] -= _vel_rho(grid, kernel) * h[0]
    return SimState(problem, spectral.irfft(h, n=n), 0.0)

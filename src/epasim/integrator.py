"""Explicit time integration with stability-bounded steps and detection.

SSP-RK3 (Shu-Osher) over the transport form of the dynamics. Steps are
capped by four bounds (``_raw_dt``); a run ends at vacuum, at non-finite
values or when a stop rule fires (collapsing dt, runaway density or
gradient, or a capped accumulation of the squared-gradient history).

- Advective: dt sup |u| <= cfl_advect dx. SSP-RK3 holds the imaginary
  axis up to sqrt(3), so linear advection at speed u keeps the band's top
  mode k_c = n // 3 stable for u dt / dx <= sqrt(3) n / (2 pi k_c) ~ 0.83.
- Stiff: linearised about a density rho, the singular term damps mode k
  at the rate c rho (2 pi |k|)^alpha, the one rate that grows with n. The
  largest mode the dealiased flux moves is k_c = n // 3, so
  dt c max(rho) (2 pi k_c)^alpha <= cfl_diffuse R. SSP-RK3's stability
  region |1 + z + z^2/2 + z^3/6| <= 1 meets the negative real axis at
  -R, R ~ 2.5127 (Gottlieb, Shu & Tadmor, SIAM Rev. 43, 2001).
- Non-stiff: the rates that do not grow with n. psi_l damps at most at
  sup psi_l rho_bar (its convolution averages rho), and the potential
  makes the density oscillate at the local frequency
  omega = sqrt((|k| + sup |K_reg''|) max(rho)). The eigenvalues then lie
  within sup psi_l rho_bar + omega of 0, in the left half-plane for a
  repulsive potential, and the left half of the disc |z| <= sqrt(3) is
  inside the stability region: dt (sup psi_l rho_bar + omega)
  <= cfl_diffuse sqrt(3).
- Phase: the stability bounds say nothing of accuracy. RK3 misses an
  oscillation's amplitude by about (dt omega)^4 / 24 per step, so
  dt omega <= cfl_diffuse / 5: at the default, a tenth of a radian per
  step, 63 steps per period of the potential's oscillation.

The run loop advances the (2, b) band of the rfft of a state's (2, n)
block x = (rho, g). It transforms the initial block forward once and
evaluates the dynamics on the band (``model.rhs_spectrum``); the SSP-RK3
combinations update whole complex blocks in place. An FFT call is one
call of ``spectral.rfft`` or ``spectral.irfft``, and transforms one row
per row of its block. An evaluation makes 2 calls over 3 transforms, the
velocity irfft and the flux rfft, and a step makes 9 calls over 15:

- each inner stage: one irfft of its spectrum gives its fields (2
  transforms), which ``model.check_fields`` checks before the evaluation
  reads them, then the velocity irfft (1) and the flux rfft (2);
- the accepted state: one irfft of the new spectrum (2), the fields of a
  new ``SimState``, which holds that spectrum as its read-only ``spec``;
  building it runs the same check, so a step checks three sets of fields;
- the next step's first stage, evaluated before the monitors: the velocity
  irfft (1) and the flux rfft (2). Its sup |u| sets that step's advective
  bound and its derivative spectrum is that step's stage 1.

The first stage's velocity irfft carries -d rho/dx, the density row
times the plan's flux multiplier, as a second row (9 calls over 16) when
its sup is read: by the squared-gradient sum, if ``bkm_cap`` is finite; by
a monitor whose ``reads`` names ``drho_inf``, as the recorder's does; or
by the gradient rule, if the band's bound ``model.drho_bound`` exceeds
``grad_rho_max``. The sup becomes the accepted state's ``drho_inf``; else
a state reads it off its band when asked (``model.drho_sup``), the same
bits, as irfft works row by row. Once per run the loop makes the initial
rfft (2 transforms), and 1 irfft of a density row (1) for each
``drho_inf`` read off a band: the caller's state's, off the loop's band,
unless its first stage carried the row, and the final state's. A step
makes 8 ufunc reductions: 2 in each field check (the row sums and min
rho), 1 for the first stage's sups, of |u| and, with the row,
|d rho/dx|, and 1 for max rho. The states of a run share one
``model.Problem``, so no step looks up a cache.

Before each step the loop checks ``STOP_RULES`` in one expression; a rule
that fires ends the run BLOWUP with its ``Stop``, the outcome's detail.
During a step the loop holds the spectrum and no state, and it gives the
caller's state no band. A failed step reports the last accepted state,
rebuilt from its spectrum, bit for bit the one the monitors saw (irfft
works row by row), or the caller's own state when the first step fails.
An outcome's state that the loop built reads its ``drho_inf`` and drops
its band, so that reading ``spec`` there recomputes it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .model import (NonFiniteError, Problem, SimState, VacuumError, check_fields, drho_bound,
                    drho_sup, rhs_spectrum)
from .spectral import MeanViolationError

# imported only for perfbench/tracer.py, which wraps integrator.rhs,
# integrator.recover_velocity and integrator.derivative
from .model import recover_velocity, rhs  # noqa: F401
from .spectral import derivative  # noqa: F401


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    BLOWUP = "blowup_detected"
    VACUUM = "vacuum_detected"
    NAN = "nan_detected"


@dataclass(frozen=True)
class StepControl:
    """Step-size policy for a run up to t_end.

    cfl_advect is the Courant number of the advective bound, and
    cfl_diffuse the fraction of SSP-RK3's stability limits that the stiff
    and the non-stiff bounds allow; a fifth of it caps the potential's
    phase per step (see the module docstring).
    """

    t_end: float
    cfl_advect: float = 0.4
    cfl_diffuse: float = 0.5
    dt_min: float = 1e-12
    dt_max: float = 0.1

    def __post_init__(self) -> None:
        vals = (self.t_end, self.cfl_advect, self.cfl_diffuse, self.dt_min, self.dt_max)
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError("all step-control parameters must be finite and positive")
        if self.dt_min >= self.dt_max:
            raise ValueError("dt_min must be below dt_max")


@dataclass(frozen=True)
class DetectionThresholds:
    """Thresholds of three ``STOP_RULES``; ``StepControl.dt_min`` is the fourth's.

    Defaults are far outside anything a regular run reaches; control
    scenarios (no alignment) override them to taste. Vacuum has no setting
    here: a state below ``model.RHO_FLOOR`` cannot be built, so the run
    reports VACUUM when a stage's construction refuses one. Thresholds are
    positive, inf turning a rule off; a NaN, which would too, is refused.
    """

    rho_max_factor: float = 1e6  # fire when max rho exceeds factor * rho_bar
    grad_rho_max: float = 1e8
    bkm_cap: float = math.inf  # cap on the running integral of |d rho/dx|_inf^2

    def __post_init__(self) -> None:
        if not (self.rho_max_factor > 0 and self.grad_rho_max > 0 and self.bkm_cap > 0):
            raise ValueError("detection thresholds must be positive (inf allowed), not NaN")


# the stop rules in the order a run checks them before each step: the test
# that fires each on its value and threshold, and the text of its detail
STOP_RULES = {
    "max_density": (operator.gt, "max density"),  # max rho, rho_max_factor rho_bar
    "gradient": (operator.gt, "density gradient"),  # sup |d rho/dx|, grad_rho_max
    "gradient_sum": (operator.gt, "squared-gradient accumulation"),  # its integral, bkm_cap
    "dt_collapse": (operator.lt, "stable step collapsed to"),  # the stable dt, dt_min
}
READS = frozenset({"drho_inf"})  # the costly state values a monitor may read


class Stop(NamedTuple):
    """The stop rule of ``STOP_RULES`` that ended a run, its value and its threshold."""

    rule: str
    value: float
    threshold: float

    @property
    def detail(self) -> str:
        return f"{STOP_RULES[self.rule][1]} {self.value:.3e}"


def _fired(limits: tuple, *values: float | None) -> Stop:
    # the first rule whose value passes its threshold; a value not taken is None
    for (rule, (passes, _)), value, limit in zip(STOP_RULES.items(), values, limits):
        if value is not None and passes(value, limit):
            return Stop(rule, value, limit)
    raise AssertionError("no stop rule fired")


@dataclass
class RunOutcome:
    status: RunStatus
    t_final: float
    steps: int
    state: SimState
    detail: str = ""  # the stop's text, or why the state left the valid region
    log: object | None = None  # first monitor exposing a .log attribute, if any
    stop: Stop | None = None  # None unless a stop rule ended the run


class _DtConstants(NamedTuple):
    """The factors of the step bounds that are fixed for a run (see ``_raw_dt``)."""

    adv: float  # cfl_advect dx
    stiff: float  # cfl_diffuse R / (c (2 pi k_c)^alpha), inf for c = 0
    nonstiff: float  # cfl_diffuse sqrt(3)
    phase: float  # cfl_diffuse / 5
    damping: float  # sup psi_l rho_bar
    stiffness: float  # sqrt(|k| + sup |K_reg''|), omega / sqrt(max rho)


def _dt_constants(problem: Problem, ctl: StepControl) -> _DtConstants:
    kern, pot = problem.kernel, problem.potential
    # SSP-RK3's stability polynomial is -1 at z = -R, the real root of
    # z^3 + 3 z^2 + 6 z + 12 = 0 (Cardano); the left half of the disc
    # |z| <= sqrt(3) lies inside its stability region
    real_limit = 1 + np.cbrt(4 + math.sqrt(17)) - np.cbrt(math.sqrt(17) - 4)
    stiff_rate = kern.c * (2 * np.pi * (problem.grid.n // 3)) ** kern.alpha
    return _DtConstants(
        adv=ctl.cfl_advect * problem.grid.dx,
        stiff=ctl.cfl_diffuse * float(real_limit) / stiff_rate if stiff_rate > 0 else math.inf,
        nonstiff=ctl.cfl_diffuse * math.sqrt(3),
        phase=ctl.cfl_diffuse / 5,
        damping=kern.psi_l.sup_norm() * problem.rho_bar,
        stiffness=math.sqrt(abs(pot.k) + pot.kreg.second_derivative_sup),
    )


def _raw_dt(dc: _DtConstants, rho_max: float, u_inf: float) -> float:
    """Step bounds of a state with max density rho_max and sup |u| = u_inf."""
    dt_adv = dc.adv / u_inf if u_inf > 0 else math.inf
    dt = min(dt_adv, dc.stiff / rho_max)
    omega = dc.stiffness * math.sqrt(rho_max)  # the potential's local frequency
    if omega > 0:
        dt = min(dt, dc.phase / omega)
    rate = dc.damping + omega
    return min(dt, dc.nonstiff / rate) if rate > 0 else dt


def _stage2(x: np.ndarray, d: np.ndarray, x0: np.ndarray, dt: float) -> None:
    # x <- 3/4 x0 + 1/4 (x + dt d), in place; d is overwritten
    d *= dt
    x += d
    x *= 0.25
    np.multiply(x0, 0.75, out=d)
    x += d


def _stage3(d: np.ndarray, x: np.ndarray, x0: np.ndarray, dt: float) -> None:
    # d <- (x0 + 2 (x + dt d)) / 3, in place. numpy divides a complex block
    # by 3.0 as by 3 + 0j, which it computes as (a + b 0) (1/3): the product
    # of its float64 view with 1/3 has the same bits, but for the sign of a
    # zero part, in a sixth of the time at n = 4096
    d *= dt
    d += x
    d *= 2.0
    d += x0
    real = d.view(np.float64)
    real *= 1.0 / 3.0


def _accepted(spec: np.ndarray, t: float, problem: Problem) -> SimState:
    # the state at time t whose fields are the rows of one irfft of spec,
    # which it holds, read-only, as its band; building it checks them
    state = SimState(problem, spectral.irfft(spec, n=problem.grid.n), t)
    spec.setflags(write=False)
    object.__setattr__(state, "spec", spec)
    return state


def _stage_rhs(x: np.ndarray, t: float, problem: Problem) -> np.ndarray:
    # the derivative spectrum of an inner stage with spectrum x; its checked
    # fields, one irfft of x, are a temporary, not a name, so the evaluation
    # frees them once it has transformed the fluxes it writes into them
    return rhs_spectrum(x, check_fields(spectral.irfft(x, n=problem.grid.n), t, problem),
                        problem)[0]


def step_ssprk3(x0: np.ndarray, d: np.ndarray, dt: float, t: float,
                problem: Problem) -> np.ndarray:
    """One SSP-RK3 update of x0, the band of a valid state's spectrum at time t.

    d is x0's stage-1 derivative band from ``model.rhs_spectrum``; it then
    holds the stage values and is overwritten. Returns the new band. Each
    inner stage's fields are checked before they are evaluated (see the
    module docstring), so a stage that leaves the valid region raises
    there: VacuumError, NonFiniteError or MeanViolationError.
    """
    # stage 1: u1 = u0 + dt L(u0)
    x = d
    x *= dt
    x += x0
    # stage 2, into the stage-1 block: u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))
    d = _stage_rhs(x, t, problem)
    _stage2(x, d, x0, dt)
    del d
    # stage 3, into its own derivative block: (u0 + 2 (u2 + dt L(u2))) / 3
    d = _stage_rhs(x, t, problem)
    _stage3(d, x, x0, dt)
    return d


def run(state: SimState, ctl: StepControl, monitors: tuple = (),
        detection: DetectionThresholds = DetectionThresholds()) -> RunOutcome:
    """March the state to ctl.t_end or until a detector fires.

    Monitors are callables ``monitor(step, state)`` invoked after every
    accepted step (and once for the initial state); they own their own
    cadence decisions and see read-only snapshots. A monitor may carry
    ``reads``, the set of costly state values it reads, of ``READS``;
    another name raises ValueError (see the module docstring).
    """
    reads = frozenset().union(*(getattr(m, "reads", ()) for m in monitors))
    if not reads <= READS:
        raise ValueError(f"monitors read unknown state values {sorted(reads - READS)}")
    steps, bkm = 0, 0.0
    problem = state.problem
    dc = _dt_constants(problem, ctl)
    initial = state
    sum_bkm = math.isfinite(detection.bkm_cap)
    row_always = sum_bkm or "drho_inf" in reads
    del reads  # a run's locals live as long as it does
    limits = (detection.rho_max_factor * problem.rho_bar, detection.grad_rho_max,
              detection.bkm_cap, ctl.dt_min)  # the thresholds of STOP_RULES, in order

    def stage1(s, spec):
        # the next step's first stage and the sup |d rho/dx| that it stores
        # in s, None when nothing reads it; (None, None) at the end
        if s.t >= ctl.t_end - 1e-12:
            return None, None
        row = row_always or drho_bound(spec, problem) > detection.grad_rho_max
        d, u_inf, grad = rhs_spectrum(spec, s.x, problem, drho=row)
        if row:
            object.__setattr__(s, "drho_inf", grad)
        return (d, u_inf), grad

    def outcome(status, detail="", stop=None):
        if state is not initial:
            _ = state.drho_inf  # read off the band, which the outcome does not keep
            object.__delattr__(state, "spec")
        log = next((m.log for m in monitors if hasattr(m, "log")), None)
        return RunOutcome(status=status, t_final=state.t, steps=steps, state=state,
                          detail=stop.detail if stop else detail, log=log, stop=stop)

    spec = spectral.rfft(state.x)[:, :problem.grid.band]
    k1, grad_inf = stage1(state, spec)
    if grad_inf is None:  # read off the band, which the caller's state is not given
        object.__setattr__(state, "drho_inf", drho_sup(spec, problem))
    for m in monitors:
        m(0, state)

    while k1 is not None:
        rho_max = float(np.maximum.reduce(state.x[0]))
        d, u_inf = k1
        k1 = None
        raw = _raw_dt(dc, rho_max, u_inf)
        # the stop rules, written out so that a step builds no tuple of values
        if (rho_max > limits[0] or (grad_inf is not None and grad_inf > limits[1])
                or bkm > limits[2] or raw < limits[3]):
            return outcome(RunStatus.BLOWUP, stop=_fired(limits, rho_max, grad_inf, bkm, raw))
        t = state.t
        dt = min(raw, ctl.dt_max, ctl.t_end - t)
        try:
            state = None  # no physical copy of the accepted state during the step
            new = step_ssprk3(spec, d, dt, t, problem)
            del d  # the stage block of the finished step
            state = _accepted(new, t + dt, problem)
            spec = new
            k1, grad = stage1(state, spec)
        except (VacuumError, NonFiniteError, MeanViolationError, FloatingPointError) as exc:
            if state is None:  # the last accepted state, as the monitors saw it
                state = initial if steps == 0 else _accepted(spec, t, problem)
            status = RunStatus.VACUUM if isinstance(exc, VacuumError) else RunStatus.NAN
            return outcome(status, str(exc))
        steps += 1
        if sum_bkm and k1 is not None:  # the sum is read only by the next step's detector
            bkm += 0.5 * (grad_inf**2 + grad**2) * dt
        grad_inf = grad
        for m in monitors:
            m(steps, state)
    return outcome(RunStatus.COMPLETED)

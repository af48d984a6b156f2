"""Explicit time integration with stability-bounded steps and detection.

SSP-RK3 (Shu-Osher) over the transport form of the dynamics. Steps are
capped by an advective CFL bound and a fractional-diffusion bound; the
run loop watches for vacuum, non-finite values, and blow-up indicators
(collapsing dt, runaway density or gradient, or a capped accumulation of
the squared-gradient history).

The run loop evaluates the first RK stage itself: the same ``rhs`` call
gives sup |u| for the advective step bound and the stage-1 derivatives
that ``step_ssprk3`` then consumes, so each step costs three ``rhs``
calls and no separate velocity recovery. Each stage's fields go into a
new ``SimState``, whose construction is that stage's only check, so a
step checks three states: the two inner stages and the accepted one. The
gradient detector reads the accepted state's ``drho_inf``, which monitors
such as the diagnostics recorder then share instead of differentiating
again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import NonFiniteError, SimState, VacuumError, recover_velocity, rhs
from .spectral import MeanViolationError
from .spectral import derivative  # noqa: F401  (perfbench traces integrator.derivative)


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    BLOWUP = "blowup_detected"
    VACUUM = "vacuum_detected"
    NAN = "nan_detected"


@dataclass(frozen=True)
class StepControl:
    """Step-size policy for a run up to t_end."""

    t_end: float
    cfl_advect: float = 0.4
    cfl_diffuse: float = 0.3
    dt_min: float = 1e-12
    dt_max: float = 0.1

    def __post_init__(self) -> None:
        vals = (self.t_end, self.cfl_advect, self.cfl_diffuse, self.dt_min, self.dt_max)
        if any(v <= 0 for v in vals):
            raise ValueError("all step-control parameters must be positive")
        if self.dt_min >= self.dt_max:
            raise ValueError("dt_min must be below dt_max")


@dataclass(frozen=True)
class DetectionThresholds:
    """Blow-up detector settings.

    Defaults are far outside anything a regular run reaches; control
    scenarios (no alignment) override them to taste. Vacuum has no setting
    here: a state below ``model.RHO_FLOOR`` cannot be built, so the run
    reports VACUUM when a stage's construction refuses one.
    """

    rho_max_factor: float = 1e6  # fire when max rho exceeds factor * rho_bar
    grad_rho_max: float = 1e8
    bkm_cap: float = math.inf  # cap on the running integral of |d rho/dx|_inf^2


@dataclass
class RunOutcome:
    status: RunStatus
    t_final: float
    steps: int
    state: SimState
    detail: str = ""
    log: object | None = None  # first monitor exposing a .log attribute, if any

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.COMPLETED


def _raw_dt(state: SimState, ctl: StepControl, u_inf: float) -> float:
    """CFL bounds of the state, given its sup |u|."""
    dx = state.grid.dx
    dt_adv = ctl.cfl_advect * dx / u_inf if u_inf > 0 else math.inf
    kern = state.kernel
    denom = (2 * np.pi) ** kern.alpha * kern.c * float(np.max(state.rho))
    denom += kern.psi_l.sup_norm() * state.rho_bar
    pot = state.potential
    forcing_scale = (abs(pot.k) + pot.kreg.second_derivative_sup) * state.rho_bar
    denom += forcing_scale
    dt_dif = ctl.cfl_diffuse * dx**kern.alpha / denom if denom > 0 else math.inf
    return min(dt_adv, dt_dif)


def stable_dt(state: SimState, ctl: StepControl) -> float:
    """Stability-bounded step: min of the CFL bounds and dt_max, clamped
    below by dt_min. Recovers the velocity of the state, which was checked
    when it was built, so it raises nothing."""
    u_inf = float(np.max(np.abs(recover_velocity(state))))
    return max(min(_raw_dt(state, ctl, u_inf), ctl.dt_max), ctl.dt_min)


def _stage2(x: np.ndarray, d: np.ndarray, x0: np.ndarray, dt: float) -> None:
    # x <- 3/4 x0 + 1/4 (x + dt d), in place; d is overwritten
    d *= dt
    x += d
    x *= 0.25
    np.multiply(x0, 0.75, out=d)
    x += d


def _stage3(d: np.ndarray, x: np.ndarray, x0: np.ndarray, dt: float) -> None:
    # d <- (x0 + 2 (x + dt d)) / 3, in place
    d *= dt
    d += x
    d *= 2.0
    d += x0
    d /= 3.0


def step_ssprk3(state: SimState, dt: float, k1: tuple | None = None) -> SimState:
    """One three-stage strong-stability-preserving RK3 update.

    ``k1`` is the stage-1 ``(drho, dg)`` of ``rhs(state)`` when the caller
    has it already; its arrays then hold the stage values and are
    overwritten. Each stage's fields, and the result's, are checked when
    their ``SimState`` is built, so a stage that leaves the valid region
    raises there: VacuumError, NonFiniteError or MeanViolationError.
    """
    r0, g0 = state.rho, state.g
    r, g = k1[:2] if k1 is not None else rhs(state)[:2]
    # stage 1: u1 = u0 + dt L(u0)
    r *= dt
    r += r0
    g *= dt
    g += g0
    # stage 2, into the stage-1 arrays: u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))
    dr, dg, _ = rhs(replace(state, rho=r, g=g))
    _stage2(r, dr, r0, dt)
    _stage2(g, dg, g0, dt)
    del dr, dg
    # stage 3, into its own derivative arrays: (u0 + 2 (u2 + dt L(u2))) / 3
    dr, dg, _ = rhs(replace(state, rho=r, g=g))
    _stage3(dr, r, r0, dt)
    _stage3(dg, g, g0, dt)
    return replace(state, rho=dr, g=dg, t=state.t + dt)


def run(state: SimState, ctl: StepControl, monitors: tuple = (),
        detection: DetectionThresholds = DetectionThresholds()) -> RunOutcome:
    """March the state to ctl.t_end or until a detector fires.

    Monitors are callables ``monitor(step, state)`` invoked after every
    accepted step (and once for the initial state); they own their own
    cadence decisions and see read-only snapshots.
    """
    steps = 0
    bkm = 0.0
    grad_inf = state.drho_inf
    for m in monitors:
        m(0, state)

    def outcome(status, detail=""):
        log = next((m.log for m in monitors if hasattr(m, "log")), None)
        return RunOutcome(status=status, t_final=state.t, steps=steps,
                          state=state, detail=detail, log=log)

    while state.t < ctl.t_end - 1e-12:
        rho_max = float(np.max(state.rho))
        if rho_max > detection.rho_max_factor * state.rho_bar:
            return outcome(RunStatus.BLOWUP, f"max density {rho_max:.3e}")
        if grad_inf > detection.grad_rho_max:
            return outcome(RunStatus.BLOWUP, f"density gradient {grad_inf:.3e}")
        if bkm > detection.bkm_cap:
            return outcome(RunStatus.BLOWUP, f"squared-gradient accumulation {bkm:.3e}")
        try:
            drho, dg, u_inf = rhs(state)
            raw = _raw_dt(state, ctl, u_inf)
            if raw < ctl.dt_min:
                return outcome(RunStatus.BLOWUP, f"stable step collapsed to {raw:.3e}")
            dt = min(raw, ctl.dt_max, ctl.t_end - state.t)
            state = step_ssprk3(state, dt, (drho, dg))
        except VacuumError as exc:
            return outcome(RunStatus.VACUUM, str(exc))
        except (NonFiniteError, MeanViolationError, FloatingPointError) as exc:
            return outcome(RunStatus.NAN, str(exc))
        del drho, dg  # the stage arrays of the finished step
        steps += 1
        prev_sq = grad_inf**2
        grad_inf = state.drho_inf
        bkm += 0.5 * (prev_sq + grad_inf**2) * dt
        for m in monitors:
            m(steps, state)
    return outcome(RunStatus.COMPLETED)

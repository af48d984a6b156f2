"""Explicit time integration with stability-bounded steps and detection.

SSP-RK3 (Shu-Osher) over the transport form of the dynamics. Steps are
capped by an advective CFL bound and a fractional-diffusion bound; the
run loop watches for vacuum, non-finite values, and blow-up indicators
(collapsing dt, runaway density or gradient, or a capped accumulation of
the squared-gradient history).

The dynamics act on one (2, n) block whose rows are rho and g
(``model.rhs_block``). The run loop evaluates the first RK stage itself:
the same call gives sup |u| for the advective step bound and the stage-1
derivative block that ``step_ssprk3`` then consumes, so each step costs
three evaluations and no separate velocity recovery. Each stage updates
the whole block with one call per operation. The two inner stages are
checked by ``model.check_fields`` on the rows of their block, and only the
accepted state is a new ``SimState``, whose construction runs the same
check, so a step checks three sets of fields. The accepted state carries
the result block, which the next step's first stage reads without a copy.

Right after a step, before its monitors, the loop evaluates the next
step's first stage. That evaluation's velocity transform carries
d rho/dx as a second row, whose sup becomes the accepted state's
``drho_inf``: the gradient detector and monitors such as the diagnostics
recorder read it without another transform. The detectors still run in
the same order, at the top of the next step, on the same values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import (  # noqa: F401  (rhs: perfbench traces integrator.rhs)
    NonFiniteError,
    SimState,
    VacuumError,
    check_fields,
    recover_velocity,
    rhs,
    rhs_block,
    spectral_plan,
)
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


class _DtConstants(NamedTuple):
    """The factors of the CFL bounds that are fixed for a run (see ``_raw_dt``)."""

    adv: float  # cfl_advect dx
    dif: float  # cfl_diffuse dx^alpha
    rho_scale: float  # (2 pi)^alpha c
    psi_l: float  # sup psi_l rho_bar
    forcing: float  # (|k| + sup |K_reg''|) rho_bar


def _dt_constants(state: SimState, ctl: StepControl) -> _DtConstants:
    kern, pot = state.kernel, state.potential
    dx = state.grid.dx
    return _DtConstants(
        adv=ctl.cfl_advect * dx,
        dif=ctl.cfl_diffuse * dx**kern.alpha,
        rho_scale=(2 * np.pi) ** kern.alpha * kern.c,
        psi_l=kern.psi_l.sup_norm() * state.rho_bar,
        forcing=(abs(pot.k) + pot.kreg.second_derivative_sup) * state.rho_bar,
    )


def _raw_dt(dc: _DtConstants, rho_max: float, u_inf: float) -> float:
    """CFL bounds of a state with max density rho_max and sup |u| = u_inf."""
    dt_adv = dc.adv / u_inf if u_inf > 0 else math.inf
    denom = dc.rho_scale * rho_max
    denom += dc.psi_l
    denom += dc.forcing
    dt_dif = dc.dif / denom if denom > 0 else math.inf
    return min(dt_adv, dt_dif)


def stable_dt(state: SimState, ctl: StepControl) -> float:
    """Stability-bounded step: min of the CFL bounds and dt_max, clamped
    below by dt_min. Recovers the velocity of the state, which was checked
    when it was built, so it raises nothing."""
    u_inf = float(np.max(np.abs(recover_velocity(state))))
    raw = _raw_dt(_dt_constants(state, ctl), float(np.max(state.rho)), u_inf)
    return max(min(raw, ctl.dt_max), ctl.dt_min)


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


def step_ssprk3(state: SimState, dt: float, k1: np.ndarray | None = None) -> SimState:
    """One three-stage strong-stability-preserving RK3 update.

    ``k1`` is the stage-1 derivative block of ``model.rhs_block`` on the
    state's block when the caller has it already; it then holds the stage
    values and is overwritten. Each stage works on whole (2, n) blocks. The
    two inner stages' rows are checked by ``model.check_fields``, and the
    result's when its ``SimState`` is built, so a stage that leaves the
    valid region raises there: VacuumError, NonFiniteError or
    MeanViolationError. The result carries its block for the next step.
    """
    x0 = state._block
    args = (spectral_plan(state.grid, state.kernel, state.potential), state.m0,
            state.rho_bar, state.potential.k)
    check = (state.t, state.rho_bar, state.grid, state.kernel)
    x = k1 if k1 is not None else rhs_block(x0, *args)[0]
    # stage 1: u1 = u0 + dt L(u0)
    x *= dt
    x += x0
    check_fields(x[0], x[1], *check)
    # stage 2, into the stage-1 block: u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))
    d = rhs_block(x, *args)[0]
    _stage2(x, d, x0, dt)
    del d
    check_fields(x[0], x[1], *check)
    # stage 3, into its own derivative block: (u0 + 2 (u2 + dt L(u2))) / 3
    d = rhs_block(x, *args)[0]
    _stage3(d, x, x0, dt)
    new = replace(state, rho=d[0], g=d[1], t=state.t + dt)
    vars(new)["_block"] = d
    return new


def run(state: SimState, ctl: StepControl, monitors: tuple = (),
        detection: DetectionThresholds = DetectionThresholds()) -> RunOutcome:
    """March the state to ctl.t_end or until a detector fires.

    Monitors are callables ``monitor(step, state)`` invoked after every
    accepted step (and once for the initial state); they own their own
    cadence decisions and see read-only snapshots.
    """
    steps = 0
    bkm = 0.0
    dc = _dt_constants(state, ctl)
    plan = spectral_plan(state.grid, state.kernel, state.potential)

    def stage1(s):
        # the next step's first stage, whose velocity transform also gives
        # s.drho_inf; None when no step follows
        if s.t >= ctl.t_end - 1e-12:
            return None
        d, u_inf, vars(s)["drho_inf"] = rhs_block(s._block, plan, s.m0, s.rho_bar,
                                                  s.potential.k, drho=True)
        return d, u_inf

    k1 = stage1(state)
    grad_inf = state.drho_inf
    for m in monitors:
        m(0, state)

    def outcome(status, detail=""):
        log = next((m.log for m in monitors if hasattr(m, "log")), None)
        return RunOutcome(status=status, t_final=state.t, steps=steps,
                          state=state, detail=detail, log=log)

    while k1 is not None:
        rho_max = float(np.max(state.rho))
        if rho_max > detection.rho_max_factor * state.rho_bar:
            return outcome(RunStatus.BLOWUP, f"max density {rho_max:.3e}")
        if grad_inf > detection.grad_rho_max:
            return outcome(RunStatus.BLOWUP, f"density gradient {grad_inf:.3e}")
        if bkm > detection.bkm_cap:
            return outcome(RunStatus.BLOWUP, f"squared-gradient accumulation {bkm:.3e}")
        try:
            d, u_inf = k1
            raw = _raw_dt(dc, rho_max, u_inf)
            if raw < ctl.dt_min:
                return outcome(RunStatus.BLOWUP, f"stable step collapsed to {raw:.3e}")
            dt = min(raw, ctl.dt_max, ctl.t_end - state.t)
            state = step_ssprk3(state, dt, d)
            del k1, d  # the stage block of the finished step
            k1 = stage1(state)
        except VacuumError as exc:
            return outcome(RunStatus.VACUUM, str(exc))
        except (NonFiniteError, MeanViolationError, FloatingPointError) as exc:
            return outcome(RunStatus.NAN, str(exc))
        steps += 1
        prev_sq = grad_inf**2
        grad_inf = state.drho_inf
        bkm += 0.5 * (prev_sq + grad_inf**2) * dt
        for m in monitors:
            m(steps, state)
    return outcome(RunStatus.COMPLETED)

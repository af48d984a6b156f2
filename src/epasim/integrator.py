"""Explicit time integration with stability-bounded steps and detection.

SSP-RK3 (Shu-Osher) over the transport form of the dynamics. Steps are
capped by four bounds (``_raw_dt``); the run loop watches for vacuum,
non-finite values, and blow-up indicators (collapsing dt, runaway density
or gradient, or a capped accumulation of the squared-gradient history).

- Advective: dt sup |u| <= cfl_advect dx.
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

The run loop advances the spectrum of the fields: the (2, n/2 + 1) rfft
of a state's (2, n) block x, whose rows are rho and g. It transforms the
initial block forward once, and evaluates the dynamics on the spectrum
(``model.rhs_spectrum``), so no evaluation transforms its fields forward
or its derivatives back. The SSP-RK3 combinations update whole complex
blocks in place. An evaluation makes 2 FFT calls over 3 transforms, the
velocity irfft and the flux rfft, and a step makes 9 calls over 16
transforms:

- each inner stage: one irfft of its spectrum gives its fields (2
  transforms), which ``model.check_fields`` checks before the evaluation
  reads them, then the velocity irfft (1) and the flux rfft (2);
- the accepted state: one irfft of the new spectrum (2), whose rows are
  the fields of a new ``SimState``; building it runs the same check, so a
  step checks three sets of fields;
- the next step's first stage, evaluated right after, before the monitors:
  the velocity irfft, which carries d rho/dx as a second row (2), and the
  flux rfft (2). Its sup |u| sets the advective bound of that step, its
  derivative spectrum is that step's stage 1, and the sup of d rho/dx
  becomes the accepted state's ``drho_inf``: the gradient detector and
  monitors such as the diagnostics recorder read it without another
  transform. The detectors still run at the top of the next step.

During a step the loop holds the spectrum and no state. A failed step
reports the last accepted state, rebuilt from its spectrum, bit for bit the
one the monitors saw (irfft works row by row), or the caller's own state
when the first step fails.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import KernelSpec, PotentialSpec
from .model import (
    NonFiniteError,
    SimState,
    SpectralPlan,
    VacuumError,
    check_fields,
    rhs_spectrum,
    spectral_plan,
)
from .spectral import Grid, MeanViolationError

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

    cfl_advect is the Courant number of the advective bound. cfl_diffuse
    is the fraction of SSP-RK3's stability limits that the stiff and the
    non-stiff bounds allow: of R ~ 2.5127 on the real axis for the singular
    term's largest rate, and of sqrt(3) in the left half-plane for the
    bounded rates. A fifth of it caps the potential's phase per step,
    dt omega, for accuracy (see the module docstring).
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
    """The factors of the step bounds that are fixed for a run (see ``_raw_dt``)."""

    adv: float  # cfl_advect dx
    stiff: float  # cfl_diffuse R / (c (2 pi k_c)^alpha), inf for c = 0
    nonstiff: float  # cfl_diffuse sqrt(3)
    phase: float  # cfl_diffuse / 5
    damping: float  # sup psi_l rho_bar
    stiffness: float  # sqrt(|k| + sup |K_reg''|), omega / sqrt(max rho)


def _dt_constants(state: SimState, ctl: StepControl) -> _DtConstants:
    kern, pot = state.kernel, state.potential
    # SSP-RK3's stability polynomial is -1 at z = -R, the real root of
    # z^3 + 3 z^2 + 6 z + 12 = 0 (Cardano); the left half of the disc
    # |z| <= sqrt(3) lies inside its stability region
    real_limit = 1 + np.cbrt(4 + math.sqrt(17)) - np.cbrt(math.sqrt(17) - 4)
    stiff_rate = kern.c * (2 * np.pi * (state.grid.n // 3)) ** kern.alpha
    return _DtConstants(
        adv=ctl.cfl_advect * state.grid.dx,
        stiff=ctl.cfl_diffuse * float(real_limit) / stiff_rate if stiff_rate > 0 else math.inf,
        nonstiff=ctl.cfl_diffuse * math.sqrt(3),
        phase=ctl.cfl_diffuse / 5,
        damping=kern.psi_l.sup_norm() * state.rho_bar,
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
    # d <- (x0 + 2 (x + dt d)) / 3, in place
    d *= dt
    d += x
    d *= 2.0
    d += x0
    d /= 3.0


class _Problem(NamedTuple):
    """What a step reads of its problem besides the spectrum: fixed for a run."""

    plan: SpectralPlan
    m0: float
    rho_bar: float
    grid: Grid
    kernel: KernelSpec
    potential: PotentialSpec


def _accepted(spec: np.ndarray, t: float, prob: _Problem) -> SimState:
    # the state at time t whose fields are the rows of one irfft of spec;
    # building it checks them
    return SimState(prob.grid, np.fft.irfft(spec, n=prob.grid.n), t, prob.rho_bar, prob.m0,
                    prob.kernel, prob.potential)


def _stage_fields(x: np.ndarray, t: float, prob: _Problem) -> np.ndarray:
    # the fields of an inner stage: one irfft of its spectrum x, checked
    # before the evaluation reads them
    f = np.fft.irfft(x, n=prob.grid.n)
    check_fields(f, t, prob.rho_bar, prob.grid, prob.kernel)
    return f


def _stage_rhs(x: np.ndarray, t: float, prob: _Problem) -> np.ndarray:
    # the derivative spectrum of an inner stage; its fields are passed as a
    # temporary, not a name, so the evaluation frees them once it has
    # transformed the fluxes it writes into them
    return rhs_spectrum(x, _stage_fields(x, t, prob), prob.plan, prob.m0, prob.rho_bar,
                        prob.potential.k)[0]


def step_ssprk3(x0: np.ndarray, d: np.ndarray, dt: float, t: float, prob: _Problem) -> np.ndarray:
    """One three-stage strong-stability-preserving RK3 update of a spectrum.

    x0 is the (2, n/2 + 1) spectrum of a valid state at time t and d its
    stage-1 derivative spectrum from ``model.rhs_spectrum``, which then
    holds the stage values and is overwritten. Returns the new spectrum.
    The stages combine whole complex blocks. Each inner stage's fields, one
    irfft of its spectrum, are checked by ``model.check_fields`` before the
    evaluation reads them (FFT budget: see the module docstring), so a
    stage that leaves the valid region raises there: VacuumError,
    NonFiniteError or MeanViolationError. The result is checked when the
    run loop builds its state.
    """
    # stage 1: u1 = u0 + dt L(u0)
    x = d
    x *= dt
    x += x0
    # stage 2, into the stage-1 block: u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))
    d = _stage_rhs(x, t, prob)
    _stage2(x, d, x0, dt)
    del d
    # stage 3, into its own derivative block: (u0 + 2 (u2 + dt L(u2))) / 3
    d = _stage_rhs(x, t, prob)
    _stage3(d, x, x0, dt)
    return d


def run(state: SimState, ctl: StepControl, monitors: tuple = (),
        detection: DetectionThresholds = DetectionThresholds()) -> RunOutcome:
    """March the state to ctl.t_end or until a detector fires.

    Monitors are callables ``monitor(step, state)`` invoked after every
    accepted step (and once for the initial state); they own their own
    cadence decisions and see read-only snapshots. When a step fails, the
    outcome carries the last accepted state (see the module docstring).
    """
    steps = 0
    bkm = 0.0
    dc = _dt_constants(state, ctl)
    prob = _Problem(spectral_plan(state.grid, state.kernel, state.potential), state.m0,
                    state.rho_bar, state.grid, state.kernel, state.potential)
    initial = state

    def stage1(s, spec):
        # the next step's first stage, whose velocity transform also gives
        # s.drho_inf; None when no step follows
        if s.t >= ctl.t_end - 1e-12:
            return None
        d, u_inf, vars(s)["drho_inf"] = rhs_spectrum(spec, s.x, prob.plan, prob.m0,
                                                     prob.rho_bar, prob.potential.k, drho=True)
        return d, u_inf

    def outcome(status, detail=""):
        log = next((m.log for m in monitors if hasattr(m, "log")), None)
        return RunOutcome(status=status, t_final=state.t, steps=steps,
                          state=state, detail=detail, log=log)

    spec = np.fft.rfft(state.x)
    k1 = stage1(state, spec)
    grad_inf = state.drho_inf
    for m in monitors:
        m(0, state)

    while k1 is not None:
        rho_max = float(state.rho.max())
        if rho_max > detection.rho_max_factor * state.rho_bar:
            return outcome(RunStatus.BLOWUP, f"max density {rho_max:.3e}")
        if grad_inf > detection.grad_rho_max:
            return outcome(RunStatus.BLOWUP, f"density gradient {grad_inf:.3e}")
        if bkm > detection.bkm_cap:
            return outcome(RunStatus.BLOWUP, f"squared-gradient accumulation {bkm:.3e}")
        t = state.t
        try:
            d, u_inf = k1
            k1 = None
            raw = _raw_dt(dc, rho_max, u_inf)
            if raw < ctl.dt_min:
                return outcome(RunStatus.BLOWUP, f"stable step collapsed to {raw:.3e}")
            dt = min(raw, ctl.dt_max, ctl.t_end - t)
            state = None  # no physical copy of the accepted state during the step
            new = step_ssprk3(spec, d, dt, t, prob)
            del d  # the stage block of the finished step
            state = _accepted(new, t + dt, prob)
            spec = new
            k1 = stage1(state, spec)
        except (VacuumError, NonFiniteError, MeanViolationError, FloatingPointError) as exc:
            if state is None:  # the last accepted state, as the monitors saw it
                if steps == 0:
                    state = initial
                else:
                    state = _accepted(spec, t, prob)
                    vars(state)["drho_inf"] = grad_inf
            status = RunStatus.VACUUM if isinstance(exc, VacuumError) else RunStatus.NAN
            return outcome(status, str(exc))
        steps += 1
        prev_sq = grad_inf**2
        grad_inf = state.drho_inf
        bkm += 0.5 * (prev_sq + grad_inf**2) * dt
        for m in monitors:
            m(steps, state)
    return outcome(RunStatus.COMPLETED)

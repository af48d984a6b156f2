"""The three workloads of the epasim benchmark and their output checks.

Each workload turns a seed into a sequence of problem instances (see
``instances``). Instance 0 is the unjittered problem; for solve-4096 and
verify-1024 its outputs are also compared with ``reference.json``. Every
later instance jitters the inputs and is checked against oracles
recomputed from those inputs. All three run in one process on one thread.

Every call into epasim goes through the module attribute (for example
``integrator.run``), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from epasim import diagnostics, integrator, kernels, model, spectral

# Reference problem: cosine preset, c = 1, alpha = 0.5, psi_L = 0.5 + 0.2 cos,
# Newtonian k = 1 and a cosine K_reg of amplitude 0.05.
REF_RHO_AMP = 0.5
REF_U_AMP = 0.5
JITTER = 0.1  # relative jitter of every generated amplitude

# Data-driven gauge for verify-1024. The certified parameters give B = inf
# on this problem, so moc_min_b would stop after two checks and never bisect.
GAUGE = dict(delta=0.1, gamma=0.029, b=1e14, alpha=0.5)
MIN_B_RTOL = 0.01  # moc_min_b's default bisection tolerance

# Relative sup-norm tolerance of the final (rho, g) of solve-4096 against
# the stored reference. Reordering floating-point sums moves the result by
# about 1e-13; a wrong right-hand side moves it by far more than 1e-8.
STATE_RTOL = 1e-8

# sweep-256: burgers-shock data with constant psi_L = a. For c = 0 the flow
# blows up iff 2 pi A > a rho_bar (Carrillo, Choi, Tadmor & Tan, 2016).
SWEEP_A = 0.5
SWEEP_RHO_BAR = 1.0
SWEEP_RATIOS = (0.5, 0.9, 3.0, 6.0)  # 2 pi A / (a rho_bar)
# Jittered ratios stay below 0.95 or above 2.7: at 2.7 the Riccati time
# t* = 0.93 still lies before t_end = 1, so a supercritical run must stop.
SUB_MAX = 0.95
SUPER_MIN = 2.7
SWEEP_T_END = 1.0
SWEEP_GRAD_MAX = 1e3


@dataclass
class Job:
    """One call of ``integrator.run`` with everything it needs."""

    state: model.SimState
    ctl: integrator.StepControl
    detection: integrator.DetectionThresholds = integrator.DetectionThresholds()
    recorder: diagnostics.DiagnosticsRecorder | None = None
    bounds: diagnostics.BoundConstants | None = None
    info: dict = field(default_factory=dict)


class StepClock:
    """Monitor that stamps the clock after each accepted step.

    It runs after every other monitor, so the gap between two stamps is the
    time of one step with its detectors and monitors.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def __call__(self, step: int, state: model.SimState) -> None:
        self.stamps.append(time.perf_counter())


@dataclass
class Execution:
    wall_s: float
    step_s: list[float]
    outcomes: list


def execute(jobs: list[Job]) -> Execution:
    """Run every job; wall time counts only the time inside ``run``."""
    wall = 0.0
    step_s: list[float] = []
    outcomes = []
    for job in jobs:
        clock = StepClock()
        monitors = (job.recorder, clock) if job.recorder is not None else (clock,)
        t0 = time.perf_counter()
        out = integrator.run(job.state, job.ctl, monitors, job.detection)
        wall += time.perf_counter() - t0
        step_s.extend(np.diff(clock.stamps).tolist())
        outcomes.append(out)
    return Execution(wall, step_s, outcomes)


def clear_caches() -> None:
    """Empty epasim's memo tables, so each set-up starts as a fresh process would."""
    for mod in (spectral, kernels, model, integrator, diagnostics):
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def instances(workload, seed: int):
    """Yield the parameters of instance 0, 1, 2, ... for this seed.

    Instance 0 is nominal. Later instances come in antithetic pairs: the
    seed draws a jitter vector u in [-1, 1]^k, and the pair uses +u and -u.
    Each run then covers the jitter band evenly, so its median work stays
    close to the nominal work whatever the seed.
    """
    rng = np.random.default_rng(seed)
    yield workload.params(None)
    while True:
        u = rng.uniform(-1.0, 1.0, size=workload.draws)
        yield workload.params(u)
        yield workload.params(-u)


def reference_problem(n: int, rho_amp: float, u_amp: float) -> model.SimState:
    kernel = kernels.KernelSpec(
        c=1.0, alpha=0.5, psi_l=kernels.LipschitzKernel("cosine", a=0.5, b=0.2)
    )
    potential = kernels.PotentialSpec(k=1.0, kreg=kernels.RegularPotential("cosine", amp=0.05))
    return model.make_initial("cosine", spectral.Grid(n), kernel, potential,
                              rho_amp=rho_amp, u_amp=u_amp)


def _sup_rel(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


class Checks:
    """Tally of output checks; each failure keeps a one-line reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Solve:
    """Reference problem at n = 4096 with no monitors: FFT-bound."""

    name = "solve-4096"
    n = 4096
    t_end = 0.08

    draws = 2

    def params(self, u: np.ndarray | None) -> dict:
        if u is None:
            return {"rho_amp": REF_RHO_AMP, "u_amp": REF_U_AMP}
        return {"rho_amp": REF_RHO_AMP * (1.0 + JITTER * u[0]),
                "u_amp": REF_U_AMP * (1.0 + JITTER * u[1])}

    def setup(self, p: dict) -> list[Job]:
        state = reference_problem(self.n, p["rho_amp"], p["u_amp"])
        return [Job(state, integrator.StepControl(t_end=self.t_end))]

    def check(self, jobs: list[Job], ex: Execution, ref: dict | None, checks: Checks) -> None:
        # Mass and momentum need no check of their own: SimState.validate
        # rejects a mass drift on every step, which ends the run with status
        # NAN, and recover_velocity pins the momentum by construction.
        out = ex.outcomes[0]
        s = out.state
        checks.expect(out.status is integrator.RunStatus.COMPLETED,
                      f"{self.name}: status {out.status.name}: {out.detail}")
        if ref is not None:
            stride = self.n // len(ref["rho"])
            err = max(_sup_rel(s.rho[::stride], np.asarray(ref["rho"])),
                      _sup_rel(s.g[::stride], np.asarray(ref["g"])))
            checks.expect(err <= STATE_RTOL and out.steps == ref["steps"],
                          f"{self.name}: final state off the reference by {err:.3e} "
                          f"after {out.steps} steps (reference {ref['steps']})")

    def reference(self, jobs: list[Job], ex: Execution, samples: int = 256) -> dict:
        s = ex.outcomes[0].state
        stride = self.n // samples
        return {"steps": ex.outcomes[0].steps,
                "rho": s.rho[::stride].tolist(), "g": s.g[::stride].tolist()}


class Verify:
    """Reference problem at n = 1024 with the bound-checking recorder."""

    name = "verify-1024"
    n = 1024
    t_end = 0.1

    draws = 2

    def params(self, u: np.ndarray | None) -> dict:
        if u is None:
            return {"rho_amp": REF_RHO_AMP, "u_amp": REF_U_AMP}
        # rho_amp is jittered downward only, within [-10 %, 0]: the fixed
        # gauge admits the reference data with a factor 2.4 to spare in B at
        # t = 0, and each +1 % of density oscillation costs a factor of ~1.4.
        return {"rho_amp": REF_RHO_AMP * (1.0 - 0.5 * JITTER * (1.0 + u[0])),
                "u_amp": REF_U_AMP * (1.0 + JITTER * u[1])}

    def setup(self, p: dict) -> list[Job]:
        state = reference_problem(self.n, p["rho_amp"], p["u_amp"])
        bounds = diagnostics.bound_constants(state)
        gauge = diagnostics.ModulusParams(**GAUGE)
        recorder = diagnostics.DiagnosticsRecorder(bounds=bounds, moc=gauge, moc_every=10)
        return [Job(state, integrator.StepControl(t_end=self.t_end),
                    recorder=recorder, bounds=bounds)]

    def check(self, jobs: list[Job], ex: Execution, ref: dict | None, checks: Checks) -> None:
        out, job = ex.outcomes[0], jobs[0]
        checks.expect(out.status is integrator.RunStatus.COMPLETED,
                      f"{self.name}: status {out.status.name}: {out.detail}")
        log = out.log
        for fn in (diagnostics.check_lower_envelope, diagnostics.check_upper_envelope,
                   diagnostics.check_f_bound):
            rep = fn(log, job.bounds)
            checks.expect(rep.passed, f"{self.name}: {fn.__name__} margin {rep.margin!r} "
                                      f"at t={rep.worst_t!r}")
        moc = log.column("moc_pass")
        moc = moc[~np.isnan(moc)]
        checks.expect(moc.size > 0 and bool(np.all(moc == 1.0)),
                      f"{self.name}: moc_pass {moc.tolist()}")
        if ref is not None:
            min_b = log.column("moc_min_b")
            min_b = min_b[~np.isnan(min_b)]
            want = np.asarray(ref["moc_min_b"])
            ok = min_b.shape == want.shape and bool(
                np.all(np.abs(np.log(min_b / want)) <= math.log1p(MIN_B_RTOL) * (1 + 1e-9)))
            checks.expect(ok, f"{self.name}: moc_min_b {min_b.tolist()} "
                              f"off the reference {want.tolist()}")

    def reference(self, jobs: list[Job], ex: Execution) -> dict:
        min_b = ex.outcomes[0].log.column("moc_min_b")
        return {"moc_min_b": min_b[~np.isnan(min_b)].tolist()}


class Sweep:
    """The dichotomy as a phase sweep: 4 ratios, each with c = 0 and c = 1."""

    name = "sweep-256"
    n = 256

    draws = len(SWEEP_RATIOS)

    def params(self, u: np.ndarray | None) -> dict:
        if u is None:
            return {"ratios": list(SWEEP_RATIOS)}
        ratios = [r * (1.0 + JITTER * x) for r, x in zip(SWEEP_RATIOS, u)]
        return {"ratios": [min(r, SUB_MAX) if r < 1.0 else max(r, SUPER_MIN) for r in ratios]}

    def setup(self, p: dict) -> list[Job]:
        jobs = []
        for ratio in p["ratios"]:
            for c in (0.0, 1.0):
                kernel = kernels.KernelSpec(
                    c=c, alpha=0.5, psi_l=kernels.LipschitzKernel("constant", a=SWEEP_A))
                u_amp = ratio * SWEEP_A * SWEEP_RHO_BAR / (2.0 * math.pi)
                state = model.make_initial("burgers-shock", spectral.Grid(self.n), kernel,
                                           rho_base=SWEEP_RHO_BAR, u_amp=u_amp)
                jobs.append(Job(state, integrator.StepControl(t_end=SWEEP_T_END),
                                integrator.DetectionThresholds(grad_rho_max=SWEEP_GRAD_MAX),
                                info={"c": c, "u_amp": u_amp}))
        return jobs

    def check(self, jobs: list[Job], ex: Execution, ref: dict | None, checks: Checks) -> None:
        for job, out in zip(jobs, ex.outcomes):
            c, amp = job.info["c"], job.info["u_amp"]
            tag = f"{self.name}: c={c:g} A={amp:.4f}"
            if c > 0:
                checks.expect(out.status is integrator.RunStatus.COMPLETED,
                              f"{tag}: status {out.status.name}: {out.detail}")
                continue
            drive = 2.0 * math.pi * amp  # 2 pi A
            damp = SWEEP_A * job.state.rho_bar  # a rho_bar
            supercritical = drive > damp
            want = (integrator.RunStatus.BLOWUP if supercritical
                    else integrator.RunStatus.COMPLETED)
            checks.expect(out.status is want,
                          f"{tag}: status {out.status.name}, not {want.name}, at "
                          f"2 pi A / a rho_bar = {drive / damp:.3f}: {out.detail}")
            if supercritical and out.status is want:
                t_star = math.log(drive / (drive - damp)) / damp
                checks.expect(out.t_final < t_star,
                              f"{tag}: blow-up detected at t={out.t_final!r}, "
                              f"after the Riccati time {t_star!r}")

WORKLOADS = {w.name: w for w in (Solve(), Verify(), Sweep())}

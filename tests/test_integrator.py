import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from epasim import integrator, model
from epasim.diagnostics import (
    DiagnosticsRecorder,
    ModulusParams,
    bound_constants,
    check_f_bound,
    check_lower_envelope,
    check_upper_envelope,
)
from epasim.integrator import (
    DetectionThresholds,
    RunStatus,
    StepControl,
    run,
    stable_dt,
    step_ssprk3,
)
from epasim.kernels import KernelSpec, LipschitzKernel, PotentialSpec, RegularPotential
from epasim.model import (
    NonFiniteError,
    SimState,
    VacuumError,
    compute_g,
    make_initial,
    rhs,
    rhs_block,
    spectral_plan,
)
from epasim.spectral import Grid, derivative, mean, to_spectrum
from conftest import KERNEL_POTENTIAL_PAIRS
from oracles import reference_step

EA = KernelSpec(c=1.0, alpha=0.5)
OFF = KernelSpec(c=0.0, alpha=0.5)


def test_stable_dt_diffusive_formula():
    g = Grid(64)
    st = make_initial("uniform", g, EA)
    ctl = StepControl(t_end=1.0)
    expect = 0.3 * g.dx**0.5 / (2 * np.pi) ** 0.5
    assert stable_dt(st, ctl) == pytest.approx(expect, rel=1e-12)


def test_stable_dt_advective_halves_with_resolution():
    ctl = StepControl(t_end=1.0, dt_max=1.0)
    dts = []
    for n in (64, 128):
        g = Grid(n)
        st = make_initial("burgers-shock", g, OFF)
        dts.append(stable_dt(st, ctl))
    assert dts[0] == pytest.approx(2 * dts[1], rel=1e-6)
    assert dts[0] == pytest.approx(0.4 / 64, rel=1e-6)  # |u|_inf = 1


def test_stable_dt_capped_by_dt_max():
    g = Grid(64)
    st = make_initial("uniform", g, OFF)  # no motion at all: both bounds infinite
    ctl = StepControl(t_end=1.0, dt_max=0.05)
    assert stable_dt(st, ctl) == 0.05


def test_stable_dt_is_the_first_step_of_run():
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=0.2))
    states = (make_initial("cosine", Grid(64), EA, rho_amp=0.3, u_amp=0.4),
              make_initial("cosine", Grid(128), kernel, PotentialSpec(k=1.0), rho_amp=0.5,
                           u_amp=0.5),
              make_initial("burgers-shock", Grid(64), OFF))
    for st in states:
        dt = stable_dt(st, StepControl(t_end=1.0, dt_max=1.0))
        assert 1e-12 < dt < 1.0
        times = []
        run(st, StepControl(t_end=1.5 * dt, dt_max=1.0),
            monitors=(lambda k, s: times.append(s.t),))
        assert times[1] == dt


def test_stable_dt_raises_at_density_floor():
    # the state at the floor is refused when it is built, before stable_dt
    g = Grid(64)
    st = make_initial("uniform", g, EA)
    rho = st.rho.copy()
    rho[5] = 1e-9
    with pytest.raises(VacuumError):
        stable_dt(replace(st, rho=rho), StepControl(t_end=1.0))


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt_min=1.0, dt_max=0.5)


def test_step_equilibrium_fixed_point():
    g = Grid(64)
    st = make_initial("uniform", g, EA, rho_base=1.5)
    new = step_ssprk3(st, 0.01)
    assert new.t == pytest.approx(0.01)
    np.testing.assert_allclose(new.rho, st.rho, atol=1e-14)
    np.testing.assert_allclose(new.g, st.g, atol=1e-14)


def test_step_matches_rk3_linear_decay_polynomial():
    # mode-1 perturbation with g = 0 decays like y' = -lambda y with
    # lambda = rho_bar (2 pi)^alpha; one RK3 step must reproduce the cubic
    # Taylor polynomial of exp(-z) and miss it only at O(z^4)
    g = Grid(64)
    eps = 1e-6
    rho = 1.0 + eps * np.cos(2 * np.pi * g.x)
    st = SimState(grid=g, rho=rho, g=np.zeros(64), t=0.0, rho_bar=mean(rho),
                  m0=0.0, kernel=EA, potential=PotentialSpec())
    dt = 0.2
    lam = (2 * np.pi) ** 0.5
    z = lam * dt
    new = step_ssprk3(st, dt)
    amp0 = 2 * abs(to_spectrum(st.rho, g)[1])
    amp1 = 2 * abs(to_spectrum(new.rho, g)[1])
    ratio = amp1 / amp0
    poly = 1 - z + z**2 / 2 - z**3 / 6
    assert ratio == pytest.approx(poly, abs=5e-7)
    assert abs(ratio - np.exp(-z)) <= 2 * z**4 / 24


def test_step_self_convergence_third_order():
    g = Grid(64)
    st0 = make_initial("cosine", g, EA, rho_amp=0.3, u_amp=0.2,
                       potential=None)

    def integrate(dt, t_end=0.25):
        st = st0
        steps = round(t_end / dt)
        for _ in range(steps):
            st = step_ssprk3(st, dt)
        return st.rho

    dt = 0.01  # divides t_end exactly so all runs compare at the same time
    ref = integrate(dt / 8)
    err1 = np.max(np.abs(integrate(dt) - ref))
    err2 = np.max(np.abs(integrate(dt / 2) - ref))
    assert err1 / err2 == pytest.approx(8.0, abs=1.0)


def test_run_equilibrium_completes():
    g = Grid(64)
    st = make_initial("uniform", g, EA)
    out = run(st, StepControl(t_end=1.0))
    assert out.status is RunStatus.COMPLETED
    assert out.t_final >= 1.0 - 1e-12
    assert out.steps > 0


def test_run_monitor_called_every_step():
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.2)
    seen = []
    out = run(st, StepControl(t_end=0.05), monitors=(lambda k, s: seen.append((k, s.t)),))
    assert out.completed
    assert seen[0][0] == 0 and seen[-1][0] == out.steps
    assert len(seen) == out.steps + 1
    times = [t for _, t in seen]
    assert times == sorted(times)


def test_run_detects_density_threshold():
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.5)
    det = DetectionThresholds(rho_max_factor=1.2)
    out = run(st, StepControl(t_end=1.0), detection=det)
    assert out.status is RunStatus.BLOWUP
    assert out.steps == 0 and "density" in out.detail


def test_run_detects_vacuum(monkeypatch):
    # the compressive velocity thins the density minimum from 0.5 below the
    # raised floor within a few steps; a stage built below it ends the run
    st = make_initial("cosine", Grid(64), EA, rho_amp=0.5, u_amp=-0.5)
    monkeypatch.setattr(model, "RHO_FLOOR", 0.4)
    out = run(st, StepControl(t_end=1.0))
    assert out.status is RunStatus.VACUUM
    assert out.steps > 0 and out.t_final < 1.0
    assert "min density" in out.detail


def test_run_reports_broken_zero_mean_as_nan(monkeypatch):
    # a loose tolerance admits g with mean 1e-6; under the real one the
    # first stage state built from it is refused
    st = make_initial("cosine", Grid(64), EA, rho_amp=0.3, u_amp=0.2)
    with monkeypatch.context() as m:
        m.setattr(model, "MEAN_TOL", 1e-3)
        bad = replace(st, g=st.g + 1e-6)
    out = run(bad, StepControl(t_end=0.01))
    assert out.status is RunStatus.NAN
    assert out.steps == 0 and "is not zero" in out.detail


def test_run_bkm_cap_detector():
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.4, u_amp=0.3)
    det = DetectionThresholds(bkm_cap=1e-9)
    out = run(st, StepControl(t_end=1.0), detection=det)
    assert out.status is RunStatus.BLOWUP
    assert "accumulation" in out.detail


def test_run_mass_and_momentum_conserved():
    g = Grid(128)
    pot = PotentialSpec(k=1.0)
    st = make_initial("cosine", g, EA, rho_amp=0.4, u_amp=0.4, u_mean=0.25)
    st = SimState(grid=g, rho=st.rho, g=st.g, t=0.0, rho_bar=st.rho_bar, m0=st.m0,
                  kernel=st.kernel, potential=pot)
    masses, momenta = [], []

    def watch(_, s):
        from epasim.model import recover_velocity
        masses.append(mean(s.rho))
        momenta.append(mean(s.rho * recover_velocity(s)))

    out = run(st, StepControl(t_end=0.5), monitors=(watch,))
    assert out.completed
    assert max(abs(m - st.rho_bar) for m in masses) <= 1e-12
    assert max(abs(p - st.m0) for p in momenta) <= 1e-12 * max(1.0, abs(st.m0))


def counted(fn, box):
    def wrapper(*args, **kwargs):
        box["n"] += 1
        return fn(*args, **kwargs)
    return wrapper


def reference_problem_64():
    # reference problem: c = 1, alpha = 0.5, psi_l = 0.5 + 0.2 cos, k = 1, cosine K_reg
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=0.2))
    pot = PotentialSpec(k=1.0, kreg=RegularPotential(kind="cosine", amp=0.05))
    return make_initial("cosine", Grid(64), kernel, pot, rho_amp=0.5, u_amp=0.5)


def test_run_samples_gaussian_curvature_once(monkeypatch):
    # the curvature bound of a gaussian K_reg (13 x 4097 exponentials) is
    # sampled once per potential, and the run is the same as one that
    # samples it again on every read; the step bound reads it once per run
    cached = vars(RegularPotential)["second_derivative_sup"]
    sample, samples = cached.func, []

    def counted(kreg):
        samples.append(kreg)
        return sample(kreg)

    def gaussian_run():
        samples.clear()
        pot = PotentialSpec(k=1.0, kreg=RegularPotential(kind="gaussian", amp=0.05, width=0.1))
        st = make_initial("cosine", Grid(64), EA, pot, rho_amp=0.3, u_amp=0.4)
        return run(st, StepControl(t_end=0.08)), len(samples)

    monkeypatch.setattr(cached, "func", counted)
    once, sampled_once = gaussian_run()
    monkeypatch.setattr(RegularPotential, "second_derivative_sup", property(counted))
    each, sampled_each = gaussian_run()
    assert sampled_once == sampled_each == 1
    assert once.steps == each.steps == 20
    assert once.status is each.status is RunStatus.COMPLETED
    assert once.t_final == each.t_final
    assert np.array_equal(once.state.rho, each.state.rho)
    assert np.array_equal(once.state.g, each.state.g)


def count_ffts(monkeypatch):
    # calls of np.fft.rfft / irfft, and transforms: one per row of a call
    box = {"calls": 0, "transforms": 0}

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            box["calls"] += 1
            box["transforms"] += 1 if np.ndim(a) == 1 else len(a)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft))
    return box


def count_checks(monkeypatch):
    # calls of model.check_fields, the one field check: from SimState.validate
    # and from the inner RK stages
    box = {"n": 0}
    checking = counted(model.check_fields, box)
    monkeypatch.setattr(model, "check_fields", checking)
    monkeypatch.setattr(integrator, "check_fields", checking)
    return box


def assert_fft_budget(monkeypatch, monitors=()):
    # 3 evaluations of 4 FFT calls over 7 transforms, and stage 1's velocity
    # irfft carries d rho/dx as one more row: 12 calls and 22 transforms a
    # step. Only the final state, which no step follows, differentiates its
    # density on its own: 2 calls, once per run.
    st = reference_problem_64()
    rhs(st)  # builds the spectral plan outside the count
    dt = 0.5 * stable_dt(st, StepControl(t_end=1.0))
    evals = {"n": 0}
    ffts = count_ffts(monkeypatch)
    monkeypatch.setattr(integrator, "rhs_block", counted(integrator.rhs_block, evals))
    checks = count_checks(monkeypatch)
    out = run(st, StepControl(t_end=20 * dt, dt_max=dt), monitors=monitors)
    assert out.completed and out.steps == 20
    assert ffts == {"calls": 12 * out.steps + 2, "transforms": 22 * out.steps + 2}
    assert evals["n"] == 3 * out.steps
    # one check per stage: the two inner stages and the accepted state
    assert checks["n"] == 3 * out.steps


def test_run_fft_budget_per_step(monkeypatch):
    assert_fft_budget(monkeypatch)


def test_run_fft_budget_per_step_with_recorder(monkeypatch):
    # a recorder row recovers no velocity and reads the run loop's
    # |d rho/dx|_inf from the state, so it adds no FFT to a step
    gauge = ModulusParams(delta=0.1, gamma=0.029, b=1e14, alpha=0.5)
    rec = DiagnosticsRecorder(bound_constants(reference_problem_64()), gauge, moc_every=10)
    assert_fft_budget(monkeypatch, (rec,))
    assert len(rec.log.t) == 21 and np.sum(~np.isnan(rec.log.column("moc_pass"))) == 3


def test_rhs_and_recover_velocity_batch_their_transforms(monkeypatch):
    st = reference_problem_64()
    rhs(st)  # builds the spectral plan outside the count
    ffts = count_ffts(monkeypatch)
    model.recover_velocity(st)
    assert ffts == {"calls": 2, "transforms": 3}
    rhs(st)
    assert ffts == {"calls": 6, "transforms": 10}


class _Stop(Exception):
    pass


@pytest.mark.parametrize("kernel, potential", KERNEL_POTENTIAL_PAIRS)
def test_run_matches_the_reference_step_bit_for_bit(kernel, potential):
    # the block core, its in-place stages and the carried block give the
    # states of the SimState-per-stage route exactly, and so does a step
    # from a state whose fields are copied, separate arrays
    st = make_initial("cosine", Grid(64), kernel, potential, rho_amp=0.4, u_amp=0.3)
    ctl = StepControl(t_end=1.0)
    seen = []

    def watch(k, s):
        seen.append(s)
        if k == 20:
            raise _Stop

    with pytest.raises(_Stop):
        run(st, ctl, monitors=(watch,))
    ref = st
    for s, nxt in zip(seen, seen[1:]):
        dt = stable_dt(ref, ctl)
        ref = reference_step(ref, dt)
        copied = step_ssprk3(replace(s, rho=s.rho.copy(), g=s.g.copy()), dt)
        for got in (nxt, copied):
            assert got.t == ref.t
            assert np.array_equal(got.rho, ref.rho) and np.array_equal(got.g, ref.g)
    assert len(seen) == 21


def stage1_block(st):
    plan = spectral_plan(st.grid, st.kernel, st.potential)
    return rhs_block(st._block, plan, st.m0, st.rho_bar, st.potential.k, drho=True)[0]


def test_step_checks_stage_one_before_the_next_evaluation(monkeypatch):
    st = reference_problem_64()
    dt = 1e-3
    evals = {"n": 0}
    monkeypatch.setattr(integrator, "rhs_block", counted(integrator.rhs_block, evals))
    d = stage1_block(st)
    d[1, 5] = np.nan
    with pytest.raises(NonFiniteError):
        step_ssprk3(st, dt, d)
    # a derivative that empties one density sample, and nothing else
    d = np.zeros((2, st.grid.n))
    d[0, 7] = -st.rho[7] / dt
    with pytest.raises(VacuumError):
        step_ssprk3(st, dt, d)
    assert evals["n"] == 0


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("potential", [None, PotentialSpec(k=1.0)])
@pytest.mark.parametrize("with_recorder", [False, True])
def test_run_drho_inf_is_the_derivative_bit_for_bit(n, potential, with_recorder):
    # every accepted state's drho_inf comes from the next step's stage-1
    # velocity transform (the final state's from its own derivative), and
    # equals a fresh spectral derivative of its density exactly
    st = make_initial("cosine", Grid(n), EA, potential, rho_amp=0.4, u_amp=0.3)
    seen = []
    rec = DiagnosticsRecorder()
    monitors = (lambda k, s: seen.append((s, s.drho_inf)),) + ((rec,) if with_recorder else ())
    out = run(st, StepControl(t_end=0.05), monitors=monitors)
    assert out.completed and len(seen) == out.steps + 1 > 3
    fresh = [float(np.max(np.abs(derivative(s.rho, s.grid)))) for s, _ in seen]
    assert [d for _, d in seen] == fresh
    if with_recorder:
        log = rec.log
        assert log.drho_inf == fresh
        t = [s.t for s, _ in seen]
        bkm = [0.0]
        for i in range(1, len(t)):
            bkm.append(bkm[-1] + 0.5 * (fresh[i - 1] ** 2 + fresh[i] ** 2) * (t[i] - t[i - 1]))
        assert log.t == t and log.bkm == bkm


def _tracemalloc_peak(fn, n):
    # peak of the bytes that fn allocates, in units of n float64 values
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * n)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("potential", [PotentialSpec(), PotentialSpec(k=1.0)])
def test_step_and_rhs_peak_memory(potential):
    # the batched transforms do their elementwise work row by row: an
    # in-place op on a (2, n) block with an (n,) operand allocates a (2, n)
    # buffer, which would raise these peaks by 2 to 3 n-doubles
    n = 1024
    st = make_initial("cosine", Grid(n), EA, potential, rho_amp=0.4, u_amp=0.3)
    step_ssprk3(st, 1e-4)  # builds the spectral plan and the block outside the count
    assert _tracemalloc_peak(lambda: step_ssprk3(st, 1e-4), n) <= 8.2
    assert _tracemalloc_peak(lambda: rhs(st), n) <= 6.1
    # the run loop's path: a step's result, whose block the stage-1
    # derivative block is evaluated on, stepped with that block
    st = step_ssprk3(st, 1e-4)
    k1 = stage1_block(st)
    assert _tracemalloc_peak(lambda: step_ssprk3(st, 1e-4, k1), n) <= (
        6.1 if potential.k else 5.1)


# The paper's dichotomy on burgers-shock data with psi_L = a = 0.5 and
# rho_bar = 1, at the ratio r = 2 pi A / (a rho_bar) of the velocity
# amplitude A. Without alignment or potential the density blows up iff
# r > 1 (Carrillo, Choi, Tadmor & Tan, arXiv:1411.6287), before the Riccati
# time log(r / (r - 1)) / (a rho_bar).
DICHOTOMY_A = 0.5


def dichotomy_state(ratio, c, k):
    kernel = KernelSpec(c=c, alpha=0.5, psi_l=LipschitzKernel(kind="constant", a=DICHOTOMY_A))
    return make_initial("burgers-shock", Grid(128), kernel, PotentialSpec(k=k), rho_base=1.0,
                        u_amp=ratio * DICHOTOMY_A / (2 * np.pi))


def dichotomy_run(state, monitors=()):
    return run(state, StepControl(t_end=1.0), monitors, DetectionThresholds(grad_rho_max=1e3))


def test_dichotomy_without_alignment_blows_up_iff_supercritical():
    assert dichotomy_run(dichotomy_state(0.5, 0.0, 0.0)).status is RunStatus.COMPLETED
    t_blowup = {}
    for k in (-1.0, 0.0, 1.0):
        out = dichotomy_run(dichotomy_state(3.0, 0.0, k))
        assert out.status is RunStatus.BLOWUP, k
        t_blowup[k] = out.t_final
    assert t_blowup[0.0] < math.log(3.0 / 2.0) / DICHOTOMY_A  # 0.811
    # for k > 0 the source -k (rho - rho_bar) of g lowers u_x where rho is high
    assert t_blowup[1.0] < t_blowup[0.0] < t_blowup[-1.0]


@pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
def test_dichotomy_with_alignment_stays_regular(k):
    # the supercritical data of the test above, with c psi_alpha added
    state = dichotomy_state(3.0, 1.0, k)
    bounds = bound_constants(state)
    rec = DiagnosticsRecorder(bounds=bounds)
    out = dichotomy_run(state, (rec,))
    assert out.status is RunStatus.COMPLETED and out.t_final >= 1.0 - 1e-12
    for check in (check_lower_envelope, check_upper_envelope, check_f_bound):
        rep = check(rec.log, bounds)
        assert rep.passed, (check.__name__, rep)

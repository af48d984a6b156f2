import math
import sys

import numpy as np
import pytest

from epasim import integrator, model, spectral
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
    step_ssprk3,
)
from epasim.kernels import KernelSpec, LipschitzKernel, PotentialSpec, RegularPotential
from epasim.model import (
    NonFiniteError,
    Problem,
    SimState,
    VacuumError,
    make_initial,
    rhs,
    rhs_spectrum,
)
from epasim.spectral import Grid, derivative, mean, to_spectrum
from conftest import (
    KERNEL_POTENTIAL_PAIRS,
    clear_caches,
    memo_tables,
    tracemalloc_held,
    tracemalloc_peak,
)
from oracles import (
    characteristic_beta,
    dichotomy_bracket,
    legacy_stable_dt,
    ode_blowup_time,
    reference_step,
    spectral_reference_step,
    stable_dt,
    with_fields,
)

EA = KernelSpec(c=1.0, alpha=0.5)
OFF = KernelSpec(c=0.0, alpha=0.5)


def band_spectrum(st):
    # the band of the spectrum of the state's block, as the run loop carries it
    return np.fft.rfft(st.x)[:, :st.grid.band]


def stage1_spectrum(st, spec):
    # the run loop's first stage on the state st, whose block has band spec
    return rhs_spectrum(spec, st.x, st.problem, drho=True)[0]


def advance(st, dt, steps=1):
    # steps of a fixed size as the run loop takes them: the band of the
    # spectrum of the state's block, carried from step to step, and a state
    # per step
    spec = band_spectrum(st)
    for _ in range(steps):
        spec = step_ssprk3(spec, stage1_spectrum(st, spec), dt, st.t, st.problem)
        st = integrator._accepted(spec, st.t + dt, st.problem)
    return st


def ssprk3_real_limit():
    # -R, where the stability polynomial 1 + z + z^2/2 + z^3/6 takes the
    # value -1: the real root of z^3 + 3 z^2 + 6 z + 12
    roots = np.roots([1.0, 3.0, 6.0, 12.0])
    return -float(roots[np.argmin(np.abs(roots.imag))].real)


def test_stable_dt_diffusive_formula():
    # at rest only the stiff bound applies: dt c rho (2 pi k_c)^alpha is
    # cfl_diffuse R, with k_c = n // 3 = 21 the last mode the flux keeps
    g = Grid(64)
    st = make_initial("uniform", g, EA, rho_base=1.5)
    ctl = StepControl(t_end=1.0, dt_max=1.0)
    expect = 0.5 * ssprk3_real_limit() / (1.5 * (2 * np.pi * 21) ** 0.5)
    assert stable_dt(st, ctl) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("potential, bound", [
    # psi_l alone damps at sup psi_l rho_bar = 1.4: dt 1.4 is cfl_diffuse sqrt(3)
    (PotentialSpec(), 0.8 * math.sqrt(3) / 1.4),
    # a weak potential adds its frequency sqrt(|k| max rho) = 0.17 to that rate
    (PotentialSpec(k=-0.01), 0.8 * math.sqrt(3) / (1.4 + math.sqrt(0.03))),
    # a strong one oscillates at omega = sqrt((|k| + sup |K_reg''|) max rho)
    # = 2.99, and dt omega is capped at cfl_diffuse / 5 for accuracy
    (PotentialSpec(k=-1.0, kreg=RegularPotential(kind="cosine", amp=0.05)),
     0.8 / 5 / math.sqrt((1.0 + 0.05 * (2 * np.pi) ** 2) * 3.0)),
], ids=["psi_l", "weak-potential", "strong-potential"])
def test_stable_dt_non_stiff_formula(potential, bound):
    # without the singular part or motion only the bounded rates apply,
    # whatever the grid: psi_l's damping, whose convolution averages rho,
    # at rho_bar = 2, and the potential's frequency at max rho = 3
    kernel = KernelSpec(c=0.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=-0.2))
    ctl = StepControl(t_end=1.0, cfl_diffuse=0.8, dt_max=10.0)
    for n in (8, 64, 4096):
        st = make_initial("cosine", Grid(n), kernel, potential, rho_base=2.0, rho_amp=1.0)
        assert (st.rho_bar, np.max(st.rho)) == pytest.approx((2.0, 3.0), rel=1e-12)
        assert stable_dt(st, ctl) == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("n", [8, 64, 4096])
@pytest.mark.parametrize("kernel, potential", KERNEL_POTENTIAL_PAIRS)
def test_stable_dt_only_rises(kernel, potential, n):
    # the bound from SSP-RK3's stability region is never below the one it
    # replaced, so a run whose every step was advection-limited keeps its
    # trajectory bit for bit
    st = make_initial("cosine", Grid(n), kernel, potential, rho_amp=0.4, u_amp=0.3)
    ctl = StepControl(t_end=1.0, dt_max=1e3)
    assert stable_dt(st, ctl) >= legacy_stable_dt(st, ctl)


@pytest.mark.parametrize("n, alpha", [(64, 1.5), (256, 0.5), (1024, 0.9)])
@pytest.mark.parametrize("fraction", [0.9, 1.1])
def test_stiff_bound_is_the_stability_limit(n, alpha, fraction):
    # a mode-k_c density perturbation of a uniform c = 1 state, g kept at 0,
    # evolves by the linear rate -lambda = -c rho_bar (2 pi k_c)^alpha: the
    # dealiased flux drops its square at 2 k_c > n/3. Each step multiplies
    # its amplitude by P(-dt lambda), P(w) = 1 + w + w^2/2 + w^3/6, which
    # shrinks it below the derived limit and grows it above
    grid = Grid(n)
    kc = n // 3
    kernel = KernelSpec(c=1.0, alpha=alpha)
    rho = 1.0 + 1e-6 * np.cos(2 * np.pi * kc * grid.x)
    st = SimState(Problem(grid, kernel, PotentialSpec(), mean(rho), 0.0),
                  np.stack((rho, np.zeros(n))), 0.0)
    dt = stable_dt(st, StepControl(t_end=1.0, cfl_diffuse=fraction, dt_max=1.0))
    assert dt * np.max(rho) * (2 * np.pi * kc) ** alpha == pytest.approx(
        fraction * ssprk3_real_limit(), rel=1e-12)
    amp0 = abs(to_spectrum(st.rho, grid)[kc])
    st = advance(st, dt, 10)
    w = -dt * st.rho_bar * (2 * np.pi * kc) ** alpha
    growth = abs(1 + w + w**2 / 2 + w**3 / 6) ** 10
    assert abs(to_spectrum(st.rho, grid)[kc]) / amp0 == pytest.approx(growth, rel=1e-6)
    assert (growth < 0.011) if fraction < 1 else (growth > 45)


@pytest.mark.parametrize("fraction", [0.9, 1.1])
def test_advective_bound_is_the_linear_stability_limit(fraction):
    # c = 0, psi_l = 0 and no potential keep g at 0 and u at the uniform
    # u_mean, so a run is linear advection: mode k moves at z = i 2 pi k
    # u dt, and SSP-RK3 holds the imaginary axis up to sqrt(3), so the top
    # mode k_c = n // 3 of the band is stable for u dt / dx up to
    # sqrt(3) n / (2 pi k_c), 0.840 at n = 64. Below it no mode of the
    # band grows over 500 steps; above it the top mode grows from rounding
    n = 64
    limit = math.sqrt(3) * n / (2 * math.pi * (n // 3))
    st = make_initial("gaussian-bump", Grid(n), OFF, u_mean=0.7)
    top, size = [], []

    def watch(k, s):
        top.append(float(np.max(np.abs(s.spec[:, -1]))))
        size.append(float(np.linalg.norm(s.spec)))
        if k == 500:
            raise _Stop

    ctl = StepControl(t_end=1e3, cfl_advect=fraction * limit, dt_max=1.0)
    if fraction < 1:
        with pytest.raises(_Stop):
            run(st, ctl, monitors=(watch,))
        assert max(size) <= size[0] * (1 + 1e-12) and max(top) <= 1e-12 * size[0]
    else:
        out = run(st, ctl, monitors=(watch,))
        assert out.status in (RunStatus.VACUUM, RunStatus.NAN) or max(top) >= 1e6 * top[0]


def test_galilean_boost_converges_at_third_order_in_time():
    # Galilean invariance: adding U to the initial velocity translates the
    # solution by U t, on the band an exact phase e^{-2 pi i k U t}. dt_max
    # fixes every step of both runs, so the boosted run less the translated
    # unboosted one is SSP-RK3's time error alone, on the full nonlinear
    # reference problem; it falls 8.0x per halving of dt for rho and g
    n, boost, t_end = 256, 0.37, 0.2
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=0.2))
    pot = PotentialSpec(k=1.0, kreg=RegularPotential(kind="cosine", amp=0.05))
    modes = np.arange(Grid(n).band)
    errors = []
    for dt in (8e-4, 4e-4, 2e-4):
        rest, boosted = (run(make_initial("cosine", Grid(n), kernel, pot, rho_amp=0.5, u_amp=0.5,
                                          u_mean=u_mean), StepControl(t_end=t_end, dt_max=dt))
                         for u_mean in (0.0, boost))
        assert rest.status is boosted.status is RunStatus.COMPLETED
        assert rest.steps == boosted.steps and rest.t_final == boosted.t_final
        moved = spectral.irfft(rest.state.spec * np.exp(-2j * np.pi * modes * boost * rest.t_final),
                               n)
        errors.append([sup_rel(boosted.state.x[i], moved[i]) for i in (0, 1)])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((6.0 <= ratios) & (ratios <= 10.0)), ratios


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
        stable_dt(with_fields(st, rho=rho), StepControl(t_end=1.0))


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt_min=1.0, dt_max=0.5)


@pytest.mark.parametrize("field", ["t_end", "cfl_advect", "cfl_diffuse", "dt_min", "dt_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_step_control_rejects_non_finite(field, value):
    # t_end = nan passes every "<= 0" test, and a run to it never ends
    with pytest.raises(ValueError, match="finite"):
        StepControl(**{"t_end": 1.0, field: value})


@pytest.mark.parametrize("field", ["rho_max_factor", "grad_rho_max", "bkm_cap"])
@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
def test_detection_thresholds_reject_nan_and_non_positive(field, value):
    # a NaN threshold fails every comparison, so its detector would never
    # fire; inf switches a detector off on purpose
    with pytest.raises(ValueError, match="positive"):
        DetectionThresholds(**{field: value})
    assert getattr(DetectionThresholds(**{field: math.inf}), field) == math.inf


def test_step_equilibrium_fixed_point():
    g = Grid(64)
    st = make_initial("uniform", g, EA, rho_base=1.5)
    new = advance(st, 0.01)
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
    st = SimState(Problem(g, EA, PotentialSpec(), mean(rho), 0.0),
                  np.stack((rho, np.zeros(64))), 0.0)
    dt = 0.2
    lam = (2 * np.pi) ** 0.5
    z = lam * dt
    new = advance(st, dt)
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
        return advance(st0, dt, round(t_end / dt)).rho

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
    assert out.status is RunStatus.COMPLETED
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
        bad = with_fields(st, g=st.g + 1e-6)
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
    st = make_initial("cosine", g, EA, PotentialSpec(k=1.0), rho_amp=0.4, u_amp=0.4, u_mean=0.25)
    masses, momenta = [], []

    def watch(_, s):
        from epasim.model import recover_velocity
        masses.append(mean(s.rho))
        momenta.append(mean(s.rho * recover_velocity(s)))

    out = run(st, StepControl(t_end=0.5), monitors=(watch,))
    assert out.status is RunStatus.COMPLETED
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
        return run(st, StepControl(t_end=0.48)), len(samples)

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
    # calls of spectral.rfft / irfft, the home of every transform, and
    # transforms: one per row of a call
    box = {"calls": 0, "transforms": 0}

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            box["calls"] += 1
            box["transforms"] += 1 if np.ndim(a) == 1 else len(a)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "rfft", counting(spectral.rfft))
    monkeypatch.setattr(spectral, "irfft", counting(spectral.irfft))
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
    # a step makes 9 FFT calls over 16 transforms: each inner stage an irfft
    # of its spectrum (2 transforms), the velocity irfft (1) and the flux
    # rfft (2); the accepted state one irfft of its spectrum (2); and the
    # next step's first stage, on that state, a velocity irfft that carries
    # d rho/dx as a second row (2) and the flux rfft (2). Once per run: the
    # rfft of the initial block (1 call, 2 transforms), and the final
    # state's drho_inf, which no step follows, one irfft of that same
    # density row (1 call, 1 transform)
    st = reference_problem_64()
    rhs(st)  # builds the spectral plan outside the count
    dt = 0.5 * stable_dt(st, StepControl(t_end=1.0))
    evals = {"n": 0}
    ffts = count_ffts(monkeypatch)
    monkeypatch.setattr(integrator, "rhs_spectrum", counted(integrator.rhs_spectrum, evals))
    checks = count_checks(monkeypatch)
    out = run(st, StepControl(t_end=20 * dt, dt_max=dt), monitors=monitors)
    assert out.status is RunStatus.COMPLETED and out.steps == 20
    assert ffts == {"calls": 9 * out.steps + 2, "transforms": 16 * out.steps + 3}
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


def test_run_reduction_budget_per_step():
    # a step makes 10 ufunc reductions: 2 in each of the three field checks,
    # 2 for the first stage's sup |u|, 1 for its sup |d rho/dx| and 1 for
    # the density detector; the inner stages compute no sup |u|. Counted
    # between the monitor calls after steps 1 .. 20; the last step has no
    # next first stage, and its state reads its drho_inf off its own band
    st = reference_problem_64()
    dt = 0.5 * stable_dt(st, StepControl(t_end=1.0))
    count, marks = [0], []

    def profile(frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", None) == "reduce"
                and isinstance(getattr(arg, "__self__", None), np.ufunc)):
            count[0] += 1

    sys.setprofile(profile)
    try:
        out = run(st, StepControl(t_end=20 * dt, dt_max=dt),
                  monitors=(lambda k, s: marks.append(count[0]),))
    finally:
        sys.setprofile(None)
    assert out.status is RunStatus.COMPLETED and out.steps == 20
    assert np.diff(marks)[:-1].tolist() == [10] * 19


def cache_lookups():
    # hits and misses of every memo table of epasim
    return sum(t.cache_info().hits + t.cache_info().misses for t in memo_tables())


@pytest.mark.parametrize("with_recorder", [False, True])
def test_no_step_looks_up_a_cache(with_recorder):
    # a run looks its problem's plan up once, on the first read, and no step
    # or recorder row looks up anything: 50 steps make the lookups of 5
    dt = 0.5 * stable_dt(reference_problem_64(), StepControl(t_end=1.0))
    made = []
    for steps in (5, 50):
        st = reference_problem_64()
        monitors = (verify_recorder(st),) if with_recorder else ()
        before = cache_lookups()
        out = run(st, StepControl(t_end=steps * dt, dt_max=dt), monitors)
        made.append(cache_lookups() - before)
        assert out.status is RunStatus.COMPLETED and out.steps == steps
    assert made == [1, 1]


def test_a_run_shares_its_problem_and_problems_share_their_plan():
    # every accepted state of a run has the initial state's problem, and two
    # problems on one (grid, kernel, potential) read one set of plan arrays
    kernel, potential = KERNEL_POTENTIAL_PAIRS[0]
    a, b = (make_initial("cosine", Grid(64), kernel, potential, rho_amp=amp, u_amp=0.3)
            for amp in (0.3, 0.5))
    seen = []
    out = run(a, StepControl(t_end=0.05), monitors=(lambda k, s: seen.append(s),))
    assert out.status is RunStatus.COMPLETED and len(seen) == out.steps + 1 > 3
    assert all(s.problem is a.problem for s in seen + [out.state])
    assert b.problem is not a.problem
    assert b.problem.plan.vel_rho is a.problem.plan.vel_rho


def holds_band(state):
    # whether the state's spec slot is filled, read past its lazy fill
    try:
        SimState.spec.__get__(state)
    except AttributeError:
        return False
    return True


def test_a_run_state_holds_the_band_the_loop_carries(monkeypatch):
    # a monitor reads each state's band at no FFT: the array the loop
    # carries, by identity, read-only, whose irfft is the state's fields.
    # The caller's state is given none, and the outcome's state drops its
    # band, so that reading spec there recomputes it from the fields
    st = reference_problem_64()
    n, band = st.grid.n, st.grid.band
    bands, seen = [], []
    stepped = integrator.step_ssprk3

    def step(*args):
        bands.append(stepped(*args))
        return bands[-1]

    def watch(k, s):
        seen.append(k)
        if k:
            assert s.spec is bands[-1]
            assert np.array_equal(spectral.irfft(s.spec, n), s.x)
            with pytest.raises(ValueError):
                s.spec[0, 1] = 0.0

    monkeypatch.setattr(integrator, "step_ssprk3", step)
    out = run(st, StepControl(t_end=0.05), monitors=(watch,))
    assert out.status is RunStatus.COMPLETED and seen == list(range(out.steps + 1)) > [0, 1, 2]
    assert not holds_band(st) and not holds_band(out.state)
    assert np.array_equal(out.state.spec, np.fft.rfft(out.state.x)[:, :band])
    assert holds_band(out.state) and out.state.spec.base is None
    assert not out.state.spec.flags.writeable


def test_a_run_that_takes_no_step_gives_its_state_no_band(monkeypatch):
    # a state at t = 1 run to t_end = 0.5: the loop reads the final state's
    # drho_inf off the band it transformed, in one irfft, and the caller's
    # state, which is the outcome's, is left without a band
    st = with_fields(reference_problem_64(), t=1.0)
    st.problem.plan  # builds the spectral plan outside the count
    ffts = count_ffts(monkeypatch)
    out = run(st, StepControl(t_end=0.5))
    assert out.status is RunStatus.COMPLETED and out.steps == 0 and out.state is st
    assert ffts == {"calls": 2, "transforms": 3}
    assert not holds_band(st)
    grad = np.max(np.abs(derivative(st.rho, st.grid)))
    assert st.drho_inf == pytest.approx(grad, rel=1e-12)


def test_rhs_and_recover_velocity_batch_their_transforms(monkeypatch):
    st = reference_problem_64()
    st.problem.plan  # builds the spectral plan outside the count
    ffts = count_ffts(monkeypatch)
    model.recover_velocity(st)  # the rfft of the state's band, once, and the velocity irfft
    assert ffts == {"calls": 2, "transforms": 3}
    rhs(st)  # its evaluation is a first stage's, whose velocity irfft carries d rho/dx
    assert ffts == {"calls": 5, "transforms": 9}


def test_no_transform_reaches_np_fft(monkeypatch):
    # every transform goes through spectral.rfft / irfft: with numpy's
    # wrappers made to raise and every plan and kernel transform rebuilt,
    # a problem is set up, evaluated and run, with and without the recorder
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft called outside spectral.rfft / irfft")

    clear_caches()
    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    st = reference_problem_64()
    constants = bound_constants(st)
    model.recover_velocity(st)
    rhs(st)
    gauge = ModulusParams(delta=0.1, gamma=0.029, b=1e14, alpha=0.5)
    for monitors in ((), (DiagnosticsRecorder(constants, gauge, moc_every=10),)):
        out = run(st, StepControl(t_end=0.2), monitors=monitors)
        assert out.status is RunStatus.COMPLETED and out.steps >= 10
    assert np.sum(~np.isnan(monitors[0].log.column("moc_pass"))) >= 2


class _Stop(Exception):
    pass


def sup_rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("kernel, potential", KERNEL_POTENTIAL_PAIRS)
def test_run_matches_the_reference_step_bit_for_bit(kernel, potential):
    # the in-place stages on the carried spectrum, the checks of the stages'
    # fields and the state built per step give the states of the
    # SimState-per-stage route on the spectrum exactly, step sizes included;
    # the route on the fields, which transforms each stage forward and its
    # derivative back, agrees to rounding
    st = make_initial("cosine", Grid(64), kernel, potential, rho_amp=0.4, u_amp=0.3)
    ctl = StepControl(t_end=2.0)  # beyond the 20 steps, so none is clipped
    seen = []

    def watch(k, s):
        seen.append(s)
        if k == 20:
            raise _Stop

    with pytest.raises(_Stop):
        run(st, ctl, monitors=(watch,))
    assert len(seen) == 21 and seen[0] is st
    ref, spec, phys = st, band_spectrum(st), st
    for got in seen[1:]:
        ref, spec, dt = spectral_reference_step(ref, spec, ctl)
        phys = reference_step(phys, dt)
        assert got.t == ref.t
        assert np.array_equal(got.rho, ref.rho) and np.array_equal(got.g, ref.g)
        assert max(sup_rel(got.rho, phys.rho), sup_rel(got.g, phys.g)) <= 1e-12


def extreme_block(rng, shape):
    # complex parts of random sign and magnitudes from 1e-300 to 1e300
    parts = rng.choice([-1.0, 1.0], (2, *shape)) * 10.0 ** rng.uniform(-300, 300, (2, *shape))
    return parts[0] + 1j * parts[1]


def test_stage3_matches_its_formula_bit_for_bit():
    # the last stage divides by 3 through the block's float64 view: the bits
    # of numpy's complex division, on parts of any magnitude
    rng = np.random.default_rng(17)
    for dt in (0.0123, 0.37, 1e-7):
        x0, x, d = (extreme_block(rng, (2, 513)) for _ in range(3))
        want = (x0 + 2.0 * (x + dt * d)) / 3.0
        integrator._stage3(d, x, x0, dt)
        assert np.array_equal(d.view(np.uint64), want.view(np.uint64))


def test_step_checks_stage_one_before_the_next_evaluation(monkeypatch):
    st = reference_problem_64()
    spec = band_spectrum(st)
    dt = 1e-3
    evals = {"n": 0}
    monkeypatch.setattr(integrator, "rhs_spectrum", counted(integrator.rhs_spectrum, evals))
    d = stage1_spectrum(st, spec)
    d[1, 5] = np.nan
    with pytest.raises(NonFiniteError):
        step_ssprk3(spec, d, dt, st.t, st.problem)
    # a band-limited derivative that empties density sample 7 and keeps the
    # mass: the band of a spike at the sample, without its mean, scaled so
    # that one step of dt takes rho[7] to 0
    spike = np.zeros(st.grid.n)
    spike[7] = 1.0
    dip = np.fft.rfft(spike)[:st.grid.band]
    dip[0] = 0.0
    d = np.zeros_like(spec)
    d[0] = dip * (-st.rho[7] / (dt * np.fft.irfft(dip, n=st.grid.n)[7]))
    assert abs(np.fft.irfft(spec[0] + dt * d[0], n=st.grid.n)[7]) <= model.RHO_FLOOR
    with pytest.raises(VacuumError):
        step_ssprk3(spec, d, dt, st.t, st.problem)
    assert evals["n"] == 0


@pytest.mark.parametrize("k", [1, 3])
def test_run_reports_the_last_state_the_monitors_saw(monkeypatch, k):
    # a NaN in the stage-2 derivative of step k fails the check of stage 3;
    # the outcome carries the state of step k - 1, rebuilt from its
    # spectrum, or for k = 1 the caller's own state
    st = reference_problem_64()
    seen = []
    evals = {"n": 0}
    evaluate = integrator.rhs_spectrum

    def poisoned(*args, **kwargs):
        evals["n"] += 1
        d, u_inf, drho_inf = evaluate(*args, **kwargs)
        if evals["n"] == 3 * (k - 1) + 2:  # stage 1 of each step is its first
            d[1, 3] = np.nan
        return d, u_inf, drho_inf

    monkeypatch.setattr(integrator, "rhs_spectrum", poisoned)
    out = run(st, StepControl(t_end=1.0), monitors=(lambda j, s: seen.append(s),))
    assert out.status is RunStatus.NAN and "non-finite" in out.detail
    assert out.steps == k - 1 and len(seen) == k
    last = seen[-1]
    if k == 1:
        assert out.state is st
    else:
        assert out.state is not last
        assert np.array_equal(out.state.rho, last.rho) and np.array_equal(out.state.g, last.g)
    assert out.state.t == last.t == out.t_final
    assert out.state.drho_inf == last.drho_inf


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("potential", [None, PotentialSpec(k=1.0)])
@pytest.mark.parametrize("with_recorder", [False, True])
def test_run_drho_inf_is_the_derivative_bit_for_bit(n, potential, with_recorder):
    # every state's drho_inf but the final one comes from the next step's
    # stage-1 velocity transform, and the final one's from its own band:
    # both bit for bit the derivative of the density row of the band the
    # loop carries, which the spectral reference step reproduces. A fresh
    # spectral derivative of the state's density, which transforms the
    # fields forward again and keeps the roundoff above the band, agrees to
    # rounding. The recorder reads the states' values
    st = make_initial("cosine", Grid(n), EA, potential, rho_amp=0.4, u_amp=0.3)
    ctl = StepControl(t_end=0.05)
    seen = []
    rec = DiagnosticsRecorder()
    monitors = (lambda k, s: seen.append((s, s.drho_inf)),) + ((rec,) if with_recorder else ())
    out = run(st, ctl, monitors=monitors)
    assert out.status is RunStatus.COMPLETED and len(seen) == out.steps + 1 > 3
    drho = [d for _, d in seen]
    fresh = [float(np.max(np.abs(derivative(s.rho, s.grid)))) for s, _ in seen]
    ref, spec, carried = st, band_spectrum(st), []
    for k in range(len(seen)):
        dh = spec[0] * (1j * st.grid.two_pi_k[:st.grid.band])
        carried.append(float(np.max(np.abs(np.fft.irfft(dh, n=n)))))
        if k < out.steps:
            ref, spec, _ = spectral_reference_step(ref, spec, ctl)
    assert drho == carried
    assert drho == pytest.approx(fresh, rel=1e-12)
    if with_recorder:
        log = rec.log
        assert list(log.drho_inf) == drho
        t = [s.t for s, _ in seen]
        bkm = [0.0]
        for i in range(1, len(t)):
            bkm.append(bkm[-1] + 0.5 * (drho[i - 1] ** 2 + drho[i] ** 2) * (t[i] - t[i - 1]))
        assert list(log.t) == t and list(log.bkm) == bkm


VERIFY_GAUGE = ModulusParams(delta=0.1, gamma=0.029, b=1e14, alpha=0.5)


def verify_recorder(st):
    return DiagnosticsRecorder(bound_constants(st), VERIFY_GAUGE, moc_every=5)


# Measured on the loop that stepped the (2, n) fields, with this test: 9.21
# n-doubles without a potential, 10.22 with it and 10.64 with the recorder,
# whose modulus row took 5.3 on top of the fields and the stage-1 derivative
# block. The spectral loop measures 8.40, 8.40 and 9.37: it frees each inner
# stage's fields after their flux transform, and its modulus row takes 2.9;
# a row of fewer numpy calls takes 2.19, and the recorder run 8.80. Carrying
# the (2, n // 3 + 1) band instead of the (2, n/2 + 1) rfft takes the three
# from 8.38, 8.37 and 8.80 to 7.68, 7.67 and 8.07.
@pytest.mark.parametrize("potential, recorder, bound", [
    (PotentialSpec(), False, 7.8),
    (KERNEL_POTENTIAL_PAIRS[0][1], False, 7.8),
    (KERNEL_POTENTIAL_PAIRS[0][1], True, 8.2),
], ids=["no-potential", "potential", "recorder"])
def test_run_peak_memory(potential, recorder, bound):
    # a whole run at n = 1024, the reference kernel with and without its
    # potential, and with the verify benchmark's recorder; the elementwise
    # work with an (n,) operand goes row by row, or an in-place op on a
    # (2, n) block would allocate a (2, n) buffer
    n = 1024
    kernel = KERNEL_POTENTIAL_PAIRS[0][0]
    st = make_initial("cosine", Grid(n), kernel, potential, rho_amp=0.5, u_amp=0.5)
    ctl = StepControl(t_end=0.01)

    def monitors():
        return (verify_recorder(st),) if recorder else ()

    assert run(st, ctl, monitors()).steps >= 10  # fills the caches outside the count
    fresh = monitors()
    assert tracemalloc_peak(lambda: run(st, ctl, fresh), n) <= bound


def test_held_footprint_of_a_problem():
    # the bytes still held, in n-doubles, from cleared memo tables at
    # n = 1024 with the reference kernel and potential: after make_initial
    # the state's two rows and the kernel's band vel_rho, and after a run,
    # its outcome dropped, the plan's band multipliers inv_ddx, flux and
    # source as well; a grid holds no array. Measured 2.81 and 4.94; 5.29
    # after the run while the plan also held its d/dx band two_pi_k, and
    # 6.24 and 9.45 while a grid held its points and modes, psi_l and K_reg
    # on the grid were memoised and vel_rho held all n/2 + 1 modes
    n = 1024
    assert not any(isinstance(v, np.ndarray) for v in vars(Grid(n)).values())
    assert model.SpectralPlan._fields == ("inv_ddx", "vel_rho", "flux", "source")
    kernel, potential = KERNEL_POTENTIAL_PAIRS[0]
    ctl = StepControl(t_end=0.01)

    def initial():
        return make_initial("cosine", Grid(n), kernel, potential, rho_amp=0.5, u_amp=0.5)

    assert run(initial(), ctl).steps >= 10  # the first calls' one-off costs, outside the count
    clear_caches()
    st, held = tracemalloc_held(initial, n)

    def run_dropped():
        run(st, ctl)

    ran = tracemalloc_held(run_dropped, n)[1]
    assert held <= 3.3 and held + ran <= 5.2


def test_modulus_row_peak_memory():
    # a modulus row of the recorder on the verify benchmark's problem and
    # gauge: the block bounds, made one term at a time, are freed before the
    # tiles, the tiles keep a max per block and lag, and every temporary is
    # freed once read; measured 1.97 (2.19 with the check's half of the
    # table and its argmaxes, 2.54 before that)
    n = 1024
    kernel, potential = KERNEL_POTENTIAL_PAIRS[0]
    st = advance(make_initial("cosine", Grid(n), kernel, potential, rho_amp=0.5, u_amp=0.5),
                 1e-4)
    rec = DiagnosticsRecorder(moc=VERIFY_GAUGE, moc_every=1)
    rec(0, st)  # builds the log outside the count
    assert tracemalloc_peak(lambda: rec(1, st), n) <= 2.25


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


# The exact c = 0 dichotomy for an even psi_l >= 0 (oracles.dichotomy_bracket),
# with the cosine psi_l of the first two kernel pairs and the potential off,
# on rho0 = 1 + 0.3 cos 2 pi x and u0 = -A sin 2 pi x. There
# g0 = a + (0.15 b - 2 pi A) cos 2 pi x, so A sets min g0. At n = 256 both
# supercritical runs end VACUUM before the bracket's lower end, which no
# exact solution does; those verdicts are not pinned.
BRACKET_FRACTION = 0.9  # a BLOWUP comes no earlier than this share of the lower end


def bracket_state(psi_l, min_g0, n):
    kernel = KernelSpec(c=0.0, alpha=0.5, psi_l=psi_l)
    u_amp = (psi_l.a - min_g0 + 0.15 * psi_l.b) / (2 * np.pi)
    return make_initial("cosine", Grid(n), kernel, PotentialSpec(), rho_amp=0.3, u_amp=-u_amp)


@pytest.mark.parametrize("min_g0", [0.05, -0.5])
@pytest.mark.parametrize("pair", [0, 1])
def test_c0_dichotomy_for_an_even_psi_l(pair, min_g0):
    # global iff min g0 >= 0; else the detector fires before t*, which lies
    # in the bracket: measured at 1.264 in [1.251, 1.567] (b = 0.2) and at
    # 1.108 in [0.924, 1.386] (b = -0.5)
    state = bracket_state(KERNEL_POTENTIAL_PAIRS[pair][0].psi_l, min_g0, 1024)
    assert float(np.min(state.g)) == pytest.approx(min_g0, abs=1e-12)
    bracket = dichotomy_bracket(state)
    out = run(state, StepControl(t_end=2.0), (), DetectionThresholds(grad_rho_max=1e4))
    if min_g0 >= 0:
        assert bracket is None
        assert out.status is RunStatus.COMPLETED and out.t_final == 2.0
    else:
        low, high = bracket
        assert low < high < 2.0
        assert out.status is RunStatus.BLOWUP
        assert BRACKET_FRACTION * low <= out.t_final < high


# The exact oracle with the potential on: c = 0, psi_l = a and a Newtonian
# potential, where 1/rho solves a linear ODE along each characteristic
# (oracles.characteristic_beta). burgers-shock data rho0 = 1,
# u0 = -A sin(2 pi x) have u0' = -2 pi A cos(2 pi x).
EXACT_U_AMP = 0.3


def exact_state(n, k):
    kernel = KernelSpec(c=0.0, alpha=0.5, psi_l=LipschitzKernel(kind="constant", a=DICHOTOMY_A))
    return make_initial("burgers-shock", Grid(n), kernel, PotentialSpec(k=k), rho_base=1.0,
                        u_amp=EXACT_U_AMP)


def exact_characteristics(grid):
    return np.ones(grid.n), -2 * np.pi * EXACT_U_AMP * np.cos(2 * np.pi * grid.x)


def exact_max_rho(grid, t, k):
    return 1.0 / float(np.min(characteristic_beta(t, *exact_characteristics(grid), 1.0,
                                                  DICHOTOMY_A, k)))


@pytest.mark.parametrize("k, t_star", [(1.0, 0.578), (-1.0, 0.675)])
@pytest.mark.parametrize("n", [128, 512])
def test_exact_blowup_time_with_potential(n, k, t_star):
    grid = Grid(n)
    t_exact = ode_blowup_time(*exact_characteristics(grid), 1.0, DICHOTOMY_A, k, 1.0)
    assert t_exact == pytest.approx(t_star, abs=1e-3)
    out = dichotomy_run(exact_state(n, k))
    assert out.status is RunStatus.BLOWUP
    assert out.t_final < t_exact


@pytest.mark.parametrize("n", [128, 512])
def test_exact_strong_repulsion_stays_regular(n):
    # at k = -4 the characteristics oscillate and no beta reaches 0. When
    # sup |u| passes through 0 the cap on the potential's phase per step
    # sets the step, and max rho at t = 1 keeps the accuracy of the old
    # dx^alpha-scaled bound at n = 128 (rel 2.9e-5, mostly spatial)
    grid = Grid(n)
    assert ode_blowup_time(*exact_characteristics(grid), 1.0, DICHOTOMY_A, -4.0, 1.0) == math.inf
    out = dichotomy_run(exact_state(n, -4.0))
    assert out.status is RunStatus.COMPLETED
    assert float(np.max(out.state.rho)) == pytest.approx(exact_max_rho(grid, out.t_final, -4.0),
                                                         rel=3e-5)


def test_exact_strong_repulsion_converges_at_third_order_in_time():
    # at n = 512 the time discretisation makes the error: halving both step
    # fractions, the advective and the one that caps dt omega, divides it by
    # about 2^3
    grid = Grid(512)
    errs = []
    for f in (1.0, 0.5):
        ctl = StepControl(t_end=1.0, cfl_advect=0.4 * f, cfl_diffuse=0.5 * f)
        out = run(exact_state(grid.n, -4.0), ctl, (), DetectionThresholds(grad_rho_max=1e3))
        assert out.status is RunStatus.COMPLETED
        exact = exact_max_rho(grid, out.t_final, -4.0)
        errs.append(abs(float(np.max(out.state.rho)) - exact) / exact)
    assert errs[0] < 1e-5
    assert math.log2(errs[0] / errs[1]) >= 2.8


@pytest.mark.parametrize("k", [1.0, -1.0])
def test_exact_max_density_converges_at_third_order(k):
    # max rho at half the blow-up time, against the oracle; the steps are
    # advection-limited, so dt ~ dx and the RK3 error falls 64-fold per 4x n
    errs = []
    for n in (128, 512):
        grid = Grid(n)
        t_half = 0.5 * ode_blowup_time(*exact_characteristics(grid), 1.0, DICHOTOMY_A, k, 1.0)
        out = run(exact_state(n, k), StepControl(t_end=t_half))
        assert out.status is RunStatus.COMPLETED
        errs.append(abs(float(np.max(out.state.rho)) - exact_max_rho(grid, out.t_final, k)))
    assert errs[0] < 1e-4
    assert math.log(errs[0] / errs[1]) / math.log(4.0) >= 2.8

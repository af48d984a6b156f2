import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epasim import diagnostics
from epasim.diagnostics import (
    COLUMNS,
    BoundConstants,
    DiagnosticsLog,
    DiagnosticsRecorder,
    ModulusParams,
    bound_constants,
    certified_modulus_params,
    check_f_bound,
    check_f_transported,
    check_lower_envelope,
    check_upper_envelope,
    moc_check,
    moc_min_b,
    omega_b,
)
from epasim.integrator import RunStatus, StepControl, run
from epasim.kernels import KernelSpec, LipschitzKernel, PotentialSpec, RegularPotential
from epasim.model import make_initial
from epasim.spectral import Grid, GridMismatchError
from conftest import random_positive_field, random_smooth_field
from oracles import (
    psi_alpha_min,
    reference_min_b,
    reference_omega_b,
    roll_lag_table,
    with_fields,
)

EA = KernelSpec(c=1.0, alpha=0.5)


def synthetic_log(t, rho_min, rho_max, f_inf=None, n=256, alpha=0.5, k=0.0):
    t = np.asarray(t, dtype=float)
    log = DiagnosticsLog(n=n, alpha=alpha, k=k)
    log.t = list(t)
    log.rho_min = list(np.broadcast_to(rho_min, t.shape).astype(float))
    log.rho_max = list(np.broadcast_to(rho_max, t.shape).astype(float))
    log.f_inf = list(np.broadcast_to(0.0 if f_inf is None else f_inf, t.shape).astype(float))
    z = [0.0] * t.size
    log.drho_inf, log.bkm, log.mass = z[:], z[:], z[:]
    log.env_lower_margin, log.env_upper_margin = z[:], z[:]
    log.moc_pass, log.moc_min_b = [math.nan] * t.size, [math.nan] * t.size
    return log


# ---------------------------------------------------------------------------
# bound constants


def test_bound_constants_uniform_state_formulas():
    g = Grid(64)
    st = make_initial("uniform", g, EA, potential=PotentialSpec(k=1.0))
    bc = bound_constants(st)
    # independent arithmetic: f0 = 0, psi_l = 0
    psi_m = psi_alpha_min(0.5)
    eps_star = 0.5 * (math.sqrt(1.0 + 4.0 / math.e) - 1.0)
    assert bc.psi_m == pytest.approx(psi_m, rel=1e-9)
    assert bc.f0_inf <= 1e-14
    assert bc.eps_star == pytest.approx(eps_star, rel=1e-9)
    assert bc.eps == pytest.approx(0.5 * eps_star, rel=1e-9)
    assert bc.a_m == pytest.approx((1.0 / psi_m) * (1.0 + 0.5 * eps_star), rel=1e-9)
    assert bc.c_m == pytest.approx(min(1.0, 0.5 * eps_star * math.e), rel=1e-9)
    assert bc.a_big == pytest.approx(bc.a_m / 0.5, rel=1e-12)
    assert not bc.general


def test_bound_constants_no_forcing_gives_flat_envelopes():
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.3, u_amp=0.2)
    bc = bound_constants(st)
    assert bc.a_m == 0.0
    assert bc.kappa == 0.0
    assert float(bc.rho_min_envelope(5.0)) == pytest.approx(bc.c_m)
    assert float(bc.f_bound(7.0)) == pytest.approx(bc.f0_inf)


def test_bound_constants_general_potential_swaps_coefficient():
    from epasim.kernels import RegularPotential
    g = Grid(64)
    pot = PotentialSpec(k=0.0, kreg=RegularPotential(kind="cosine", amp=0.1))
    st = make_initial("cosine", g, EA, rho_amp=0.2, potential=pot)
    bc = bound_constants(st)
    kxx = 0.1 * (2 * np.pi) ** 2
    assert bc.kxx_sup == pytest.approx(kxx, rel=1e-12)
    assert bc.a_m == pytest.approx(kxx / bc.psi_m * (1 + bc.eps), rel=1e-9)
    assert bc.general
    # no linear-in-t term when k = 0
    t = np.array([0.0, 1.0])
    expect = bc.f0_inf + kxx * bc.rho_bar / (bc.a_m * bc.c_m) * np.exp(bc.a_m * t)
    np.testing.assert_allclose(np.asarray(bc.f_bound(t)), expect, rtol=1e-12)


@given(amp=st.floats(0.05, 0.8), k=st.floats(-2.0, 2.0))
@example(amp=0.3, k=5e-324)  # A_m underflows to 0
@example(amp=0.3, k=-5e-324)
@example(amp=0.3, k=1e-300)
@settings(max_examples=15, deadline=None)
def test_bound_constants_c_m_below_initial_min(amp, k):
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=amp, potential=PotentialSpec(k=k))
    bc = bound_constants(st)
    assert bc.c_m <= bc.rho0_min + 1e-15
    assert 0.0 < bc.eps < bc.eps_star
    assert all(math.isfinite(v) for v in vars(bc).values())
    assert math.isfinite(bc.f_bound(1.0)) and math.isfinite(bc.rho_max_bound(1.0))


def test_upper_bound_floor_has_the_lipschitz_branch():
    # a large psi_l and a small C_1 make (2 |psi_l|_inf rho_bar / C_1)^(1/(1+alpha))
    # the floor of the upper bound, above max rho_0 and 3 rho_bar
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="constant", a=50.0))
    st = make_initial("cosine", Grid(64), kernel, rho_amp=0.3)
    bc = bound_constants(st, c1=0.01)
    lip = (2.0 * 50.0 * bc.rho_bar / 0.01) ** (1.0 / 1.5)
    assert lip > 3.0 * bc.rho_bar
    assert bc.rho_max_floor == pytest.approx(lip, rel=1e-14)
    assert bc.c_big >= lip and float(bc.rho_max_bound(0.0)) >= lip
    t = np.linspace(0.0, 1.0, 5)
    below = synthetic_log(t, rho_min=1.0, rho_max=0.99 * lip, n=64)
    assert check_upper_envelope(below, bc).c1_fit == math.inf
    above = synthetic_log(t, rho_min=1.0, rho_max=1.1 * lip * (1.0 + 10.0 / 64), n=64)
    assert math.isfinite(check_upper_envelope(above, bc).c1_fit)


def test_bound_constants_warns_above_one():
    g = Grid(64)
    st = make_initial("uniform", g, KernelSpec(c=1.0, alpha=1.2))
    with pytest.warns(UserWarning):
        bound_constants(st)


def test_bound_constants_rejects_disabled_kernel():
    g = Grid(64)
    st = make_initial("uniform", g, KernelSpec(c=0.0, alpha=0.5))
    with pytest.raises(ValueError):
        bound_constants(st)


@pytest.mark.parametrize("c1", [0.0, -1.0, math.nan, math.inf])
def test_bound_constants_rejects_c1_not_finite_and_positive(c1):
    # 0 divided by zero, and -1 and NaN gave a finite c_big with no error
    st = make_initial("cosine", Grid(64), EA, rho_amp=0.3)
    with pytest.raises(ValueError, match="c1"):
        bound_constants(st, c1=c1)


# ---------------------------------------------------------------------------
# envelope and f-bound checks


def equilibrium_log_and_bc():
    g = Grid(64)
    st = make_initial("uniform", g, EA, potential=PotentialSpec(k=1.0))
    bc = bound_constants(st)
    t = np.linspace(0.0, 2.0, 41)
    log = synthetic_log(t, rho_min=1.0, rho_max=1.0, n=64)
    return log, bc


def test_lower_envelope_equilibrium_passes():
    log, bc = equilibrium_log_and_bc()
    rep = check_lower_envelope(log, bc)
    assert rep.passed
    assert rep.margin >= 1.0 / bc.c_m  # rho_bar over the constant branch


def test_lower_envelope_detects_dip():
    log, bc = equilibrium_log_and_bc()
    t = log.column("t")
    dip = np.where(t > 1.0, 0.5 * float(bc.rho_min_envelope(0.0)), 1.0)
    log.rho_min = list(dip * np.exp(-bc.a_m * t))
    rep = check_lower_envelope(log, bc)
    assert not rep.passed
    assert rep.worst_t > 1.0


def test_upper_envelope_equilibrium_passes():
    log, bc = equilibrium_log_and_bc()
    rep = check_upper_envelope(log, bc)
    assert rep.passed
    assert rep.margin >= 3.0 / (1.0 + 10.0 * log.dx)
    assert rep.c1_fit == math.inf  # flat branches cover everything


def test_upper_envelope_detects_runaway():
    log, bc = equilibrium_log_and_bc()
    t = log.column("t")
    log.rho_max = list(np.asarray(bc.rho_max_bound(t)) * 2.0 * np.exp(t))
    rep = check_upper_envelope(log, bc)
    assert not rep.passed
    assert np.isfinite(rep.c1_fit)


def test_f_bound_checks():
    log, bc = equilibrium_log_and_bc()
    assert check_f_bound(log, bc).passed
    t = log.column("t")
    log.f_inf = list(np.asarray(bc.f_bound(t)) * 1.5 + 1.0)
    assert not check_f_bound(log, bc).passed


def test_f_transported_monotonicity_check():
    t = np.linspace(0, 1, 11)
    log = synthetic_log(t, 1.0, 1.0, f_inf=1.0)
    log.f_inf = list(np.linspace(1.0, 0.8, 11))
    assert check_f_transported(log).passed
    log.f_inf = list(np.linspace(1.0, 1.4, 11))
    assert not check_f_transported(log).passed


# ---------------------------------------------------------------------------
# modulus of continuity


VALID = ModulusParams(delta=0.2, gamma=0.02, b=50.0, alpha=0.5)


def test_modulus_params_validation():
    with pytest.raises(ValueError):
        ModulusParams(delta=1.2, gamma=0.01, b=2.0, alpha=0.5)
    with pytest.raises(ValueError):
        ModulusParams(delta=0.2, gamma=-1.0, b=2.0, alpha=0.5)
    with pytest.raises(ValueError):
        ModulusParams(delta=0.2, gamma=0.02, b=0.5, alpha=0.5)
    # gamma above the log-branch cap
    with pytest.raises(ValueError):
        ModulusParams(delta=0.2, gamma=0.2, b=2.0, alpha=0.5)
    # delta so large the power branch bends over
    with pytest.raises(ValueError):
        ModulusParams(delta=0.6, gamma=1e-4, b=2.0, alpha=0.5)


def test_modulus_params_rejects_nan():
    # NaN fails "gamma <= 0" and "b < 1" alike; b = inf stays a valid gauge
    with pytest.raises(ValueError, match="gamma"):
        ModulusParams(delta=0.1, gamma=math.nan, b=2.0, alpha=0.5)
    with pytest.raises(ValueError, match="b must"):
        ModulusParams(delta=0.1, gamma=0.02, b=math.nan, alpha=0.5)
    assert ModulusParams(delta=0.1, gamma=0.02, b=math.inf, alpha=0.5).b == math.inf


def test_omega_b_branch_continuity():
    p = VALID
    xi = p.delta / p.b
    left = omega_b(xi * (1 - 1e-12), p)
    right = omega_b(xi, p)
    head = p.delta - p.delta ** 1.25
    assert right == pytest.approx(head, rel=1e-12)
    assert left == pytest.approx(right, rel=1e-6)


def test_omega_b_monotone_and_concave_on_samples():
    xi = np.linspace(1e-6, 0.5, 10_000)
    w = np.asarray(omega_b(xi, VALID))
    assert np.all(np.diff(w) > 0)
    assert np.all(np.diff(np.diff(w)) < 1e-12)


def test_omega_b_slope_at_origin_is_b():
    # w_B(xi)/xi = B (1 - (B xi)^(a/2)) -> B at the matching power rate
    ratios = []
    for xi in (1e-9, 1e-12, 1e-15):
        r = omega_b(xi, VALID) / xi
        assert abs(r / VALID.b - 1.0) <= 1.1 * (VALID.b * xi) ** (VALID.alpha / 2)
        ratios.append(r)
    assert ratios == sorted(ratios)  # monotone approach to B from below


def test_omega_b_rejects_out_of_range():
    with pytest.raises(ValueError):
        omega_b(0.0, VALID)
    with pytest.raises(ValueError):
        omega_b(0.7, VALID)


def test_omega_b_huge_b_uses_log_branch_safely():
    p = ModulusParams(delta=1e-4, gamma=1e-5, b=1e250, alpha=0.5)
    val = omega_b(0.25, p)
    assert np.isfinite(val)
    assert val == pytest.approx(1e-5 * (math.log(1e250) + math.log(0.25) - math.log(1e-4))
                                + 1e-4 - (1e-4) ** 1.25, rel=1e-9)


def test_moc_check_constant_field_passes(grid64):
    rep = moc_check(np.full(64, 2.3), VALID, grid64)
    assert rep.passed
    assert rep.margin > 0


def test_moc_check_large_amplitude_small_b_fails(grid64):
    rho = 1.0 + 5.0 * np.cos(2 * np.pi * grid64.x)
    p = ModulusParams(delta=0.2, gamma=0.02, b=1.5, alpha=0.5)
    rep = moc_check(rho, p, grid64)
    assert not rep.passed
    i, j = rep.pair
    d = abs(grid64.x[i] - grid64.x[j])
    d = min(d, 1 - d)
    assert d == pytest.approx(rep.distance, abs=1e-12)
    assert abs(rho[i] - rho[j]) > float(omega_b(rep.distance, p))


def test_moc_check_fails_non_finite_field(grid64):
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * grid64.x)
    rho[3] = np.nan
    assert not moc_check(rho, VALID, grid64).passed
    assert moc_min_b(rho, 0.2, 0.02, 0.5, grid64) == math.inf


def test_moc_check_infinite_b_builds_no_table(grid64, monkeypatch):
    def no_table(*args):
        raise AssertionError("moc_check built the lag table for b = inf")

    monkeypatch.setattr(diagnostics, "_lag_table", no_table)
    p = ModulusParams(delta=0.2, gamma=0.02, b=math.inf, alpha=0.5)
    rep = moc_check(1.0 + 0.3 * np.cos(2 * np.pi * grid64.x), p, grid64)
    assert rep.passed
    assert rep.margin == math.inf
    assert rep.distance == 0.5
    assert rep.pair == (0, 0)


def step_field(n):
    return np.where(np.arange(n) < n // 2, 1.0, 1.25)


def lag_table_fields(n):
    """Fields for the lag-table pin: smooth, two-level step (ties at every
    lag), quantised random (ties within lags), one NaN and one inf."""
    x = np.arange(n) / n
    cosine = 1.0 + 0.25 * np.cos(2 * np.pi * x)
    quantised = 1.0 + 0.25 * np.random.default_rng(n).integers(0, 4, n)
    with_nan = cosine.copy()
    with_nan[3] = np.nan
    with_inf = cosine.copy()
    with_inf[n // 3] = np.inf
    return {"cosine": cosine, "step": step_field(n), "quantised": quantised,
            "nan": with_nan, "inf": with_inf}


# the gauge of the verify benchmark: the log branch binds at long lags
VERIFY_GAUGE = ModulusParams(delta=0.1, gamma=0.029, b=1e14, alpha=0.5)
# gauges of the pruning pins: power and log branches binding, a huge and an infinite b
PRUNING_GAUGES = (VALID, VERIFY_GAUGE, ModulusParams(0.05, 0.01, 3.0, 1.0),
                  ModulusParams(0.2, 0.02, 1e30, 0.5), ModulusParams(0.1, 0.029, math.inf, 0.5))


def full_table(rho, n):
    """``_lag_table``'s layout (lags, distances, D, argmax) over all n/2 lags,
    from the roll loop."""
    dists, diffs, at = roll_lag_table(rho, n)
    return np.arange(1, n // 2 + 1), dists, diffs, at


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_lag_table_matches_roll_loop_bit_for_bit(n):
    # every kept lag carries the roll loop's D and first argmax; a non-finite
    # field keeps all n/2 lags, so a NaN still reaches the check
    for name, rho in lag_table_fields(n).items():
        want = full_table(rho, n)
        for min_b in (False, True):
            got = diagnostics._lag_table(rho, n, VERIFY_GAUGE, min_b)
            assert [a.dtype for a in got] == [b.dtype for b in want], name
            lags, dists, diffs, at = got
            assert lags.size > 0 and np.all(np.diff(lags) > 0), name
            if name in ("nan", "inf"):
                assert np.array_equal(lags, want[0]), name
            assert np.array_equal(dists, want[1][lags - 1]), name
            assert np.array_equal(diffs, want[2][lags - 1], equal_nan=True), name
            assert np.array_equal(at, want[3][lags - 1]), name


def tent_field(n):
    """Period-32 tent in steps of 0.01: its peaks and troughs lie halfway
    between the starts of the lag bounds, so at lag 16 the starts see no
    difference and D is 0.16, exactly the upper bound's width."""
    return 1.0 + 0.01 * np.abs((np.arange(n) + 8) % 32 - 16)


def pruning_fields(n):
    """Fields for the pruning pins: smooth, localised, rough, ties at many
    lags, small ones, and constant or near-constant levels, zero included."""
    x = np.arange(n) / n
    rng = np.random.default_rng(n)
    return {
        "cosine": 1.0 + 0.5 * np.cos(2 * np.pi * x),
        "gaussian": 0.5 + np.exp(-(((x - 0.4) / 0.05) ** 2)),
        "random": 1.0 + 0.3 * rng.random(n),
        "square": np.where((np.arange(n) // max(n // 8, 1)) % 2 == 0, 1.0, 1.25),
        # every D below the gauges' power-branch joint, where B binds
        "small cosine": 1.0 + 0.02 * np.cos(2 * np.pi * x),
        "small square": np.where((np.arange(n) // max(n // 8, 1)) % 2 == 0, 1.0, 1.05),
        "tent": tent_field(n),
        "zero": np.zeros(n),
        "small constant": np.full(n, 1e-3),
        "constant": np.full(n, 2.3),
        "near-constant": 1.0 + 1e-13 * rng.standard_normal(n),
    }


def assert_pruned_equals_full(rho, p, n):
    grid = Grid(n)
    full = full_table(rho, n)
    want_b = diagnostics._min_b(full, p.delta, p.gamma, p.alpha)
    assert moc_min_b(rho, p.delta, p.gamma, p.alpha, grid) == want_b
    # the recorder's route: one table for the verdict and the smallest B;
    # for b = inf every gap is +inf and the recorder reads only the verdict
    both = diagnostics._lag_table(rho, n, p, min_b=True)
    assert diagnostics._min_b(both, p.delta, p.gamma, p.alpha) == want_b
    want = diagnostics._moc_report(full, p, n)
    if math.isinf(p.b):
        assert diagnostics._moc_report(both, p, n).passed == want.passed
    else:
        assert diagnostics._moc_report(both, p, n) == want
        assert moc_check(rho, p, grid) == want


@pytest.mark.parametrize("n", [8, 64, 256, 1024])
def test_pruned_report_and_min_b_equal_the_full_table(n):
    for name, rho in pruning_fields(n).items():
        for p in PRUNING_GAUGES:
            try:
                assert_pruned_equals_full(rho, p, n)
            except AssertionError as err:
                raise AssertionError(f"{name}, {p}") from err


@st.composite
def gauges(draw):
    alpha = draw(st.floats(0.1, 2.0))
    delta = draw(st.floats(0.01, 0.4))
    bend = (1.0 + alpha / 2.0) * delta ** (alpha / 2.0)
    assume(bend < 1.0)
    head = delta - delta ** (1.0 + alpha / 2.0)
    gamma = draw(st.floats(0.01, 1.0)) * min(head / (2.0 * math.log(2.0)), delta * (1.0 - bend))
    b = draw(st.one_of(st.just(math.inf), st.floats(0.0, 20.0).map(lambda e: 10.0 ** e)))
    return ModulusParams(delta, gamma, b, alpha)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([64, 72, 128, 200]),
       rough=st.floats(0.0, 1.0), amp=st.floats(1e-6, 10.0), p=gauges())
@example(seed=0, n=64, rough=0.0, amp=1e-6, p=VALID)
@settings(max_examples=40, deadline=None)
def test_pruning_keeps_the_full_tables_report_and_min_b(seed, n, rough, amp, p):
    rng = np.random.default_rng(seed)
    grid = Grid(n)
    smooth = random_smooth_field(grid, rng, amp=amp)
    rho = 1.0 + (1.0 - rough) * smooth + rough * amp * rng.standard_normal(n)
    assert_pruned_equals_full(rho, p, n)


def rounding_field(n):
    """A field whose D at lag n/2 rounds past the exact bound lo + 16 L1.

    The starts 0 and 16 see a - b = 1.5 + 2^-52 + 2^-54, rounded down to
    1.5 + 2^-52; the bump and the dip of height 1/4 in steps of L1 = 1/32
    put 2 + 2^-52 + 2^-54 at sample 8, rounded up to 2 + 2^-51, while
    lo + 16 L1 = 2 + 2^-52 rounds down to 2. The slopes in between are
    below 1/32. Needs n >= 256.
    """
    half = n // 2
    a, b = 1.5 + 2.0**-52, -(2.0**-54)
    bump = (8 - np.abs(np.arange(17) - 8)) / 32
    rho = np.empty(n)
    rho[:17] = a + bump
    rho[16:half + 1] = np.linspace(a, b, half - 15)
    rho[half:half + 17] = b - bump
    rho[half + 16:] = np.linspace(b, a, half - 15)[:-1]
    return rho


@pytest.mark.parametrize("n", [64, 72, 256, 1024])
def test_lag_bounds_sandwich_the_table(n):
    fields = list(pruning_fields(n).values())
    if n >= 256:
        fields.append(rounding_field(n))
    for rho in fields:
        lo, hi = diagnostics._lag_bounds(rho)
        d = roll_lag_table(rho, n)[1]
        assert np.all(lo <= d) and np.all(d <= hi)


def test_log_inverse_bounds_sandwich_newton():
    # the closed-form bounds the pruning for B reads, on both branches
    for p in PRUNING_GAUGES:
        head = p.delta - p.delta ** (1.0 + p.alpha / 2.0)
        diffs = np.concatenate(([0.0], np.geomspace(1e-12, 2.0, 400), [head]))
        args = (diffs, p.delta, p.gamma, p.alpha)
        below = diagnostics._log_inverse(*args, "below")
        exact = diagnostics._log_inverse(*args)
        above = diagnostics._log_inverse(*args, "above")
        assert np.all(below <= exact) and np.all(exact <= above)
        assert np.any(below < exact) and np.any(exact < above)


@pytest.mark.parametrize("call", ["moc_check", "moc_min_b"])
def test_modulus_checks_reject_a_field_off_the_grid(call, grid64):
    for rho in (np.ones(63), np.ones((2, 64)), np.ones(65)):
        with pytest.raises(GridMismatchError):
            if call == "moc_check":
                moc_check(rho, VALID, grid64)
            else:
                moc_min_b(rho, 0.2, 0.02, 0.5, grid64)


def test_recorder_modulus_columns_match_the_full_table_bit_for_bit():
    # the reference problem of the verify benchmark; its output check
    # allows 1 % on moc_min_b, so it would not see a pruning error
    n = 1024
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=0.2))
    pot = PotentialSpec(k=1.0, kreg=RegularPotential(kind="cosine", amp=0.05))
    state = make_initial("cosine", Grid(n), kernel, pot, rho_amp=0.5, u_amp=0.5)
    p = VERIFY_GAUGE
    rows = []
    rec = DiagnosticsRecorder(moc=p, moc_every=10)
    out = run(state, StepControl(t_end=0.1),
              (rec, lambda step, s: rows.append(s.rho) if step % 10 == 0 else None))
    assert out.status is RunStatus.COMPLETED and len(rows) >= 10
    want_pass, want_b = [], []
    for rho in rows:
        full = full_table(rho, n)
        want_pass.append(1.0 if diagnostics._moc_report(full, p, n).passed else 0.0)
        want_b.append(diagnostics._min_b(full, p.delta, p.gamma, p.alpha))
    got_pass, got_b = out.log.column("moc_pass"), out.log.column("moc_min_b")
    assert got_pass[~np.isnan(got_pass)].tolist() == want_pass
    assert got_b[~np.isnan(got_b)].tolist() == want_b


# (delta, gamma, alpha) of the moc_min_b pins
MIN_B_GAUGES = ((0.2, 0.02, 0.5), (0.1, 0.029, 0.5), (0.05, 0.01, 1.0))


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_moc_min_b_matches_reference_bisection(n):
    # the bisection returns a passing b at most 1 % above the infimum
    fields = lag_table_fields(n)
    del fields["inf"]
    for name, rho in fields.items():
        for delta, gamma, alpha in MIN_B_GAUGES:
            want = reference_min_b(rho, delta, gamma, alpha, n)
            got = moc_min_b(rho, delta, gamma, alpha, Grid(n))
            assert want / 1.01 <= got <= want, (name, delta)
    # b xi = delta exactly at xi = 1/32, where the two branches differ in the last bit
    p = ModulusParams(delta=0.1, gamma=0.02, b=3.2, alpha=0.5)
    dists = roll_lag_table(fields["cosine"], n)[0]
    assert np.any(p.b * dists == p.delta)
    assert np.array_equal(omega_b(dists, p), reference_omega_b(dists, p))
    for rho in fields.values():
        rep = moc_check(rho, p, Grid(n))
        want = reference_omega_b(dists, p) - roll_lag_table(rho, n)[1]
        assert np.array_equal(rep.margin, np.min(want), equal_nan=True)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_moc_min_b_is_the_infimum_of_the_passing_b(n):
    fields = lag_table_fields(n)
    del fields["inf"], fields["nan"]
    # a jump of 0.05 is below delta - delta^(1+a/2) at delta = 0.2, so there
    # every lag's threshold comes from the power branch and lag 1 binds
    fields["small step"] = np.where(np.arange(n) < n // 2, 1.0, 1.05)
    grid = Grid(n)
    for name, rho in fields.items():
        for delta, gamma, alpha in MIN_B_GAUGES:
            got = moc_min_b(rho, delta, gamma, alpha, grid)
            assert 1.0 < got < math.inf, (name, delta)
            above = moc_check(rho, ModulusParams(delta, gamma, got * (1 + 1e-9), alpha), grid)
            below = moc_check(rho, ModulusParams(delta, gamma, got * (1 - 1e-9), alpha), grid)
            assert above.passed and not below.passed, (name, delta)
            if name == "small step" and delta == 0.2:
                assert below.distance == 1 / n and got / n < delta


def test_moc_min_b_rejects_invalid_parameters(grid64):
    for rho in (np.full(64, 1.0), 1.0 + 0.3 * np.cos(2 * np.pi * grid64.x)):
        for delta, gamma in ((1.5, 0.02), (0.0, 0.02), (0.2, -1.0), (0.2, 0.2)):
            with pytest.raises(ValueError):
                moc_min_b(rho, delta, gamma, 0.5, grid64)


def test_moc_min_b_constant_field(grid64):
    assert moc_min_b(np.full(64, 1.0), 0.2, 0.02, 0.5, grid64) == 1.0


def test_moc_min_b_monotone_in_amplitude(grid64):
    vals = [
        moc_min_b(1.0 + a * np.cos(2 * np.pi * grid64.x), 0.2, 0.02, 0.5, grid64)
        for a in (0.1, 0.2, 0.4)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_moc_min_b_matches_grid_search_oracle(grid64):
    rho = 1.0 + 0.25 * np.cos(2 * np.pi * grid64.x)
    delta, gamma, alpha = 0.2, 0.02, 0.5
    got = moc_min_b(rho, delta, gamma, alpha, grid64)
    # exhaustive geometric scan
    bs = np.geomspace(1.0, 1e30, 4000)
    ok = [moc_check(rho, ModulusParams(delta, gamma, b, alpha), grid64).passed for b in bs]
    oracle = bs[int(np.argmax(ok))]
    assert got == pytest.approx(oracle, rel=0.05)


def moc_oracle_margin(rho, p, grid):
    """Brute force over every pair i < j: min of w_B(d) - |rho_i - rho_j|,
    with d the periodic distance."""
    n = grid.n
    margin = math.inf
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        d = np.minimum(j - i, n - (j - i)) / n
        margin = min(margin, float(np.min(omega_b(d, p) - np.abs(rho[i] - rho[j]))))
    return margin


def moc_oracle_first_pair(rho, p, grid):
    """Brute force over every lag l and start i: the pair (i, i + l) of the
    smallest gap w_B(l/n) - |rho_i - rho_{i+l}|, smallest l first, then
    smallest i, and its distance."""
    n = grid.n
    w = omega_b(np.arange(1, n // 2 + 1) / n, p)
    best, pair, dist = math.inf, None, None
    for lag in range(1, n // 2 + 1):
        for i in range(n):
            gap = w[lag - 1] - abs(rho[i] - rho[(i + lag) % n])
            if gap < best:
                best, pair, dist = gap, (i, (i + lag) % n), lag / n
    return pair, dist


def test_moc_check_and_min_b_match_all_pairs_oracle(grid64):
    delta, gamma, alpha = 0.2, 0.02, 0.5
    rng = np.random.default_rng(7)
    fields = [(grid64, 1.0 + 0.25 * np.cos(2 * np.pi * grid64.x))]
    for _ in range(2):
        fields += [(grid64, random_positive_field(grid64, rng)),
                   (grid64, random_smooth_field(grid64, rng, offset=1.0))]
    fields.append((Grid(256), step_field(256)))
    verdicts = set()
    for grid, rho in fields:
        for b in (1.5, 50.0, 1e6, 1e30):
            p = ModulusParams(delta, gamma, b, alpha)
            rep = moc_check(rho, p, grid)
            margin = moc_oracle_margin(rho, p, grid)
            assert rep.margin == margin
            assert rep.passed == (margin > 0.0)
            assert (rep.pair, rep.distance) == moc_oracle_first_pair(rho, p, grid)
            verdicts.add(rep.passed)
        min_b = moc_min_b(rho, delta, gamma, alpha, grid)
        assert 1.0 < min_b < math.inf
        above = ModulusParams(delta, gamma, min_b * (1 + 1e-9), alpha)
        assert moc_oracle_margin(rho, above, grid) > 0.0
        below = ModulusParams(delta, gamma, min_b * (1 - 1e-9), alpha)
        assert moc_oracle_margin(rho, below, grid) <= 0.0
    assert verdicts == {True, False}


def test_moc_min_b_unreachable_returns_inf(grid64):
    rho = 1.0 + 0.9 * np.cos(2 * np.pi * grid64.x)
    # gamma so tiny the log branch can never reach the oscillation
    assert moc_min_b(rho, 1e-4, 1e-6, 0.5, grid64) == math.inf


def test_initial_modulus_selection_passes(grid64):
    # slope/size selection: delta below 2|rho0|/|rho0'|, B above the
    # matching exponential threshold, makes the initial data obey w_B
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * grid64.x)
    sup, slope = 1.3, 0.3 * 2 * np.pi
    delta, gamma = 0.3, 0.02
    assert delta < 2 * sup / slope
    b = 1.01 * (delta * slope / (2 * sup)) * math.exp(2 * sup / gamma)
    rep = moc_check(rho, ModulusParams(delta, gamma, b, 0.5), grid64)
    assert rep.passed


def test_certified_params_t_independent_without_forcing():
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.01, u_amp=0.01 * (2 * np.pi) ** -0.5)
    bc = bound_constants(st)
    p1 = certified_modulus_params(st, bc, t_end=1.0)
    p2 = certified_modulus_params(st, bc, t_end=4.0)
    assert p1.delta == pytest.approx(p2.delta, rel=1e-12)
    assert p1.gamma == pytest.approx(p2.gamma, rel=1e-12)
    # certified b is double exponential (exp(2 |rho0|/gamma)) and overflows
    # to +inf even here; both horizons must still agree
    assert p1.b == p2.b
    # slope condition from the initial data
    from epasim.spectral import derivative
    drho0 = float(np.max(np.abs(derivative(st.rho, g))))
    assert p1.delta < 2 * bc.rho0_max / drho0


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["c2", "c3"])
def test_certified_params_reject_c2_c3_not_finite_and_positive(name, c):
    st = make_initial("cosine", Grid(64), EA, rho_amp=0.3)
    with pytest.raises(ValueError, match="c2, c3"):
        certified_modulus_params(st, bound_constants(st), 1.0, **{name: c})


def test_certified_params_monotone_in_horizon():
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.3, potential=PotentialSpec(k=1.0))
    bc = bound_constants(st)
    ps = [certified_modulus_params(st, bc, t_end=t) for t in (0.5, 1.0, 2.0)]
    deltas = [p.delta for p in ps]
    gammas = [p.gamma for p in ps]
    assert deltas == sorted(deltas, reverse=True)
    assert gammas == sorted(gammas, reverse=True)
    # certified b blows past float range quickly once forcing is on
    bs = [p.b for p in ps]
    assert bs == sorted(bs)


def test_certified_params_obeyed_by_initial_data():
    g = Grid(128)
    st = make_initial("cosine", g, EA, rho_amp=0.01, u_amp=0.01 * (2 * np.pi) ** -0.5)
    bc = bound_constants(st)
    p = certified_modulus_params(st, bc, t_end=2.0)
    min_b = moc_min_b(st.rho, p.delta, p.gamma, p.alpha, g)
    assert np.isfinite(min_b)
    rep = moc_check(st.rho, ModulusParams(p.delta, p.gamma, 1.05 * min_b, p.alpha), g)
    assert rep.passed


# ---------------------------------------------------------------------------
# accumulation and log plumbing


def recorded_bkm(t, drho):
    """Last bkm of a recorder fed states with |d rho/dx|_inf = drho[i] at t[i]."""
    g = Grid(64)
    st = make_initial("uniform", g, EA)
    rec = DiagnosticsRecorder()
    for step, (ti, a) in enumerate(zip(t, drho)):
        rho = 1.0 + a / (2 * np.pi) * np.cos(2 * np.pi * g.x)
        rec(step, with_fields(st, rho=rho, t=float(ti)))
    return rec.log.bkm[-1]


def test_bkm_constant_gradient():
    t = np.linspace(0, 2, 21)
    assert recorded_bkm(t, np.full(t.size, 3.0)) == pytest.approx(9.0 * 2.0, rel=1e-12)


def test_bkm_equilibrium_zero():
    t = np.linspace(0, 2, 21)
    assert recorded_bkm(t, np.zeros(t.size)) == 0.0


def test_bkm_linear_ramp():
    t = np.linspace(0, 1, 2001)
    assert recorded_bkm(t, t) == pytest.approx(1.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("moc_every", [0, -3, 2.5, 2.0, True])
def test_recorder_rejects_invalid_moc_every(moc_every):
    # refused when the recorder is built, not rounded to a cadence
    with pytest.raises(ValueError, match="moc_every"):
        DiagnosticsRecorder(moc=VALID, moc_every=moc_every)


def test_recorder_and_csv_round_trip(tmp_path):
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.2, u_amp=0.1,
                      potential=PotentialSpec(k=0.5))
    bc = bound_constants(st)
    rec = DiagnosticsRecorder(bounds=bc, moc=VALID, moc_every=5, config_hash="cafe")
    out = run(st, StepControl(t_end=0.5), monitors=(rec,))
    assert out.status is RunStatus.COMPLETED
    log = rec.log
    assert out.log is log
    t = log.column("t")
    assert np.all(np.diff(t) > 0)
    bkm = log.column("bkm")
    assert np.all(np.diff(bkm) >= 0)
    drho_sq = log.column("drho_inf") ** 2
    trapezoid = float(np.sum(0.5 * (drho_sq[1:] + drho_sq[:-1]) * np.diff(t)))
    assert trapezoid == pytest.approx(bkm[-1], rel=1e-12)
    # moc evaluated at the requested cadence only
    mp = log.column("moc_pass")
    assert np.isnan(mp[1]) and mp[0] in (0.0, 1.0) and mp[5] in (0.0, 1.0)
    path = tmp_path / "diag.csv"
    log.to_csv(str(path))
    back = DiagnosticsLog.from_csv(str(path))
    assert back.n == 64 and back.config_hash == "cafe"
    for name in COLUMNS:
        a = log.column(name)
        b = back.column(name)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        np.testing.assert_array_equal(a[~np.isnan(a)], b[~np.isnan(b)])


def test_csv_round_trip_through_a_path_and_a_stream(tmp_path):
    log = synthetic_log(np.linspace(0.0, 1.0, 5), 0.9, np.linspace(1.1, 1.3, 5), k=-1.0)
    log.config_hash = "beef"
    path = tmp_path / "log.csv"
    log.to_csv(path)
    stream = io.StringIO()
    log.to_csv(stream)
    assert not stream.closed and stream.getvalue() == path.read_text(encoding="utf-8")
    stream.seek(0)
    for back in (DiagnosticsLog.from_csv(path), DiagnosticsLog.from_csv(stream)):
        assert (back.n, back.alpha, back.k, back.config_hash) == (256, 0.5, -1.0, "beef")
        for name in COLUMNS:
            np.testing.assert_array_equal(back.column(name), log.column(name))


def test_envelope_margins_fold_in_the_grid_slack():
    g = Grid(64)
    st = make_initial("cosine", g, EA, rho_amp=0.2, u_amp=0.1, potential=PotentialSpec(k=0.5))
    bc = bound_constants(st)
    rec = DiagnosticsRecorder(bounds=bc)
    run(st, StepControl(t_end=0.05), monitors=(rec,))
    log = rec.log
    t, slack = log.column("t"), 1.0 + 10.0 / 64
    low = log.column("rho_min") * slack / (bc.c_m * np.exp(-bc.a_m * t))
    up = np.asarray(bc.rho_max_bound(t)) * slack / log.column("rho_max")
    np.testing.assert_allclose(log.column("env_lower_margin"), low, rtol=1e-14)
    np.testing.assert_allclose(log.column("env_upper_margin"), up, rtol=1e-14)
    assert check_lower_envelope(log, bc).margin == pytest.approx(low.min(), rel=1e-14)
    assert check_upper_envelope(log, bc).margin == pytest.approx(up.min(), rel=1e-14)


def test_from_csv_rejects_unexpected_columns():
    # the headers with a momentum column, and with the spellings F_inf and moc_min_B
    for old in ("t,rho_min,rho_max,F_inf,drho_inf,bkm,mass,momentum,env_lower_margin,"
                "env_upper_margin,moc_pass,moc_min_B\n",
                "t,rho_min,rho_max,F_inf,drho_inf,bkm,mass,env_lower_margin,"
                "env_upper_margin,moc_pass,moc_min_B\n"):
        with pytest.raises(ValueError, match="unexpected diagnostics columns"):
            DiagnosticsLog.from_csv(io.StringIO("# n=64 alpha=0.5 k=0.0\n" + old))


def test_from_csv_rejects_a_header_without_the_grid_line():
    # without the n/alpha/k line the log had n = 0, and log.dx divided by it
    log = synthetic_log(np.linspace(0.0, 1.0, 3), 0.9, np.linspace(1.1, 1.3, 3))
    stream = io.StringIO()
    log.to_csv(stream)
    text = "".join(line for line in stream.getvalue().splitlines(keepends=True)
                   if not line.startswith("# n="))
    with pytest.raises(ValueError, match="header lacks n, alpha, k"):
        DiagnosticsLog.from_csv(io.StringIO(text))
    with pytest.raises(ValueError, match="header lacks k"):
        DiagnosticsLog.from_csv(io.StringIO("# n=64 alpha=0.5\n" + ",".join(COLUMNS) + "\n"))


def test_from_csv_rejects_a_short_row_with_its_line_number():
    # zip truncated a short row, which left columns of unequal length
    log = synthetic_log(np.linspace(0.0, 1.0, 3), 0.9, np.linspace(1.1, 1.3, 3))
    stream = io.StringIO()
    log.to_csv(stream)
    lines = stream.getvalue().splitlines(keepends=True)
    assert lines[4].count(",") == len(COLUMNS) - 1  # the second data row
    lines[4] = ",".join(lines[4].split(",")[:-2]) + "\n"
    with pytest.raises(ValueError, match=f"line 5: {len(COLUMNS) - 2} fields, "
                                         f"expected {len(COLUMNS)}"):
        DiagnosticsLog.from_csv(io.StringIO("".join(lines)))


def test_recorder_slope_bound_linkage():
    g = Grid(128)
    st = make_initial("cosine", g, EA, rho_amp=0.3)
    min_b = moc_min_b(st.rho, 0.2, 0.02, 0.5, g)
    rep = moc_check(st.rho, ModulusParams(0.2, 0.02, 1.05 * min_b, 0.5), g)
    assert rep.passed
    from epasim.spectral import derivative
    drho = float(np.max(np.abs(derivative(st.rho, g))))
    assert drho <= 1.05 * min_b * (1.0 + 5.0 * g.dx ** 0.25)

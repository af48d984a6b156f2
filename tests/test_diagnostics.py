import io
import math
from dataclasses import replace
from types import SimpleNamespace

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
    check_f_bound,
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
from conftest import random_positive_field, random_smooth_field, tracemalloc_held
from oracles import (
    certified_modulus_params,
    check_f_transported,
    psi_alpha_min,
    reference_min_b,
    reference_omega_b,
    rho_max_envelope,
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
    assert float(rho_max_envelope(bc, 0.0)) >= lip and float(bc.rho_max_bound(0.0)) >= lip
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
    # 0 divided by zero, and -1 and NaN gave a finite envelope with no error
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

    monkeypatch.setattr(diagnostics, "_plain_table", no_table)
    p = ModulusParams(delta=0.2, gamma=0.02, b=math.inf, alpha=0.5)
    rep = moc_check(1.0 + 0.3 * np.cos(2 * np.pi * grid64.x), p, grid64)
    assert rep.passed
    assert rep.margin == math.inf
    assert rep.distance == 0.5
    assert rep.pair == (0, 0)


def test_moc_check_infinite_b_fails_a_non_finite_field(grid64, monkeypatch):
    # no pair can bind at b = inf, but a NaN or +-inf sample fails, still
    # without a table, as the recorder's NaN B fails every b
    def no_table(*args):
        raise AssertionError("moc_check built the lag table for b = inf")

    monkeypatch.setattr(diagnostics, "_plain_table", no_table)
    p = ModulusParams(delta=0.2, gamma=0.02, b=math.inf, alpha=0.5)
    for bad in (np.nan, np.inf, -np.inf):
        rho = 1.0 + 0.3 * np.cos(2 * np.pi * grid64.x)
        rho[5] = bad
        rep = moc_check(rho, p, grid64)
        assert not rep.passed and math.isnan(rep.margin)


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
    """``_plain_table``'s layout (lags, D, argmax) over all n/2 lags, from
    the roll loop."""
    _, diffs, at = roll_lag_table(rho, n)
    return np.arange(1, n // 2 + 1), diffs, at


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_lag_table_matches_roll_loop_bit_for_bit(n):
    # the plain table is the roll loop's, first argmax included; every lag
    # the pruned table keeps carries the roll loop's D, and a non-finite
    # field keeps all n/2 lags, so a NaN still reaches B
    for name, rho in lag_table_fields(n).items():
        want = full_table(rho, n)
        plain = diagnostics._plain_table(rho, n)
        assert [a.dtype for a in plain] == [b.dtype for b in want], name
        for a, b in zip(plain, want):
            assert np.array_equal(a, b, equal_nan=True), name
        lags, diffs = diagnostics._lag_table(rho, n, VERIFY_GAUGE)
        assert [lags.dtype, diffs.dtype] == [want[0].dtype, want[1].dtype], name
        assert lags.size > 0 and np.all(np.diff(lags) > 0), name
        if name in ("nan", "inf"):
            assert np.array_equal(lags, want[0]), name
        assert np.array_equal(diffs, want[1][lags - 1], equal_nan=True), name


def tent_field(n):
    """Period-32 tent in steps of 0.01: D is 0.16 at every lag 16 (mod 32),
    from a pair in every period, so the maximum ties across many lags and
    across every block of samples."""
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
    # the pruned table's unclamped log B is the full table's, bit for bit,
    # and so is moc_min_b; the recorder's verdict, log b above it, is the
    # check's over all pairs
    lags, diffs, _ = full_table(rho, n)
    want = diagnostics._top((lags, diffs), p, n)
    assert diagnostics._top(diagnostics._lag_table(rho, n, p), p, n) == want
    grid = Grid(n)
    assert moc_min_b(rho, p.delta, p.gamma, p.alpha, grid) == diagnostics._min_b(want)
    assert moc_check(rho, p, grid).passed == (math.log(p.b) > want)


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


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([64, 72, 128, 200, 256, 1024]),
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
    """A field whose D at lag n/2 rounds up past a bound made of sampled
    differences plus exact widths, lo + 16 L1 with lo from every 16th sample.

    The samples 0 and 16 see a - b = 1.5 + 2^-52 + 2^-54, rounded down to
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


def wrap_field(n):
    """A peak at sample n - 2 and a dip at sample 3: D[5] = 2 comes from a
    pair whose partner wraps past sample n - 1."""
    rho = np.ones(n)
    rho[n - 2], rho[3] = 2.0, 0.0
    return rho


@pytest.mark.parametrize("n", [64, 72, 200, 256, 1024])
def test_lag_bounds_sandwich_the_table(n):
    # the bound on each pair of a lag block and a sample block lies between
    # the largest |rho_i - rho_{i+l}| over the pair and the largest difference
    # between the block's samples and its two partner blocks; ragged blocks
    # (s = 7) and the rounding field included, as the bound has no slack
    half = n // 2
    fields = [*pruning_fields(n).values(), wrap_field(n)]
    if n >= 256:
        fields.append(rounding_field(n))
    for rho in fields:
        table = np.abs(rho - np.stack([np.roll(rho, -lag) for lag in range(1, half + 1)]))
        for s in (1 << (n.bit_length() - 1) // 2, 7):
            nb, nl = -(-n // s), -(-half // s)
            bound = diagnostics._block_bounds(rho, s, nb, nl)
            pairs = np.maximum.reduceat(table, np.arange(0, half, s), axis=0)
            assert np.all(np.maximum.reduceat(pairs, np.arange(0, n, s), axis=1) <= bound)
            rows = np.resize(rho, (nb + nl, s))
            for lam in range(nl):
                for b in range(nb):
                    partners = rows[b + lam:b + lam + 2].ravel()
                    assert np.abs(rows[b][:, None] - partners).max() == bound[lam, b]


def test_log_inverse_bounds_sandwich_newton():
    # the closed-form bound from below the pruning for B reads: exact on the
    # log branch, below Newton's root on the power branch
    for p in PRUNING_GAUGES:
        head = p.delta - p.delta ** (1.0 + p.alpha / 2.0)
        diffs = np.concatenate(([0.0], np.geomspace(1e-12, 2.0, 400), [head]))
        args = (diffs, p.delta, p.gamma, p.alpha)
        below = diagnostics._log_inverse(*args, below=True)
        exact = diagnostics._log_inverse(*args)
        assert np.all(below <= exact) and np.any(below < exact)
        assert np.array_equal(below[diffs >= head], exact[diffs >= head])


def count_refinement(monkeypatch):
    """Counts of the block pairs ``_lag_table`` refines by tiles and of its
    passes over all n samples, through patched helpers."""
    counts = {"pairs": 0, "passes": 0}
    tiles, passes = diagnostics._tiles, diagnostics._passes

    def counted_tiles(rho, s, blocks, lags, buf):
        counts["pairs"] += blocks.size
        return tiles(rho, s, blocks, lags, buf)

    def counted_passes(rho, lags, buf):
        counts["passes"] += lags.size
        return passes(rho, lags, buf)

    monkeypatch.setattr(diagnostics, "_tiles", counted_tiles)
    monkeypatch.setattr(diagnostics, "_passes", counted_passes)
    return counts


def test_pruning_refines_a_few_block_pairs(monkeypatch):
    # a timing-free guard on the branch and bound: on a smooth field the
    # verify gauge refines a handful of the 512 block pairs, and a constant
    # field, where every pair ties, takes no more passes than the full table
    n = 1024
    counts = count_refinement(monkeypatch)
    rho = 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
    diagnostics._lag_table(rho, n, VERIFY_GAUGE)
    assert counts["pairs"] <= 16 and counts["passes"] <= 4
    counts.update(pairs=0, passes=0)
    # every sample block of lag block 0 survives, so it takes passes, no tiles
    diagnostics._lag_table(np.full(n, 2.3), n, VERIFY_GAUGE)
    assert counts["pairs"] == 0 and counts["passes"] <= n // 2


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
        lags, diffs, _ = full_table(rho, n)
        want_pass.append(1.0 if moc_check(rho, p, Grid(n)).passed else 0.0)
        want_b.append(diagnostics._min_b(diagnostics._top((lags, diffs), p, n)))
    got_pass, got_b = out.log.column("moc_pass"), out.log.column("moc_min_b")
    assert got_pass[~np.isnan(got_pass)].tolist() == want_pass
    assert got_b[~np.isnan(got_b)].tolist() == want_b


def modulus_row(rho, p, grid):
    """moc_pass and moc_min_b of one modulus row on the field rho, through a
    stand-in for a state that holds what a row reads."""
    st = SimpleNamespace(grid=grid, t=0.0, rho=rho, g=np.zeros(grid.n), drho_inf=0.0,
                         kernel=SimpleNamespace(alpha=p.alpha), potential=SimpleNamespace(k=0.0))
    rec = DiagnosticsRecorder(moc=p, moc_every=1)
    rec(0, st)
    return rec.log.moc_pass[0], rec.log.moc_min_b[0]


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_recorder_verdict_is_the_checks(n):
    # the recorder reads moc_pass off the table for B alone, as log b above
    # the unclamped log of the smallest passing B; moc_check compares every
    # pair. Random band-limited fields, at b on both sides of the infimum,
    # as close as 1e-12 relative, and at b = inf
    grid = Grid(n)
    rng = np.random.default_rng(n)
    cases = 0
    for _ in range(6):
        rho = 1.0 + random_smooth_field(grid, rng, amp=10.0 ** rng.uniform(-1.5, 0.0))
        for delta, gamma, alpha in MIN_B_GAUGES:
            min_b = moc_min_b(rho, delta, gamma, alpha, grid)
            assert 1.0 < min_b < math.inf
            for factor in (0.5, 1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 2.0, math.inf):
                b = min_b * factor
                if b < 1.0:
                    continue
                p = ModulusParams(delta, gamma, b, alpha)
                passed = moc_check(rho, p, grid).passed
                assert passed == (factor > 1.0), (delta, factor)
                assert modulus_row(rho, p, grid) == (1.0 if passed else 0.0, min_b)
                cases += 1
    assert cases >= 100


def test_recorder_verdict_at_b_one_with_min_b_clamped_to_one():
    # every log W^-1(D) - log xi lies below 0, so min_b is clamped to 1 and
    # b = 1 passes: "b > min_b" would call it a fail
    grid = Grid(256)
    rho = 1.0 + 1e-3 * np.cos(2 * np.pi * grid.x)
    p = replace(VERIFY_GAUGE, b=1.0)
    assert moc_min_b(rho, p.delta, p.gamma, p.alpha, grid) == 1.0
    assert moc_check(rho, p, grid).passed
    assert modulus_row(rho, p, grid) == (1.0, 1.0)


def test_recorder_verdict_on_a_nan_field():
    # a NaN keeps every lag, and its NaN B fails every b, inf included
    for n in (64, 256, 1024):
        grid = Grid(n)
        rho = 1.0 + 0.3 * np.cos(2 * np.pi * grid.x)
        rho[n // 3] = np.nan
        for b in (1.0, 1e14, math.inf):
            p = replace(VERIFY_GAUGE, b=b)
            assert not moc_check(rho, p, grid).passed
            assert modulus_row(rho, p, grid) == (0.0, math.inf)


def test_recorder_verdict_at_infinite_b_reads_finiteness():
    # at b = inf no pair binds, so a finite field passes however far its
    # differences push log W^-1(D) - log xi: at 1e307 it overflows to +inf,
    # as it does for an infinite sample, which fails. moc_min_b is +inf for both
    grid = Grid(64)
    p = replace(VERIFY_GAUGE, b=math.inf)
    rho = np.ones(grid.n)
    rho[grid.n // 3] = 1e307
    with np.errstate(over="ignore"):
        assert moc_check(rho, p, grid).passed
        assert modulus_row(rho, p, grid) == (1.0, math.inf)
    rho[grid.n // 3] = math.inf
    assert not moc_check(rho, p, grid).passed
    assert modulus_row(rho, p, grid) == (0.0, math.inf)


def test_a_modulus_row_builds_one_lag_table(monkeypatch, grid64):
    # one pruned table per modulus row gives both columns, and no row reads
    # the plain table of moc_check
    calls = []
    table = diagnostics._lag_table

    def counted(*args):
        calls.append(args)
        return table(*args)

    def no_plain(*args):
        raise AssertionError("a recorder row read the plain lag table")

    monkeypatch.setattr(diagnostics, "_lag_table", counted)
    monkeypatch.setattr(diagnostics, "_plain_table", no_plain)
    st = make_initial("cosine", grid64, EA, rho_amp=0.4, u_amp=0.3)
    out = run(st, StepControl(t_end=0.05), (DiagnosticsRecorder(moc=VERIFY_GAUGE, moc_every=3),))
    rows = int(np.sum(~np.isnan(out.log.column("moc_pass"))))
    assert rows >= 2 and len(calls) == rows


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


@pytest.mark.parametrize("t_end", [-1.0, math.nan])
def test_certified_params_reject_a_negative_or_nan_horizon(t_end):
    st = make_initial("cosine", Grid(64), EA, rho_amp=0.3)
    with pytest.raises(ValueError, match="t_end"):
        certified_modulus_params(st, bound_constants(st), t_end)


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


def test_recorder_plain_columns_read_the_state(grid64):
    # a plain row's reductions through ndarray methods: the bits of np.min,
    # np.max and np.mean, and |g/rho|_inf from a negative entry here
    st = make_initial("cosine", grid64, EA, rho_amp=0.3)
    st = with_fields(st, g=2.0 * np.cos(2.0 * np.pi * grid64.x))
    f = st.g / st.rho
    assert -f.min() > f.max()
    rec = DiagnosticsRecorder()
    rec(0, st)
    log = rec.log
    assert (list(log.rho_min), list(log.rho_max)) == ([float(np.min(st.rho))],
                                                      [float(np.max(st.rho))])
    assert list(log.f_inf) == [float(np.max(np.abs(f)))]
    assert list(log.mass) == [float(np.mean(st.rho))]


def test_a_reused_recorder_starts_a_log_per_run(grid64):
    # step 0 starts a new log: each run's t increases and its bkm starts
    # from 0, and the first run's log stays as it was under the second
    st = make_initial("cosine", grid64, EA, rho_amp=0.4, u_amp=0.3)
    rec = DiagnosticsRecorder()
    ctl = StepControl(t_end=0.05)
    first = run(st, ctl, (rec,))
    kept = {name: first.log.column(name) for name in COLUMNS}
    second = run(st, ctl, (rec,))
    assert first.log is not second.log and second.log is rec.log
    for out in (first, second):
        t, bkm = out.log.column("t"), out.log.column("bkm")
        assert t.size == out.steps + 1 > 3 and np.all(np.diff(t) > 0)
        assert bkm[0] == 0.0 and np.all(np.diff(bkm) >= 0)
    for name in COLUMNS:
        np.testing.assert_array_equal(first.log.column(name), kept[name])


def test_a_log_value_costs_8_bytes(grid64):
    # the bytes a recorder run of over 2000 rows leaves held, its outcome
    # dropped, per logged value: a typed float64 column holds 8 bytes a
    # value and a sixteenth of its length spare (measured 8.53, and 27.7
    # with a Python float in a list per value)
    st = make_initial("cosine", grid64, EA, rho_amp=0.4, u_amp=0.3)
    ctl = StepControl(t_end=0.2, dt_max=1e-4)
    rec = DiagnosticsRecorder()
    run(st, ctl, (rec,))  # the first calls' one-off costs, outside the count

    def run_dropped():
        run(st, ctl, (rec,))

    held = tracemalloc_held(run_dropped, grid64.n)[1] * 8 * grid64.n
    rows = len(rec.log.t)
    assert rows >= 2000 and held <= 10 * rows * len(COLUMNS)


def test_a_kept_column_lets_the_log_grow(grid64):
    # column() copies: a view of a typed column would make the next append
    # raise BufferError, and would not keep its values
    st = make_initial("cosine", grid64, EA, rho_amp=0.3)
    rec = DiagnosticsRecorder()
    rec(0, st)
    t = rec.log.column("t")
    for step in (1, 2):
        rec(step, with_fields(st, t=0.1 * step))
    assert t.tolist() == [0.0] and list(rec.log.t) == [0.0, 0.1, 0.2]


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

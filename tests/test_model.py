from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epasim import model, spectral
from epasim.kernels import KernelSpec, LipschitzKernel, PotentialSpec, RegularPotential
from epasim.model import (
    NonFiniteError,
    Problem,
    SimState,
    VacuumError,
    make_initial,
    recover_velocity,
    rhs,
)
from epasim.spectral import Grid, GridMismatchError, MeanViolationError, convolve, derivative, mean
from conftest import (
    KERNEL_POTENTIAL_PAIRS,
    clear_caches,
    random_positive_field,
    random_smooth_field,
)
from oracles import (
    alignment_direct,
    alignment_spectral,
    composed_rhs,
    composed_velocity,
    compute_g,
    fractional_laplacian,
    initial_fields,
    newtonian_force,
    psi_l_conv,
    regular_force,
    with_fields,
)

EA_KERNEL = KernelSpec(c=1.0, alpha=0.5)


def state_from(rho, u, kernel, grid, potential=None, m0=None):
    g = compute_g(rho, u, kernel, grid)
    problem = Problem(grid, kernel, potential or PotentialSpec(), mean(rho),
                      mean(rho * u) if m0 is None else m0)
    return SimState(problem, np.stack((rho, g)), 0.0)


def test_compute_g_constant_density_zero_velocity(grid64):
    g = compute_g(np.ones(64), np.zeros(64), EA_KERNEL, grid64)
    assert np.max(np.abs(g)) < 1e-13


def test_compute_g_single_mode(grid64):
    u = np.sin(2 * np.pi * grid64.x)
    g = compute_g(np.ones(64), u, EA_KERNEL, grid64)
    np.testing.assert_allclose(g, 2 * np.pi * np.cos(2 * np.pi * grid64.x), atol=1e-12)


@pytest.mark.parametrize("psi_l", [
    LipschitzKernel(),
    LipschitzKernel(kind="cosine", a=1.0, b=0.4),
    LipschitzKernel(kind="constant", a=0.7),
])
def test_transform_round_trip(grid128, psi_l):
    rng = np.random.default_rng(21)
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=psi_l)
    for _ in range(3):
        rho = random_positive_field(grid128, rng)
        u = random_smooth_field(grid128, rng, offset=0.3)
        st = state_from(rho, u, kernel, grid128)
        got = recover_velocity(st)
        assert np.max(np.abs(got - u)) <= 1e-8
        # the defining relation du/dx = c Lambda^a rho + g - psi_l * rho
        lhs = derivative(got, grid128)
        rhs_ = kernel.c * fractional_laplacian(rho, kernel.alpha, grid128) + st.g - psi_l_conv(st)
        assert np.max(np.abs(lhs - rhs_)) <= 1e-8


def test_recover_velocity_equilibrium(grid64):
    st = state_from(np.full(64, 2.0), np.zeros(64), EA_KERNEL, grid64, m0=1.0)
    u = recover_velocity(st)
    np.testing.assert_allclose(u, np.full(64, 0.5), atol=1e-13)  # m0 / rho_bar
    st0 = state_from(np.full(64, 2.0), np.zeros(64), EA_KERNEL, grid64)
    assert np.max(np.abs(recover_velocity(st0))) < 1e-13


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_momentum_pinned_exactly(seed):
    grid = Grid(64)
    rng = np.random.default_rng(seed)
    rho = random_positive_field(grid, rng)
    u = random_smooth_field(grid, rng, offset=-0.2)
    st = state_from(rho, u, EA_KERNEL, grid)
    u = recover_velocity(st)
    assert abs(mean(rho * u) - st.m0) <= 1e-12 * max(1.0, abs(st.m0))


def test_recover_velocity_vacuum(grid64):
    # a state at vacuum has no velocity: building it raises
    rho = np.full(64, 1.0)
    rho[5] = 1e-12
    with pytest.raises(VacuumError, match="min density"):
        SimState(Problem(grid64, EA_KERNEL, PotentialSpec(), mean(rho), 0.0),
                 np.stack((rho, np.zeros(64))), 0.0)


def test_rhs_equilibrium_is_zero(grid64):
    st = state_from(np.ones(64), np.zeros(64), EA_KERNEL, grid64,
                    potential=PotentialSpec(k=1.0))
    drho, dg, u_inf = rhs(st)
    assert u_inf < 1e-13
    assert np.max(np.abs(drho)) < 1e-12
    assert np.max(np.abs(dg)) < 1e-12


def test_rhs_linear_mode_algebra(grid64):
    # rho = rho_bar, g = eps cos -> d(rho)/dt = -rho_bar * g + O(eps^2)
    eps, rho_bar = 1e-6, 1.3
    g = eps * np.cos(2 * np.pi * grid64.x)
    st = SimState(Problem(grid64, EA_KERNEL, PotentialSpec(k=1.0), rho_bar, 0.0),
                  np.stack((np.full(64, rho_bar), g)), 0.0)
    drho, dg, _ = rhs(st)
    np.testing.assert_allclose(drho, -rho_bar * g, atol=1e-12 + 1e-3 * eps**2)
    # u = eps sin(2 pi x) / (2 pi), so -d(g u)/dx = -eps^2 cos(4 pi x) exactly;
    # forcing acts on g only through rho - rho_bar = 0 here
    np.testing.assert_allclose(dg, -eps**2 * np.cos(4 * np.pi * grid64.x), rtol=0, atol=1e-20)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_rhs_preserves_means(seed):
    grid = Grid(64)
    rng = np.random.default_rng(seed)
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.8, b=0.2))
    pot = PotentialSpec(k=-0.7, kreg=RegularPotential(kind="cosine", amp=0.2))
    rho = random_positive_field(grid, rng)
    u = random_smooth_field(grid, rng)
    st = state_from(rho, u, kernel, grid, potential=pot)
    drho, dg, _ = rhs(st)
    assert abs(mean(drho)) < 1e-12
    # mean(psi_l * drho) = mean(psi_l) * mean(drho) = 0, so mean(dg) must vanish too
    assert abs(mean(dg)) < 1e-12


def test_alignment_direct_constant_velocity(grid64):
    rng = np.random.default_rng(41)
    rho = random_positive_field(grid64, rng)
    out = alignment_direct(rho, np.full(64, 0.9), EA_KERNEL, grid64, 2**12)
    assert np.max(np.abs(out)) < 1e-10


def test_alignment_direct_uniform_density(grid64):
    rho_bar = 1.4
    u = np.cos(2 * np.pi * grid64.x)
    got = alignment_direct(np.full(64, rho_bar), u, EA_KERNEL, grid64, 2**14)
    expect = -rho_bar * (2 * np.pi) ** 0.5 * u
    assert np.max(np.abs(got - expect)) <= 0.01 * np.max(np.abs(expect))


def test_alignment_commutator_identity(grid128):
    rng = np.random.default_rng(7)
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=1.0, b=0.4))
    for _ in range(3):
        rho = random_positive_field(grid128, rng)
        u = random_smooth_field(grid128, rng, offset=0.2)
        direct = alignment_direct(rho, u, kernel, grid128, 2**14)
        comm = alignment_spectral(rho, u, kernel, grid128)
        scale = np.max(np.abs(comm))
        assert np.max(np.abs(direct - comm)) <= 0.01 * scale


def test_alignment_direct_refinement_guard(grid64):
    with pytest.raises(ValueError):
        alignment_direct(np.ones(64), np.ones(64), EA_KERNEL, grid64, 32)


def test_make_initial_uniform_equilibrium(grid64):
    st = make_initial("uniform", grid64, EA_KERNEL)
    assert st.rho_bar == pytest.approx(1.0)
    assert st.m0 == 0.0
    assert np.max(np.abs(st.g)) < 1e-13
    st.validate()


def test_drho_inf_is_read_only_and_computed_once(grid64, monkeypatch):
    # the max of |irfft| of the band's density row times 2 pi i k, which a
    # fresh spectral derivative of the density gives to rounding
    st = make_initial("cosine", grid64, EA_KERNEL, rho_amp=0.3)
    band = np.fft.rfft(st.rho)[:grid64.band] * (2j * np.pi * np.arange(grid64.band))
    want = float(np.max(np.abs(np.fft.irfft(band, n=64))))
    assert st.drho_inf == want
    assert want == pytest.approx(float(np.max(np.abs(derivative(st.rho, grid64)))), rel=1e-12)
    assert st.drho_inf == pytest.approx(0.3 * 2 * np.pi, rel=1e-3)
    monkeypatch.setattr(spectral, "irfft", None)  # a second evaluation would fail
    assert st.drho_inf == want
    with pytest.raises(FrozenInstanceError):
        st.drho_inf = 0.0
    monkeypatch.undo()
    # a new state derives its own value
    assert with_fields(st, rho=np.ones(64)).drho_inf == 0.0


def test_make_initial_cosine_positive(grid64):
    st = make_initial("cosine", grid64, EA_KERNEL, rho_amp=0.6)
    assert np.min(st.rho) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(VacuumError):
        make_initial("cosine", grid64, EA_KERNEL, rho_amp=1.2)


@pytest.mark.parametrize("rho_base", [0.0, 1e-9])
def test_make_initial_below_floor_is_vacuum(grid64, rho_base):
    # one error for every preset at or below RHO_FLOOR, zero density included
    with pytest.raises(VacuumError):
        make_initial("uniform", grid64, EA_KERNEL, rho_base=rho_base)


def test_make_initial_rejects_unknown_params(grid64):
    with pytest.raises(ValueError):
        make_initial("cosine", grid64, EA_KERNEL, bogus=1.0)
    with pytest.raises(ValueError):
        make_initial("no-such-preset", grid64, EA_KERNEL)


def test_make_initial_burgers_characteristics_oracle(grid64):
    # inviscid transport: characteristics cross at t* = -1/min(u0'), here 1/(2 pi)
    st = make_initial("burgers-shock", grid64, KernelSpec(c=0.0, alpha=0.5))
    u0 = -np.sin(2 * np.pi * grid64.x)
    np.testing.assert_allclose(
        st.g, np.gradient(u0, grid64.x, edge_order=2), atol=0.05 * 2 * np.pi
    )
    du0 = -2 * np.pi * np.cos(2 * np.pi * grid64.x)
    t_star = -1.0 / du0.min()
    assert t_star == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)


def test_validate_flags_broken_mean(grid64):
    st = make_initial("cosine", grid64, EA_KERNEL, rho_amp=0.3)
    with pytest.raises(MeanViolationError, match="drifted"):
        SimState(st.problem, np.stack((st.rho + 0.1, st.g)), 0.0)


def test_state_shape_checked_at_construction(grid64):
    # fields sampled on another grid are refused when the state is built,
    # not when a run first differentiates them
    st = make_initial("uniform", grid64, EA_KERNEL)
    for x in (np.ones((2, 32)), np.ones((64, 2)), np.ones((2, 64, 1)), np.ones(64)):
        with pytest.raises(GridMismatchError):
            replace(st, x=x)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kernel, potential", KERNEL_POTENTIAL_PAIRS)
def test_rhs_and_velocity_match_composed_route(n, kernel, potential):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    for _ in range(2):
        rho = random_positive_field(grid, rng)
        u = random_smooth_field(grid, rng, offset=0.3)
        st = state_from(rho, u, kernel, grid, potential=potential)
        want_u = composed_velocity(st)
        got_u = recover_velocity(st)
        assert np.max(np.abs(got_u - want_u)) <= 1e-12 * np.max(np.abs(want_u))
        drho, dg, u_inf = rhs(st)
        want_drho, want_dg = composed_rhs(st)
        assert np.max(np.abs(drho - want_drho)) <= 1e-12 * np.max(np.abs(want_drho))
        assert np.max(np.abs(dg - want_dg)) <= 1e-12 * np.max(np.abs(want_dg))
        assert u_inf == pytest.approx(np.max(np.abs(want_u)), rel=1e-12)


@pytest.mark.parametrize("kernel, potential", KERNEL_POTENTIAL_PAIRS)
def test_momentum_is_conserved_on_every_pair(kernel, potential, grid128):
    # d/dt int rho u = int rho (A + F), which an even kernel and potential
    # make zero; the velocity recovery pins int rho u to m0 on that ground.
    # Independent oracles: the alignment force A by direct quadrature, the
    # force F of the potential by its own transforms
    x = grid128.x
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(4 * np.pi * x + 0.4)
    u = 0.3 * np.sin(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x + 0.7)
    align = rho * alignment_direct(rho, u, kernel, grid128, 8 * grid128.n)
    force = rho * (newtonian_force(rho, potential.k, grid128)
                   + regular_force(rho, potential, grid128))
    scale = mean(np.abs(align)) + mean(np.abs(force))
    assert abs(mean(align + force)) <= 1e-10 * scale


def test_broken_zero_mean_of_g_is_rejected(grid64):
    # rho keeps its mean, but g - psi_l * rho gains one: no periodic velocity exists
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=0.2))
    st = make_initial("cosine", grid64, kernel, rho_amp=0.3, u_amp=0.2)
    assert abs(mean(st.g + 1e-6 - psi_l_conv(st))) > 1e-7
    with pytest.raises(MeanViolationError):
        with_fields(st, g=st.g + 1e-6)
    st.validate()


def test_rhs_rejects_non_finite_state(grid64):
    # rhs never sees such a state: building it raises
    st = make_initial("cosine", grid64, EA_KERNEL, rho_amp=0.3)
    for bad in (np.nan, np.inf):
        g = st.g.copy()
        g[3] = bad
        with pytest.raises(NonFiniteError):
            with_fields(st, g=g)


def test_zero_mean_guard_scales_with_g_minus_psi_l_conv(grid64):
    # psi_l = 1 gives psi_l * rho = mean(rho); g - psi_l * rho = h is 1e3 in size
    # while |g|_inf - sup|psi_l| |rho|_inf is negative, so only the scale
    # max(1, |g - psi_l * rho|_inf) of the guard admits the roundoff-sized
    # mean 1e-9 (1e-15 of |g|_inf), and the same scale refuses 1e-6
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="constant", a=1.0))
    x = grid64.x
    rho = 1e6 * (1.0 + 0.5 * np.cos(2 * np.pi * x))
    h = 1e3 * np.sin(2 * np.pi * x)
    st = SimState(Problem(grid64, kernel, PotentialSpec(), mean(rho), 0.0),
                  np.stack((rho, mean(rho) + h + 1e-9)), 0.0)
    assert 1e-10 < abs(mean(st.g - psi_l_conv(st))) < 1e-7
    rhs(st)
    recover_velocity(st)
    with pytest.raises(MeanViolationError):
        with_fields(st, g=st.g + 1e-6)


def test_check_fields_sums_psi_l_once_per_problem(grid64, monkeypatch):
    # the checks of a run's states and stages read one mean of psi_l, mode 0
    # of the kernel's vel_rho, which the problem reads when it is built from
    # psi_l's closed-form band: building the problem, reading its plan and
    # checking valid fields sample psi_l on no grid
    kernel = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.3, b=0.1))
    st = make_initial("cosine", grid64, kernel, rho_amp=0.3, u_amp=0.2)
    clear_caches()
    sums = []
    evaluate = LipschitzKernel.__call__
    monkeypatch.setattr(LipschitzKernel, "__call__",
                        lambda psi_l, x: sums.append((psi_l, x.size)) or evaluate(psi_l, x))
    st = SimState(Problem(grid64, kernel, PotentialSpec(), st.rho_bar, st.m0), st.x, 0.0)
    assert st.problem.plan.vel_rho[0] == st.problem.vel_rho0
    for _ in range(3):
        st.validate()
        model.check_fields(st.x, st.t, st.problem)
    assert sums == []
    assert st.problem.vel_rho0 == -0.3


def test_plan_shares_the_kernel_multiplier(grid64):
    # one vel_rho per (grid, kernel), of the band's modes alone: every plan
    # of the kernel, whatever its potential, holds the array that
    # make_initial and each problem read
    kernel, potential = KERNEL_POTENTIAL_PAIRS[0]
    clear_caches()
    vel_rho = model._vel_rho(grid64, kernel)
    assert vel_rho.shape == (grid64.band,) and vel_rho.base is None
    assert not vel_rho.flags.writeable
    for pot in (potential, PotentialSpec()):
        assert model.spectral_plan(grid64, kernel, pot).vel_rho is vel_rho


@pytest.mark.parametrize("kernel, potential", KERNEL_POTENTIAL_PAIRS)
def test_compute_g_matches_the_operator_composition(kernel, potential):
    # g = du/dx - c Lambda^alpha rho + psi_l * rho, one transform per operator
    grid = Grid(128)
    rng = np.random.default_rng(5)
    rho = random_positive_field(grid, rng, kmax=50)
    u = random_smooth_field(grid, rng, kmax=50, offset=0.3)
    want = derivative(u, grid) - kernel.c * fractional_laplacian(rho, kernel.alpha, grid)
    want += convolve(np.asarray(kernel.psi_l(grid.x)), rho, grid)
    got = compute_g(rho, u, kernel, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


CLOSED_FORM_PRESETS = ("burgers-shock", "cosine", "uniform")
SAMPLED_PRESETS = ("gaussian-bump", "near-vacuum")
assert sorted(CLOSED_FORM_PRESETS + SAMPLED_PRESETS) == sorted(model._PRESET_PARAMS)
# parameters away from the defaults, so that every coefficient of a band is seen
PRESET_PARAMS = {
    "uniform": dict(rho_base=1.3, u_mean=0.2),
    "cosine": dict(rho_base=1.3, rho_amp=0.4, u_amp=-0.7, u_mean=0.2),
    "burgers-shock": dict(rho_base=1.1, u_amp=0.8),
    "gaussian-bump": dict(rho_base=0.9, amp=0.6, width=0.08, u_amp=0.3, u_mean=0.1),
    "near-vacuum": dict(eps=0.02, amp=0.7, width=0.12),
}


def sampled_route(preset, grid, kernel, **params):
    """(rho, u, g) of a preset the way set-up built them from samples: the
    band of the rfft of the oracle's samples, and g_hat = 2 pi i k u_hat -
    vel_rho rho_hat on it, each through its own irfft."""
    h = np.fft.rfft(np.stack(initial_fields(preset, grid, **params)))[:, :grid.band]
    rho, u = np.fft.irfft(h, n=grid.n)
    g_hat = 1j * grid.two_pi_k[:grid.band] * h[1] - model._vel_rho(grid, kernel) * h[0]
    return rho, u, np.fft.irfft(g_hat, n=grid.n)


@pytest.mark.parametrize("preset", sorted(model._PRESET_PARAMS))
@pytest.mark.parametrize("n", [64, 200])
def test_make_initial_dealiases_through_the_band_bit_for_bit(preset, n):
    # the state is the irfft of the preset's band zero-padded above n // 3,
    # with row 1 replaced by g_hat = 2 pi i k u_hat - vel_rho rho_hat
    grid = Grid(n)
    kernel = KERNEL_POTENTIAL_PAIRS[0][0]
    st = make_initial(preset, grid, kernel)
    b = grid.band
    h = np.zeros((2, n // 2 + 1), dtype=complex)
    h[:, :b] = model.initial_band(preset, grid)
    rho, u = np.fft.irfft(h, n=n)
    g = np.fft.irfft(1j * grid.two_pi_k[:b] * h[1, :b] - model._vel_rho(grid, kernel) * h[0, :b],
                     n=n)
    want = np.stack((rho, g))
    assert np.array_equal(st.x.view(np.uint64), want.view(np.uint64))
    # the full-spectrum relation gives g to rounding
    assert np.max(np.abs(g - compute_g(rho, u, kernel, grid))) <= 1e-13 * np.max(np.abs(g))


@pytest.mark.parametrize("preset", SAMPLED_PRESETS)
@pytest.mark.parametrize("n", [64, 200])
def test_sampled_preset_band_is_the_rfft_of_its_samples_bit_for_bit(preset, n):
    grid = Grid(n)
    params = PRESET_PARAMS[preset]
    want = np.fft.rfft(np.stack(initial_fields(preset, grid, **params)))[:, :grid.band]
    got = model.initial_band(preset, grid, **params)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("preset", CLOSED_FORM_PRESETS)
@pytest.mark.parametrize("n", [64, 200, 4096])
def test_initial_band_is_the_sampled_spectrum(preset, n):
    # the closed form is the band of the rfft of the oracle's samples to the
    # transform's rounding (measured: 1.7e-16 of the largest mode at most),
    # with modes above 1 exactly 0; the state is the sampled route's to
    # rounding, which 2 pi k amplifies in g (4.0e-13 at n = 4096)
    grid = Grid(n)
    kernel = KERNEL_POTENTIAL_PAIRS[0][0]
    params = PRESET_PARAMS[preset]
    sampled = np.fft.rfft(np.stack(initial_fields(preset, grid, **params)))[:, :grid.band]
    band = model.initial_band(preset, grid, **params)
    assert band.shape == (2, grid.band) and band.dtype == complex
    assert np.max(np.abs(band - sampled)) <= 2e-15 * np.max(np.abs(sampled))
    assert not band[:, 2:].any()
    st = make_initial(preset, grid, kernel, **params)
    rho, _, g = sampled_route(preset, grid, kernel, **params)
    for got, want in ((st.rho, rho), (st.g, g)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("preset", sorted(model._PRESET_PARAMS))
def test_make_initial_conserved_values_are_the_dealiased_means(preset):
    # rho_bar and m0 come from the band alone: mode 0, and Parseval for
    # mean(rho u), the mean of the product of the dealiased samples
    grid, kernel = Grid(200), KERNEL_POTENTIAL_PAIRS[0][0]
    params = PRESET_PARAMS[preset]
    st = make_initial(preset, grid, kernel, **params)
    rho, u, _ = sampled_route(preset, grid, kernel, **params)
    # Python floats: a numpy scalar would make numpy scalars in every step
    assert type(st.rho_bar) is float and type(st.m0) is float
    assert st.rho_bar == pytest.approx(mean(rho), rel=2e-15)
    assert st.m0 == pytest.approx(mean(rho * u), rel=1e-14, abs=1e-16)


def test_make_initial_reads_m0_from_any_band_by_parseval(monkeypatch):
    # every preset's rho is even and its u - u_mean odd, so their modes
    # k >= 1 add nothing to m0; a random band is needed to see them
    grid, kernel = Grid(200), KERNEL_POTENTIAL_PAIRS[0][0]
    rng = np.random.default_rng(7)
    band = 0.2 * grid.n * 0.5 ** np.arange(grid.band) * (
        rng.standard_normal((2, grid.band)) + 1j * rng.standard_normal((2, grid.band)))
    band[:, 0] = 2.0 * grid.n, 0.3 * grid.n
    monkeypatch.setattr(model, "initial_band", lambda *args, **kwargs: band.copy())
    st = make_initial("cosine", grid, kernel)
    rho, u = np.fft.irfft(band, n=grid.n)
    assert st.rho_bar == pytest.approx(mean(rho), rel=2e-15)
    assert st.m0 == pytest.approx(mean(rho * u), rel=1e-14)
    assert abs(st.m0 - st.rho_bar * 0.3) > 1e-3  # the modes k >= 1 add 6.1e-3


@pytest.mark.parametrize("params", [dict(rho_amp=0.5, u_amp=0.5),
                                    dict(rho_base=1.3, rho_amp=0.4, u_amp=-0.7, u_mean=0.25)])
def test_make_initial_cosine_conserved_values_are_exact(params):
    # on a power-of-two grid the closed form's mode 0 is rho_base n exactly,
    # and the k = 1 product of Parseval is exactly imaginary
    kernel, potential = KERNEL_POTENTIAL_PAIRS[0]
    st = make_initial("cosine", Grid(1024), kernel, potential, **params)
    rho_base, u_mean = params.get("rho_base", 1.0), params.get("u_mean", 0.0)
    assert st.rho_bar == rho_base
    assert st.m0 == rho_base * u_mean


@pytest.mark.parametrize("preset, params, name", [
    ("cosine", dict(rho_amp=float("nan")), "rho_amp"),
    ("uniform", dict(u_mean=float("inf")), "u_mean"),
    ("burgers-shock", dict(u_amp=-float("inf")), "u_amp"),
    ("gaussian-bump", dict(width=float("nan")), "width"),
    ("gaussian-bump", dict(width=0.0), "width"),
    ("near-vacuum", dict(width=-0.1), "width"),
    ("near-vacuum", dict(eps=float("nan")), "eps"),
])
def test_make_initial_refuses_invalid_parameters_before_any_transform(preset, params, name,
                                                                      monkeypatch):
    calls = []
    for fn_name in ("rfft", "irfft"):
        fn = getattr(spectral, fn_name)
        monkeypatch.setattr(spectral, fn_name,
                            lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    with pytest.raises(ValueError, match=name):
        make_initial(preset, Grid(64), EA_KERNEL, **params)
    assert calls == []


@pytest.mark.parametrize("preset", sorted(model._PRESET_PARAMS))
def test_make_initial_from_cleared_caches_fft_calls(preset, monkeypatch):
    # one irfft of the block (rho, g) from the band; a sampled preset adds
    # the rfft of its samples. The kernel's vel_rho reads psi_l's band
    # without a transform, and no spectral plan is built
    clear_caches()
    calls = []
    for name in ("rfft", "irfft"):
        fn = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    kernel, potential = KERNEL_POTENTIAL_PAIRS[0]
    make_initial(preset, Grid(256), kernel, potential, **PRESET_PARAMS[preset])
    assert calls == (["irfft"] if preset in CLOSED_FORM_PRESETS else ["rfft", "irfft"])

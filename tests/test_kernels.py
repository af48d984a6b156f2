import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from epasim.diagnostics import bound_constants
from epasim.kernels import (
    KernelSpec,
    LipschitzKernel,
    PotentialSpec,
    RegularPotential,
    c_alpha,
    g_source,
    kernel_min,
)
from epasim.model import make_initial
from epasim.spectral import Grid, convolve, mean
from conftest import random_smooth_field
from oracles import (
    SingularityError,
    dense_kernel_min,
    fractional_laplacian_direct,
    newtonian_force,
    psi_alpha,
    psi_alpha_min,
    regular_force,
    to_spectrum,
)


def test_c_alpha_at_one():
    assert c_alpha(1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_c_alpha_vanishes_monotonically_near_zero():
    vals = [c_alpha(a) for a in (1e-4, 1e-3, 1e-2, 0.1, 0.3)]
    assert all(v > 0 for v in vals)
    assert vals == sorted(vals)
    assert vals[0] < 1e-4


@pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5])
def test_c_alpha_domain(alpha):
    with pytest.raises(ValueError):
        c_alpha(alpha)


def test_psi_alpha_half_at_alpha_one():
    # closed form: (1/pi) * sum_m (m + 1/2)^-2 = (1/pi) * pi^2
    assert psi_alpha(0.5, 1.0) == pytest.approx(math.pi, abs=1e-8)


def test_psi_alpha_even():
    xs = np.array([0.05, 0.17, 0.33, 0.49])
    np.testing.assert_allclose(psi_alpha(xs, 0.6), psi_alpha(-xs, 0.6), rtol=1e-14)


def test_psi_alpha_against_million_term_sum():
    # brute-force oracle: 1e6-term symmetric sum plus plain integral tail
    assert psi_alpha(0.25, 0.5) == pytest.approx(2.694872955431017, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5])
def test_psi_alpha_against_hurwitz_zeta(alpha):
    xs = np.linspace(0.02, 0.5, 25)
    expect = c_alpha(alpha) * (zeta(1 + alpha, xs) + zeta(1 + alpha, 1 - xs))
    np.testing.assert_allclose(psi_alpha(xs, alpha), expect, rtol=1e-11)


def test_psi_alpha_singularity():
    with pytest.raises(SingularityError):
        psi_alpha(0.0, 0.5)
    with pytest.raises(SingularityError):
        psi_alpha(1.0, 0.5)  # 0 mod 1


def test_psi_alpha_min_properties():
    for alpha in (0.2, 0.5, 0.9):
        pm = psi_alpha_min(alpha)
        assert pm > 0
        xs = -0.5 + np.arange(1, 256) / 256
        xs = xs[np.abs(xs) > 1e-9]
        assert pm <= np.min(psi_alpha(xs, alpha)) + 1e-12
    assert psi_alpha_min(1.0) == pytest.approx(math.pi, abs=1e-8)


def test_quadrature_matches_multiplier_on_cosine():
    g = Grid(512)
    f = np.cos(2 * np.pi * g.x)
    got = fractional_laplacian_direct(f, 0.5, g, 2**16)
    expect = (2 * np.pi) ** 0.5 * f
    rel = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
    assert rel <= 0.01


def test_quadrature_error_decreases_under_refinement():
    g = Grid(128)
    f = np.cos(2 * np.pi * g.x)
    expect = (2 * np.pi) ** 0.75 * f
    errs = [
        np.max(np.abs(fractional_laplacian_direct(f, 0.75, g, r) - expect))
        for r in (2**10, 2**12, 2**14)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_newtonian_force_on_background():
    g = Grid(64)
    out = newtonian_force(np.full(64, 1.7), 2.0, g)
    assert np.max(np.abs(out)) < 1e-13


def test_newtonian_force_single_mode():
    g = Grid(64)
    k, eps = 1.3, 0.2
    rho = 1.0 + eps * np.cos(2 * np.pi * g.x)
    expect = -(k * eps / (2 * np.pi)) * np.sin(2 * np.pi * g.x)
    np.testing.assert_allclose(newtonian_force(rho, k, g), expect, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1), k=st.floats(-5, 5))
@settings(max_examples=20, deadline=None)
def test_newtonian_force_zero_mean_linear_odd(seed, k):
    g = Grid(64)
    rng = np.random.default_rng(seed)
    rho = random_smooth_field(g, rng, offset=1.0)
    force = newtonian_force(rho, k, g)
    assert abs(mean(force)) < 1e-12
    # linear in rho - rho_bar: adding a constant changes nothing
    np.testing.assert_allclose(newtonian_force(rho + 0.7, k, g), force, atol=1e-12)
    # odd under k -> -k
    np.testing.assert_allclose(newtonian_force(rho, -k, g), -force, atol=1e-12)


def test_regular_force_zero_potential():
    g = Grid(64)
    pot = PotentialSpec(k=0.0)
    assert np.max(np.abs(regular_force(np.ones(64), pot, g))) == 0.0


def test_regular_force_cosine_on_background():
    g = Grid(64)
    pot = PotentialSpec(kreg=RegularPotential(kind="cosine", amp=1.0))
    out = regular_force(np.full(64, 1.4), pot, g)
    assert np.max(np.abs(out)) < 1e-12


def test_regular_force_cosine_mode_algebra():
    g = Grid(64)
    pot = PotentialSpec(kreg=RegularPotential(kind="cosine", amp=1.0))
    rho = 1.0 + np.cos(2 * np.pi * g.x)
    got = regular_force(rho, pot, g)
    # K*rho = cos(2 pi x)/2, force = -d/dx of that
    expect = math.pi * np.sin(2 * np.pi * g.x)
    np.testing.assert_allclose(got, expect, atol=1e-12)
    # independent O(n^2) quadrature of the convolution, analytic kernel values
    quad = np.array(
        [np.mean(np.cos(2 * np.pi * (xi - g.x)) * rho) for xi in g.x]
    )
    np.testing.assert_allclose(convolve(pot.kreg(g.x), rho, g), quad, atol=1e-8)


def test_g_source_combines_both_parts():
    g = Grid(64)
    rng = np.random.default_rng(11)
    rho = random_smooth_field(g, rng, offset=1.2)
    pot = PotentialSpec(k=0.8, kreg=RegularPotential(kind="cosine", amp=0.3))
    out = g_source(rho, mean(rho), pot, g)
    assert abs(mean(out)) < 1e-12
    only_newton = g_source(rho, mean(rho), PotentialSpec(k=0.8), g)
    np.testing.assert_allclose(only_newton, -0.8 * (rho - mean(rho)), atol=1e-13)


def test_positivity_gate_rejects_zero_kernel():
    st = make_initial("uniform", Grid(64), KernelSpec(c=0.0, alpha=0.5))
    with pytest.raises(ValueError, match="alignment kernel"):
        bound_constants(st)


def test_positivity_gate_rejects_signed_lipschitz():
    spec = KernelSpec(c=0.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=1.0))
    assert kernel_min(spec) < 0
    st = make_initial("uniform", Grid(64), spec)
    with pytest.raises(ValueError, match="positive lower bound"):
        bound_constants(st)


def test_positivity_gate_accepts_singular_plus_cosine():
    spec = KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=1.0, b=0.5))
    m = kernel_min(spec)
    assert m > 0
    assert bound_constants(make_initial("uniform", Grid(64), spec)).psi_m == m
    assert kernel_min(KernelSpec(c=1.0, alpha=0.5)) == pytest.approx(
        psi_alpha_min(0.5), rel=1e-9
    )


PSI_L_KINDS = {
    "zero": LipschitzKernel(),
    "constant": LipschitzKernel(kind="constant", a=0.7),
    "cosine": LipschitzKernel(kind="cosine", a=0.5, b=0.2),
    "cosine-negative-b": LipschitzKernel(kind="cosine", a=1.0, b=-0.5),
}


def zeta_kernel_min(spec):
    # c psi_alpha(1/2) + min psi_l, with the half-integer lattice sum
    # psi_alpha(1/2) = 2 c_alpha (2^(1+alpha) - 1) zeta(1+alpha) read from scipy
    a = spec.alpha
    singular = 2.0 * c_alpha(a) * (2.0 ** (1.0 + a) - 1.0) * float(zeta(1.0 + a))
    return spec.c * singular + spec.psi_l.value_range()[0]


@pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", sorted(PSI_L_KINDS))
def test_kernel_min_against_dense_oracle(kind, c):
    spec = KernelSpec(c=c, alpha=0.5, psi_l=PSI_L_KINDS[kind])
    got, dense = kernel_min(spec), dense_kernel_min(spec)
    assert got <= dense
    if kind == "cosine-negative-b" and c == 0.0:
        # the infimum a - |b| is approached at x -> 0, which is left out
        assert dense - got < 1e-8
    elif c == 0.0:
        assert got == dense
    elif kind in ("zero", "constant", "cosine"):
        # the dense search reads the lattice sum at x = 1/2, which is off by
        # up to 2e-12 relative; kernel_min's closed form is exact to rounding
        assert got == pytest.approx(zeta_kernel_min(spec), rel=2e-15, abs=0.0)


@pytest.mark.parametrize("kind", sorted(PSI_L_KINDS))
@pytest.mark.parametrize("c", [0.3, 1.0])
@pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 1.0, 1.5, 1.99])
def test_kernel_min_against_zeta(alpha, c, kind):
    spec = KernelSpec(c=c, alpha=alpha, psi_l=PSI_L_KINDS[kind])
    assert kernel_min(spec) == pytest.approx(zeta_kernel_min(spec), rel=2e-15, abs=0.0)


def test_kernel_min_at_alpha_one_is_pi():
    # c_1 = 1/pi and 2 (2^2 - 1) zeta(2) = pi^2
    assert kernel_min(KernelSpec(c=1.0, alpha=1.0)) == pytest.approx(math.pi, rel=2e-15, abs=0.0)


def test_table_validation():
    # every kernel and potential is an even preset: a sampled table, which
    # need not be even, is refused when it is built
    with pytest.raises(ValueError, match="kind"):
        LipschitzKernel(kind="table")
    with pytest.raises(ValueError, match="kind"):
        RegularPotential(kind="table")


BAND_PRESETS = [
    LipschitzKernel(),
    LipschitzKernel("constant", a=0.7),
    LipschitzKernel("cosine", a=0.5, b=0.2),
    LipschitzKernel("cosine", a=1.0, b=-0.5),
    RegularPotential(),
    RegularPotential("cosine", amp=0.05),
    RegularPotential("cosine", amp=-2.0),
    RegularPotential("gaussian", amp=0.05, width=0.1),
]


@pytest.mark.parametrize("preset", BAND_PRESETS, ids=repr)
@pytest.mark.parametrize("n", [8, 64, 200, 4096])
def test_preset_band_matches_its_sampled_transform(preset, n):
    # the band the solver reads, a closed form, against the transform of the
    # preset's samples: to rounding, and exactly real. The gaussian is
    # sampled at 4096 points, as a coarse grid aliases its tail
    grid = Grid(n)
    dense = Grid(4096) if preset.kind == "gaussian" else grid
    samples = preset(dense.x)
    want = to_spectrum(samples, dense)[:grid.band]
    got = preset.band(grid)
    assert got.shape == (grid.band,) and got.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(samples))
    assert np.all(got.imag == 0.0)


@pytest.mark.parametrize("width", [0.02, 0.1, 0.3])
def test_gaussian_band_is_exact_where_sampling_aliases(width):
    # at n = 64 the samples of a gaussian of width 0.02 alias its modes
    # beyond 32 onto the band, 1e-9 of amp; the closed form is the dense
    # transform's to rounding at every width
    pot = RegularPotential("gaussian", amp=0.05, width=width)
    coarse, dense = Grid(64), Grid(8192)
    got = pot.band(coarse)
    want = to_spectrum(pot(dense.x), dense)[:coarse.band]
    sampled = to_spectrum(pot(coarse.x), coarse)[:coarse.band]
    assert np.max(np.abs(got - want)) <= 1e-15 * pot.amp
    if width == 0.02:
        assert np.max(np.abs(sampled - want)) > 1e-10


def test_gaussian_potential_curvature():
    pot = RegularPotential(kind="gaussian", amp=0.5, width=0.08)
    # at the center K'' = -amp / width^2
    assert pot.second_derivative_sup == pytest.approx(0.5 / 0.08**2, rel=1e-3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_specs_reject_a_non_finite_coefficient(value):
    # fails where the spec is built, not later as a non-finite state
    with pytest.raises(ValueError, match="c must be finite"):
        KernelSpec(c=value, alpha=0.5)
    with pytest.raises(ValueError, match="k must be finite"):
        PotentialSpec(k=value)
    # a preset's coefficients too: its band is read without sampling it, so
    # no sample check would catch them later
    for kind in ("zero", "constant", "cosine"):
        for name in ("a", "b"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                LipschitzKernel(kind, **{name: value})
    for kind in ("zero", "cosine", "gaussian"):
        for name in ("amp", "width"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                RegularPotential(kind, **{name: value})
    with pytest.raises(ValueError, match="width > 0"):
        RegularPotential("gaussian", width=0.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(c=-1.0, alpha=0.5)
    with pytest.raises(ValueError):
        KernelSpec(c=1.0, alpha=2.0)
    assert not KernelSpec(c=0.0, alpha=0.5).enabled
    assert KernelSpec(c=1.0, alpha=0.5).enabled

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epasim.spectral import (
    Grid,
    GridMismatchError,
    InvalidFieldError,
    MeanViolationError,
    convolve,
    derivative,
    mean,
    second_derivative,
)
from conftest import random_smooth_field
from oracles import (
    antiderivative,
    circular_correlate,
    dealias,
    fractional_laplacian,
    fractional_laplacian_antiderivative,
    midpoint_offsets,
    resample_midpoints,
)


def test_grid_points():
    g = Grid(8)
    assert g.dx == 0.125
    np.testing.assert_allclose(g.x, -0.5 + np.arange(8) / 8.0)


@pytest.mark.parametrize("n", [7, 9, 4, 6, 0])
def test_grid_rejects_small_or_odd(n):
    with pytest.raises(ValueError):
        Grid(n)


@pytest.mark.parametrize("n", [64.0, True, np.float64(64.0)])
def test_grid_rejects_non_integer_size(n):
    # Grid(64.0) would compare and hash equal to Grid(64) and share its caches
    with pytest.raises(ValueError, match="integer"):
        Grid(n)
    assert Grid(np.int64(64)) == Grid(64)


def test_invalid_field_rejected(grid64):
    f = np.zeros(64)
    f[3] = np.nan
    with pytest.raises(InvalidFieldError):
        derivative(f, grid64)
    with pytest.raises(InvalidFieldError):
        fractional_laplacian(np.full(64, np.inf), 0.5, grid64)


def test_grid_mismatch(grid64):
    with pytest.raises(GridMismatchError):
        convolve(np.zeros(64), np.zeros(32), grid64)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_fractional_laplacian_eigenvalues(grid128, alpha, k):
    f = np.cos(2 * np.pi * k * grid128.x)
    expect = (2 * np.pi * k) ** alpha * f
    got = fractional_laplacian(f, alpha, grid128)
    assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(expect))


def test_fractional_laplacian_constant_is_zero(grid64):
    out = fractional_laplacian(np.full(64, 5.0), 0.7, grid64)
    assert np.max(np.abs(out)) < 1e-13


def test_fractional_laplacian_zero_mean(grid64):
    rng = np.random.default_rng(2)
    f = random_smooth_field(grid64, rng, offset=2.0)
    assert abs(mean(fractional_laplacian(f, 0.5, grid64))) < 1e-14


@pytest.mark.parametrize("alpha", [-0.1, 0.0, 2.1])
def test_fractional_laplacian_alpha_range(grid64, alpha):
    with pytest.raises(ValueError):
        fractional_laplacian(np.zeros(64), alpha, grid64)


@given(a=st.floats(-10, 10), b=st.floats(-10, 10),
       k1=st.integers(1, 20), k2=st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_fractional_laplacian_linear(a, b, k1, k2):
    g = Grid(64)
    f1 = np.cos(2 * np.pi * k1 * g.x)
    f2 = np.sin(2 * np.pi * k2 * g.x)
    lhs = fractional_laplacian(a * f1 + b * f2, 0.5, g)
    rhs = a * fractional_laplacian(f1, 0.5, g) + b * fractional_laplacian(f2, 0.5, g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_fla_antiderivative_single_mode(grid64):
    f = np.sin(2 * np.pi * grid64.x)
    got = fractional_laplacian_antiderivative(f, 1.0, grid64)
    np.testing.assert_allclose(got, -np.cos(2 * np.pi * grid64.x), atol=1e-12)


def test_fla_antiderivative_constant(grid64):
    out = fractional_laplacian_antiderivative(np.full(64, 3.0), 0.5, grid64)
    assert np.max(np.abs(out)) < 1e-13


def test_fla_antiderivative_multiplier_identity(grid128):
    rng = np.random.default_rng(3)
    f = random_smooth_field(grid128, rng, offset=1.3)
    lhs = derivative(fractional_laplacian_antiderivative(f, 0.5, grid128), grid128)
    rhs = fractional_laplacian(f - mean(f), 0.5, grid128)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_antiderivative_single_mode(grid64):
    f = np.cos(2 * np.pi * grid64.x)
    got = antiderivative(f, grid64)
    np.testing.assert_allclose(got, np.sin(2 * np.pi * grid64.x) / (2 * np.pi), atol=1e-13)
    assert np.max(np.abs(antiderivative(np.zeros(64), grid64))) == 0.0


def test_antiderivative_inverse_property(grid128):
    rng = np.random.default_rng(4)
    f = random_smooth_field(grid128, rng)
    f -= mean(f)
    np.testing.assert_allclose(derivative(antiderivative(f, grid128), grid128), f, atol=1e-10)
    np.testing.assert_allclose(antiderivative(derivative(f, grid128), grid128), f, atol=1e-10)


def test_antiderivative_zero_mean_output(grid64):
    rng = np.random.default_rng(5)
    f = random_smooth_field(grid64, rng)
    f -= mean(f)
    assert abs(mean(antiderivative(f, grid64))) < 1e-15


def test_antiderivative_mean_violation(grid64):
    with pytest.raises(MeanViolationError):
        antiderivative(np.full(64, 0.1), grid64)


def test_derivative_basics(grid64):
    x = grid64.x
    np.testing.assert_allclose(derivative(np.sin(2 * np.pi * x), grid64),
                               2 * np.pi * np.cos(2 * np.pi * x), atol=1e-12)
    assert np.max(np.abs(derivative(np.full(64, 2.0), grid64))) < 1e-13


def test_second_derivative(grid64):
    x = grid64.x
    np.testing.assert_allclose(second_derivative(np.cos(2 * np.pi * x), grid64),
                               -(2 * np.pi) ** 2 * np.cos(2 * np.pi * x), atol=1e-11)


def test_convolve_with_constant(grid64):
    rng = np.random.default_rng(6)
    rho = random_smooth_field(grid64, rng, offset=1.5)
    out = convolve(np.ones(64), rho, grid64)
    np.testing.assert_allclose(out, np.full(64, mean(rho)), atol=1e-13)


def test_convolve_cosine_pair(grid64):
    f = np.cos(2 * np.pi * grid64.x)
    np.testing.assert_allclose(convolve(f, f, grid64), 0.5 * f, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_convolve_commutes(seed):
    g = Grid(64)
    rng = np.random.default_rng(seed)
    f = random_smooth_field(g, rng)
    h = random_smooth_field(g, rng, offset=0.4)
    assert np.max(np.abs(convolve(f, h, g) - convolve(h, f, g))) <= 1e-12


def test_dealias_band_limited_unchanged(grid64):
    rng = np.random.default_rng(7)
    f = random_smooth_field(grid64, rng, kmax=grid64.n // 3 - 1, offset=0.9)
    np.testing.assert_allclose(dealias(f, grid64), f, atol=1e-13)


def test_dealias_kills_high_mode():
    g = Grid(16)
    f = np.cos(2 * np.pi * 7 * g.x)
    assert np.max(np.abs(dealias(f, g))) < 1e-13


def test_dealias_idempotent(grid128):
    rng = np.random.default_rng(8)
    f = random_smooth_field(grid128, rng, kmax=60)
    once = dealias(f, grid128)
    np.testing.assert_allclose(dealias(once, grid128), once, atol=1e-14)


def test_midpoint_offsets_symmetric():
    y = midpoint_offsets(16)
    assert y.min() >= -0.5 and y.max() < 0.5
    assert np.min(np.abs(y)) > 0.0
    np.testing.assert_allclose(np.sort(np.abs(y)), np.sort(np.abs(-y[::-1])))


def test_resample_midpoints_matches_analytic(grid64):
    f = 0.3 + np.cos(2 * np.pi * grid64.x) - 0.2 * np.sin(2 * np.pi * 3 * grid64.x)
    r = 8 * grid64.n
    z = -0.5 + (np.arange(r) + 0.5) / r
    expect = 0.3 + np.cos(2 * np.pi * z) - 0.2 * np.sin(2 * np.pi * 3 * z)
    np.testing.assert_allclose(resample_midpoints(f, grid64, r), expect, atol=1e-12)


def test_resample_requires_multiple(grid64):
    with pytest.raises(ValueError):
        resample_midpoints(np.zeros(64), grid64, 100)


def test_circular_correlate_matches_direct():
    rng = np.random.default_rng(9)
    w = rng.normal(size=32)
    v = rng.normal(size=32)
    direct = np.array([np.sum(w * v[(p + np.arange(32)) % 32]) for p in range(32)])
    np.testing.assert_allclose(circular_correlate(w, v), direct, atol=1e-12)

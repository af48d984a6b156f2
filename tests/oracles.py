"""Reference routes through the dynamics and the diagnostics, for tests only.

Most compose per-operator functions, one transform per operator, the way
the solver did before its multipliers were fused into
``model.spectral_plan``. The fused ``rhs`` and ``recover_velocity`` are
checked against them, and ``model.compute_g`` against
``derivative(u) - c fractional_laplacian(rho) + convolve(psi_l, rho)``.
``fractional_laplacian`` and ``dealias`` are per-operator transforms that
the solver applies through its plan's multipliers. The force and
quadrature routes (among them ``alignment_direct``, a midpoint-rule
quadrature of the alignment integral) check the operators themselves. ``kernel_values`` is the one
pointwise evaluation of the effective kernel, and ``dense_kernel_min`` the
dense search that ``kernels.kernel_min`` must never exceed.
``reference_step`` is the SSP-RK3 step as it was before the array core:
three ``rhs(state)`` calls and one ``SimState`` per stage.
``spectral_reference_step`` is the step the run loop takes on the spectrum
of the fields, with its step size: three ``rhs_spectrum`` evaluations and
one ``SimState`` per stage, built from one irfft of the stage's spectrum.
The run loop's accepted states must equal it bit for bit, and the physical
``reference_step`` to rounding. ``roll_lag_table`` is the
plain loop that ``diagnostics._lag_table`` must
match bit for bit, and ``reference_min_b`` a bisection to within
``MIN_B_RTOL``, at or below whose answer the exact infimum
``diagnostics.moc_min_b`` must lie. ``stable_dt`` is the step bound of a
state, the run loop's first step, and ``legacy_stable_dt`` the bound it
replaced and must never fall below. ``with_fields`` replaces a state's
rows by name.
``characteristic_beta`` and ``ode_blowup_time`` solve the flow exactly
along its characteristics when the kernel is a constant and the potential
Newtonian.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from epasim.diagnostics import MIN_B_CAP, ModulusParams
from epasim.kernels import (
    KernelSpec,
    PotentialSpec,
    g_source,
    lipschitz_on_grid,
    potential_on_grid,
    psi_alpha,
)
from epasim.integrator import StepControl, _dt_constants, _raw_dt
from epasim.model import SimState, recover_velocity, rhs, rhs_spectrum, spectral_plan
from epasim.spectral import MEAN_TOL, Grid, MeanViolationError, _check, convolve, derivative, mean

MIN_B_RTOL = 0.01  # relative resolution of reference_min_b's bisection


def with_fields(state: SimState, rho: np.ndarray | None = None, g: np.ndarray | None = None,
                **changes) -> SimState:
    """``dataclasses.replace`` of a state, with its rows rho and g replaced by name."""
    x = np.stack((state.rho if rho is None else rho, state.g if g is None else g))
    return replace(state, x=x, **changes)


def fractional_laplacian(f: np.ndarray, alpha: float, grid: Grid) -> np.ndarray:
    """Fractional Laplacian (-d^2/dx^2)^{alpha/2}.

    Acts as the multiplier (2*pi*|k|)^alpha; the k = 0 mode maps to 0,
    so the output has zero mean for any input.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    fh = np.fft.rfft(_check(f, grid))
    fh[0] = 0.0
    fh[1:] *= grid.two_pi_k[1:] ** alpha
    return np.fft.irfft(fh, n=grid.n)


def dealias(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero all modes with |k| > n/3 (2/3 rule for quadratic products)."""
    fh = np.fft.rfft(_check(f, grid))
    fh[~grid.dealias_keep] = 0.0
    return np.fft.irfft(fh, n=grid.n)


def antiderivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero-mean primitive of a (numerically) zero-mean field.

    Raises
    ------
    MeanViolationError
        If |mean(f)| exceeds MEAN_TOL * max(1, max|f|); the caller's
        zero-mean invariant is broken and integrating would silently
        produce a non-periodic primitive.
    """
    f = _check(f, grid)
    m = np.mean(f)
    if abs(m) > MEAN_TOL * max(1.0, float(np.max(np.abs(f)))):
        raise MeanViolationError(f"antiderivative of field with mean {m:.3e}")
    fh = np.fft.rfft(f)
    fh[0] = 0.0
    fh[1:] /= 1j * grid.two_pi_k[1:]
    fh[-1] = 0.0
    return np.fft.irfft(fh, n=grid.n)


def fractional_laplacian_antiderivative(f: np.ndarray, alpha: float, grid: Grid) -> np.ndarray:
    """Fractional Laplacian of the primitive of the zero-mean part of f.

    Multiplier (2*pi*|k|)^alpha / (2*pi*i*k) for k != 0; the k = 0 mode
    of the output is 0, so any constant component of f is discarded.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    fh = np.fft.rfft(_check(f, grid))
    fh[0] = 0.0
    fh[1:] *= grid.two_pi_k[1:] ** alpha / (1j * grid.two_pi_k[1:])
    fh[-1] = 0.0
    return np.fft.irfft(fh, n=grid.n)


def midpoint_offsets(refinement: int) -> np.ndarray:
    """Half-cell-offset midpoint quadrature nodes y_q on the torus.

    y_q = -1/2 + (q + 1/2)/R for q = 0..R-1. The set is symmetric under
    y -> -y and never contains 0, which is what makes it suitable for
    principal-value quadrature of even singular kernels.
    """
    r = int(refinement)
    return -0.5 + (np.arange(r) + 0.5) / r


def resample_midpoints(f: np.ndarray, grid: Grid, refinement: int) -> np.ndarray:
    """Trigonometric interpolation of f onto the midpoint-offset grid.

    Returns f evaluated at z_p = -1/2 + (p + 1/2)/R, p = 0..R-1, where R
    must be a multiple of the grid size. The original Nyquist mode is
    dropped (it has no well-defined interpolant).
    """
    f = _check(f, grid)
    r = int(refinement)
    if r % grid.n != 0:
        raise ValueError(f"refinement {r} must be a multiple of the grid size {grid.n}")
    c = np.fft.rfft(f) / grid.n
    c[-1] = 0.0
    k = np.arange(grid.n // 2 + 1)
    # half-cell phase: sample positions sit 1/(2R) past each refined node
    c = c * np.exp(1j * np.pi * k / r)
    padded = np.zeros(r // 2 + 1, dtype=complex)
    padded[: grid.n // 2 + 1] = c
    return np.fft.irfft(padded * r, n=r)


def circular_correlate(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """c[p] = sum_q weights[q] * values[(p+q) mod R], via FFT.

    Evaluates the same finite sums as the direct loop, just in
    O(R log R) instead of O(R^2).
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    if w.shape != v.shape:
        raise ValueError("weights and values must have equal length")
    return np.fft.irfft(np.conj(np.fft.rfft(w)) * np.fft.rfft(v), n=v.size)


def kernel_values(spec: KernelSpec, x, tol: float = 1e-12):
    """The effective kernel c psi_alpha(x) + psi_l(x) at points x != 0 (mod 1)."""
    vals = spec.psi_l(x)
    if spec.c > 0:
        vals = vals + spec.c * psi_alpha(x, spec.alpha, tol)
    return vals


def dense_kernel_min(spec: KernelSpec) -> float:
    """Minimum of the effective kernel over 2^16 uniform points of [-1/2, 1/2)
    and the nodes of a table psi_l, x = 0 left out: an upper estimate of the
    infimum that ``kernels.kernel_min`` must never exceed."""
    x = -0.5 + np.arange(2**16) / 2**16
    x = np.concatenate((x, np.asarray(spec.psi_l.xs, dtype=float)))
    return float(np.min(kernel_values(spec, x[x != 0.0])))


@lru_cache(maxsize=32)
def quadrature_weights(spec: KernelSpec, refinement: int, tol: float = 1e-12) -> np.ndarray:
    """Effective kernel sampled at the midpoint quadrature offsets."""
    y = midpoint_offsets(refinement)
    w = np.asarray(kernel_values(spec, y, tol), dtype=float)
    w.flags.writeable = False
    return w


def psi_l_conv(state: SimState) -> np.ndarray:
    """Convolution of the Lipschitz kernel part with the density."""
    if state.kernel.psi_l.is_zero:
        return np.zeros(state.grid.n)
    return convolve(lipschitz_on_grid(state.kernel.psi_l, state.grid), state.rho, state.grid)


def composed_velocity(state: SimState) -> np.ndarray:
    """u = c Lambda^alpha d^-1 rho + d^-1 (g - psi_l * rho) + I0, operator by operator."""
    grid = state.grid
    u_part = antiderivative(state.g - psi_l_conv(state), grid)
    if state.kernel.c > 0:
        u_part = u_part + state.kernel.c * fractional_laplacian_antiderivative(
            state.rho, state.kernel.alpha, grid
        )
    return u_part + (state.m0 - mean(state.rho * u_part)) / mean(state.rho)


def composed_rhs(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (rho, g): dealias, then differentiate, then add g_source."""
    grid = state.grid
    u = composed_velocity(state)
    drho = -derivative(dealias(state.rho * u, grid), grid)
    dg = -derivative(dealias(state.g * u, grid), grid)
    if not state.potential.is_zero:
        dg = dg + g_source(state.rho, state.rho_bar, state.potential, grid)
    return drho, dg


def reference_step(state: SimState, dt: float) -> SimState:
    """One Shu-Osher SSP-RK3 step: three ``rhs(state)`` calls, and each
    stage's fields checked by building its own ``SimState``."""

    def deriv(s):
        return np.stack(rhs(s)[:2])

    s1 = replace(state, x=state.x + dt * deriv(state))
    s2 = replace(state, x=0.75 * state.x + 0.25 * (s1.x + dt * deriv(s1)))
    return replace(state, x=(state.x + 2.0 * (s2.x + dt * deriv(s2))) / 3.0, t=state.t + dt)


def spectral_reference_step(state: SimState, spec: np.ndarray,
                            ctl: StepControl) -> tuple[SimState, np.ndarray, float]:
    """One Shu-Osher SSP-RK3 step of the spectrum spec of the state's block,
    with the run loop's step size: returns the new state, its spectrum and dt.

    Three ``rhs_spectrum`` calls, on a copy of each stage's fields, and each
    stage's fields, one irfft of its spectrum, checked by building its own
    ``SimState``. dt is the loop's: the step bounds at max rho and at the
    sup |u| of the first evaluation, capped by dt_max and by t_end."""
    plan = spectral_plan(state.grid, state.kernel, state.potential)

    def deriv(s, x):
        return rhs_spectrum(x, s.x.copy(), plan, s.m0, s.rho_bar, s.potential.k)

    def stage(x, t):
        return replace(state, x=np.fft.irfft(x, n=state.grid.n), t=t)

    d, u_inf, _ = deriv(state, spec)
    raw = _raw_dt(_dt_constants(state, ctl), float(np.max(state.rho)), u_inf)
    dt = min(raw, ctl.dt_max, ctl.t_end - state.t)
    x1 = spec + dt * d
    s1 = stage(x1, state.t)
    x2 = 0.75 * spec + 0.25 * (x1 + dt * deriv(s1, x1)[0])
    s2 = stage(x2, state.t)
    x3 = (spec + 2.0 * (x2 + dt * deriv(s2, x2)[0])) / 3.0
    return stage(x3, state.t + dt), x3, dt


def stable_dt(state: SimState, ctl: StepControl) -> float:
    """Stability-bounded step: min of the run loop's step bounds and dt_max,
    clamped below by dt_min, from the velocity recovered from the state."""
    u_inf = float(np.max(np.abs(recover_velocity(state))))
    raw = _raw_dt(_dt_constants(state, ctl), float(np.max(state.rho)), u_inf)
    return max(min(raw, ctl.dt_max), ctl.dt_min)


def legacy_stable_dt(state: SimState, ctl: StepControl, cfl_diffuse: float = 0.3) -> float:
    """The step bound that SSP-RK3's stability region replaced, with its
    default cfl_diffuse: min of cfl_advect dx / sup |u| and
    cfl_diffuse dx^alpha / ((2 pi)^alpha c max rho + sup psi_l rho_bar
    + (|k| + sup |K_reg''|) rho_bar) and dt_max, clamped below by dt_min."""
    kern, pot = state.kernel, state.potential
    dx = state.grid.dx
    u_inf = float(np.max(np.abs(recover_velocity(state))))
    dt_adv = ctl.cfl_advect * dx / u_inf if u_inf > 0 else math.inf
    denom = (2 * np.pi) ** kern.alpha * kern.c * float(np.max(state.rho))
    denom += kern.psi_l.sup_norm() * state.rho_bar
    denom += (abs(pot.k) + pot.kreg.second_derivative_sup) * state.rho_bar
    dt_dif = cfl_diffuse * dx**kern.alpha / denom if denom > 0 else math.inf
    return max(min(dt_adv, dt_dif, ctl.dt_max), ctl.dt_min)


def characteristic_beta(t: float, rho0: np.ndarray, du0: np.ndarray, rho_bar: float,
                        a: float, k: float) -> np.ndarray:
    """1/rho at time t on the characteristics from samples of rho0 and u0',
    for c = 0, psi_l = a and a Newtonian potential of strength k.

    There u_x = g - a rho_bar, and along a characteristic beta = 1/rho and
    f = g/rho obey beta' = f - a rho_bar beta and f' = k rho_bar beta - k
    (the source -k (rho - rho_bar) of g). So y = beta - 1/rho_bar solves
    y'' + a rho_bar y' - k rho_bar y = 0 with y(0) = 1/rho0 - 1/rho_bar and
    y'(0) = u0'/rho0, whose roots are -a rho_bar/2 +- r. Exact while every
    beta stays positive.
    """
    b = a * rho_bar
    y0 = 1.0 / np.asarray(rho0, dtype=float) - 1.0 / rho_bar
    y1 = np.asarray(du0, dtype=float) / np.asarray(rho0, dtype=float)
    r = cmath.sqrt(b * b + 4.0 * k * rho_bar) / 2.0
    cosh = cmath.cosh(r * t).real
    sinh_r = (cmath.sinh(r * t) / r).real if r != 0 else t  # sinh(r t)/r
    return 1.0 / rho_bar + math.exp(-0.5 * b * t) * (y0 * cosh + (y1 + 0.5 * b * y0) * sinh_r)


def ode_blowup_time(rho0: np.ndarray, du0: np.ndarray, rho_bar: float, a: float, k: float,
                    t_max: float) -> float:
    """First time at which some characteristic's beta = 1/rho reaches 0 (see
    ``characteristic_beta``), to 1e-12; inf if none does by t_max."""

    def min_beta(t):
        return float(np.min(characteristic_beta(t, rho0, du0, rho_bar, a, k)))

    ts = np.linspace(0.0, t_max, 4097)
    hit = next((i for i, t in enumerate(ts) if min_beta(t) <= 0.0), None)
    if hit is None:
        return math.inf
    lo, hi = float(ts[hit - 1]), float(ts[hit])
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if min_beta(mid) <= 0.0 else (mid, hi)
    return hi


def alignment_direct(rho: np.ndarray, u: np.ndarray, kernel: KernelSpec, grid: Grid,
                     refinement: int) -> np.ndarray:
    """Direct quadrature of int psi(y) (u(x+y) - u(x)) rho(x+y) dy.

    Independent of the commutator route: the integrand is assembled from
    trigonometric interpolants of rho and u on a refined half-cell-offset
    grid and integrated with the midpoint rule, whose symmetric node set
    implements the principal value. ``refinement`` is rounded up to a
    multiple of the grid size; nominal cost O(n * refinement), evaluated
    as circular correlations in O(refinement log refinement).
    """
    rho = _check(rho, grid)
    u = _check(u, grid)
    if refinement < grid.n:
        raise ValueError("refinement must be at least the grid size")
    r = -(-int(refinement) // grid.n) * grid.n
    w = quadrature_weights(kernel, r)
    rho_r = resample_midpoints(rho, grid, r)
    mom_r = rho_r * resample_midpoints(u, grid, r)
    idx = (np.arange(grid.n) * (r // grid.n) - r // 2) % r
    flux = circular_correlate(w, mom_r)[idx]
    weight = circular_correlate(w, rho_r)[idx]
    return (flux - u * weight) / r


def alignment_spectral(rho: np.ndarray, u: np.ndarray, kernel: KernelSpec,
                       grid: Grid) -> np.ndarray:
    """Commutator route to the alignment force.

    c * (u Lambda^a rho - Lambda^a (rho u)) + psi_l*(rho u) - u (psi_l*rho);
    this identity is what turns the primitive velocity equation into pure
    transport of g.
    """
    out = np.zeros(grid.n)
    if kernel.c > 0:
        out += kernel.c * (
            u * fractional_laplacian(rho, kernel.alpha, grid)
            - fractional_laplacian(rho * u, kernel.alpha, grid)
        )
    if not kernel.psi_l.is_zero:
        pl = lipschitz_on_grid(kernel.psi_l, grid)
        out += convolve(pl, rho * u, grid) - u * convolve(pl, rho, grid)
    return out


def psi_alpha_min(alpha: float, tol: float = 1e-12) -> float:
    """Minimum of psi_alpha over the torus, attained at x = 1/2."""
    return float(psi_alpha(0.5, alpha, tol))


def newtonian_force(rho: np.ndarray, k: float, grid: Grid) -> np.ndarray:
    """Force -d(phi)/dx where phi solves phi'' = k (rho - mean rho).

    Spectral multiplier -k / (2 pi i k_mode) on the nonzero modes; the
    output always has zero mean.
    """
    rho = _check(rho, grid)
    fh = np.fft.rfft(rho)
    fh[0] = 0.0
    fh[1:] *= -k / (1j * grid.two_pi_k[1:])
    fh[-1] = 0.0
    return np.fft.irfft(fh, n=grid.n)


def regular_force(rho: np.ndarray, pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Force -d/dx (K_reg * rho) from the regular potential part."""
    if pot.kreg.is_zero:
        return np.zeros(grid.n)
    return -derivative(convolve(potential_on_grid(pot.kreg, grid), rho, grid), grid)


def fractional_laplacian_direct(
    f: np.ndarray, alpha: float, grid: Grid, refinement: int, tol: float = 1e-12
) -> np.ndarray:
    """Principal-value quadrature route to the fractional Laplacian.

    Approximates c_alpha P.V. int (f(x) - f(x+y)) / |y|^(1+alpha) dy as a
    midpoint sum over ``refinement`` half-cell-offset nodes (so y = 0 is
    never sampled and the symmetric +-y pairing cancels the odd part),
    with f interpolated trigonometrically onto the refined nodes. This is
    the independent check of the (2 pi |k|)^alpha multiplier route; the
    naive cost O(n * refinement) is reduced to O(refinement log) by
    evaluating the sums as one circular correlation.
    """
    f = _check(f, grid)
    r = -(-int(refinement) // grid.n) * grid.n  # round up to a grid multiple
    spec = KernelSpec(c=1.0, alpha=alpha)
    w = quadrature_weights(spec, r, tol)
    fr = resample_midpoints(f, grid, r)
    corr = circular_correlate(w, fr)
    idx = (np.arange(grid.n) * (r // grid.n) - r // 2) % r
    return (f * np.sum(w) - corr[idx]) / r


def roll_lag_table(rho: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances l/n, D[l] = max_i |rho_i - rho_{i+l}| and its first argmax i,
    one ``np.roll`` per lag l = 1..n/2."""
    rho = np.asarray(rho, dtype=float)
    half = n // 2
    diffs = np.empty(half)
    at = np.empty(half, dtype=np.intp)
    for lag in range(1, half + 1):
        diff = np.abs(rho - np.roll(rho, -lag))
        i = int(np.argmax(diff))
        at[lag - 1] = i
        diffs[lag - 1] = diff[i]
    return np.arange(1, half + 1) / n, diffs, at


def reference_omega_b(xi, p: ModulusParams) -> np.ndarray | float:
    """The gauge w_B, written out apart from ``diagnostics.omega_b``."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0) or np.any(xi > 0.5):
        raise ValueError("xi must lie in (0, 1/2]")
    head = p.delta - p.delta ** (1.0 + p.alpha / 2.0)
    if math.isinf(p.b):
        out = np.full_like(xi, np.inf)
        return out if out.ndim else float(out)
    bxi = p.b * xi
    mask = bxi < p.delta
    out = np.empty_like(xi)
    out[mask] = bxi[mask] - bxi[mask] ** (1.0 + p.alpha / 2.0)
    out[~mask] = p.gamma * (math.log(p.b) + np.log(xi[~mask]) - math.log(p.delta)) + head
    return out if out.ndim else float(out)


def reference_min_b(rho: np.ndarray, delta: float, gamma: float, alpha: float,
                    n: int) -> float:
    """Bisection in log b to within MIN_B_RTOL, with a freshly validated
    ``ModulusParams`` and a full ``reference_omega_b`` at every point. It
    returns a passing b at most MIN_B_RTOL above the infimum."""
    dists, diffs, _ = roll_lag_table(rho, n)

    def ok(b: float) -> bool:
        p = ModulusParams(delta, gamma, b, alpha)
        return float(np.min(reference_omega_b(dists, p) - diffs)) > 0.0

    if ok(1.0):
        return 1.0
    if not ok(MIN_B_CAP):
        return math.inf
    lo, hi = math.log(1.0), math.log(MIN_B_CAP)
    while hi - lo > math.log1p(MIN_B_RTOL):
        mid = 0.5 * (lo + hi)
        if ok(math.exp(mid)):
            hi = mid
        else:
            lo = mid
    return math.exp(hi)

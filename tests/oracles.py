"""Reference routes through the dynamics and the diagnostics, for tests only.

Most compose per-operator functions, one transform per operator, the way
the solver did before its multipliers were fused into
``model.spectral_plan``. The fused ``rhs`` and ``recover_velocity`` are
checked against them. ``compute_g`` is g from (rho, u) on the full
spectrum, one rfft and one irfft, checked against
``derivative(u) - c fractional_laplacian(rho) + convolve(psi_l, rho)``.
``fractional_laplacian`` and ``dealias`` are per-operator transforms that
the solver applies through its plan's multipliers. The force and
quadrature routes (among them ``alignment_direct``, a midpoint-rule
quadrature of the alignment integral) check the operators themselves.
``psi_alpha`` is the periodized singular kernel as its lattice sum,
truncated with Euler-Maclaurin tails to an absolute ``tol``: the package
evaluates it only at x = 1/2, in closed form through zeta, so the sum is
an oracle here. ``kernel_values`` is the one pointwise evaluation of the
effective kernel, and ``dense_kernel_min`` the dense search that
``kernels.kernel_min`` must never exceed.
``initial_fields`` samples each initial preset's (rho, u) on the grid, the
definition that ``model.initial_band`` writes in closed form for the
trigonometric presets and transforms for the gaussian ones.
``reference_step`` is the SSP-RK3 step as it was before the array core:
three ``rhs(state)`` calls and one ``SimState`` per stage.
``spectral_reference_step`` is the step the run loop takes on the band of
the spectrum of the fields, with its step size: three ``rhs_spectrum``
evaluations and one ``SimState`` per stage, built from one irfft of the
stage's band.
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
Newtonian. ``dichotomy_bracket`` gives the exact c = 0 verdict for any
even psi_l >= 0 with the potential off, and brackets the blow-up time.
``casimir`` and ``velocity_diameter`` are what a run with the potential
off conserves and contracts, for any kernel.
``certified_modulus_params`` is the paper's recipe for the modulus gauge
(delta, gamma, B) from the envelope values at a horizon; its B overflows
on every problem tried, so the recorder checks the gauge with the
data-driven ``diagnostics.moc_min_b`` instead. ``check_f_transported`` is
the forcing-free check that |f|_inf never increases along a log, and
``rho_max_envelope`` the exponential envelope C e^{A t} on max rho that it
uses at the horizon. The recipe's own constants (C, A and |q_0|_inf) are
computed here, from the initial state and its ``BoundConstants``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from epasim.diagnostics import (
    MIN_B_CAP,
    BoundConstants,
    CheckReport,
    DiagnosticsLog,
    ModulusParams,
)
from epasim.kernels import (
    KernelSpec,
    PotentialSpec,
    c_alpha,
    g_source,
)
from epasim.integrator import StepControl, _dt_constants, _raw_dt
from epasim.model import SimState, recover_velocity, rhs, rhs_spectrum
from epasim.spectral import (
    MEAN_TOL,
    Grid,
    MeanViolationError,
    _check,
    convolve,
    derivative,
    mean,
    to_spectrum,
)

MIN_B_RTOL = 0.01  # relative resolution of reference_min_b's bisection


def with_fields(state: SimState, rho: np.ndarray | None = None, g: np.ndarray | None = None,
                **changes) -> SimState:
    """``dataclasses.replace`` of a state, with its rows rho and g replaced by name."""
    x = np.stack((state.rho if rho is None else rho, state.g if g is None else g))
    return replace(state, x=x, **changes)


def initial_fields(preset: str, grid: Grid, **params) -> tuple[np.ndarray, np.ndarray]:
    """Density/velocity samples of a named initial preset, before any transform."""
    x = grid.x

    def bump():  # a gaussian of the given width, periodized
        w = params.get("width", 0.1)
        return sum(np.exp(-((x + m) ** 2) / (2 * w**2)) for m in range(-4, 5))

    if preset == "uniform":
        rho = np.full(grid.n, params.get("rho_base", 1.0))
        u = np.full(grid.n, params.get("u_mean", 0.0))
    elif preset == "cosine":
        rho = params.get("rho_base", 1.0) + params.get("rho_amp", 0.5) * np.cos(2 * np.pi * x)
        u = params.get("u_mean", 0.0) + params.get("u_amp", 0.0) * np.sin(2 * np.pi * x)
    elif preset == "gaussian-bump":
        rho = params.get("rho_base", 1.0) + params.get("amp", 0.5) * bump()
        u = params.get("u_mean", 0.0) + params.get("u_amp", 0.0) * np.sin(2 * np.pi * x)
    elif preset == "burgers-shock":
        rho = np.full(grid.n, params.get("rho_base", 1.0))
        u = -params.get("u_amp", 1.0) * np.sin(2 * np.pi * x)
    else:  # near-vacuum
        rho = params.get("eps", 1e-2) + params.get("amp", 1.0) * bump()
        u = np.zeros(grid.n)
    return rho, u


def compute_g(rho: np.ndarray, u: np.ndarray, kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """The gradient variable g = du/dx - c Lambda^alpha rho + psi_l * rho.

    g_hat = 2 pi i k u_hat (Nyquist zeroed) - (c (2 pi |k|)^alpha - psi_l_hat)
    rho_hat on every rfft mode: one rfft of the stacked (rho, u) and one
    irfft, with no dealiasing.
    """
    h = np.fft.rfft(np.stack((_check(rho, grid), _check(u, grid))))
    g_hat = h[1]
    g_hat *= 1j * grid.two_pi_k
    g_hat[-1] = 0.0
    psi_l_hat = to_spectrum(kernel.psi_l(grid.x), grid)
    g_hat -= (kernel.c * grid.two_pi_k**kernel.alpha - psi_l_hat) * h[0]
    return np.fft.irfft(g_hat, n=grid.n)


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
    fh[grid.modes > grid.n // 3] = 0.0
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


class SingularityError(ValueError):
    """Kernel evaluated at x = 0 (mod 1)."""


def _tail(b: np.ndarray, alpha: float) -> np.ndarray:
    # Euler-Maclaurin midpoint tail of sum_{m>M} (m+x)^-(1+alpha), b = M+1/2+x:
    #   int_b^inf s^-(1+a) ds + f'(b)/24 - 7 f'''(b)/5760
    p1 = 1.0 + alpha
    return (
        b**-alpha / alpha
        - (p1 / 24.0) * b ** -(2.0 + alpha)
        + (7.0 * p1 * (2.0 + alpha) * (3.0 + alpha) / 5760.0) * b ** -(4.0 + alpha)
    )


def _truncation_order(alpha: float, tol: float) -> int:
    # leading neglected Euler-Maclaurin term: 31 f^(5)(b) / 967680
    k5 = 31.0 * math.prod(alpha + j for j in range(1, 6)) / 967680.0
    m = (4.0 * c_alpha(alpha) * k5 / tol) ** (1.0 / (6.0 + alpha))
    return max(16, int(math.ceil(m)))


def psi_alpha(x, alpha: float, tol: float = 1e-12):
    """Periodized singular kernel sum_m c_alpha / |x+m|^(1+alpha).

    Evaluated by symmetric truncation of the lattice sum at |m| <= M plus
    an integral tail estimate with Euler-Maclaurin corrections; M is
    chosen from ``tol`` so the absolute truncation error stays below it.

    Parameters
    ----------
    x : float or array
        Point(s) on the torus, x != 0 (mod 1).
    alpha : float
        Singularity exponent, in (0, 2).
    tol : float
        Absolute truncation error budget.
    """
    ca = c_alpha(alpha)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    # reduce to periodic distance s in (0, 1/2]
    s = np.abs(xs - np.round(xs))
    if np.any(s < 1e-15):
        raise SingularityError("psi_alpha is singular at x = 0 (mod 1)")
    p = 1.0 + alpha
    m_max = _truncation_order(alpha, tol)
    total = s**-p
    mm = np.arange(1.0, m_max + 1.0)
    # chunk the (points x terms) table to bound memory on fine grids
    step = max(1, int(2e6) // mm.size)
    for lo in range(0, s.size, step):
        blk = s[lo : lo + step, None]
        total[lo : lo + step] += np.sum((mm + blk) ** -p + (mm - blk) ** -p, axis=1)
    a = m_max + 0.5
    total += _tail(a + s, alpha) + _tail(a - s, alpha)
    out = ca * total
    return float(out[0]) if scalar else out


def kernel_values(spec: KernelSpec, x, tol: float = 1e-12):
    """The effective kernel c psi_alpha(x) + psi_l(x) at points x != 0 (mod 1)."""
    vals = spec.psi_l(x)
    if spec.c > 0:
        vals = vals + spec.c * psi_alpha(x, spec.alpha, tol)
    return vals


def dense_kernel_min(spec: KernelSpec) -> float:
    """Minimum of the effective kernel over 2^16 uniform points of [-1/2, 1/2),
    x = 0 left out: an upper estimate of the infimum that
    ``kernels.kernel_min`` must never exceed."""
    x = -0.5 + np.arange(2**16) / 2**16
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
    return convolve(state.kernel.psi_l(state.grid.x), state.rho, state.grid)


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
    """One Shu-Osher SSP-RK3 step of the band spec of the spectrum of the
    state's block (modes 0 .. n // 3), with the run loop's step size:
    returns the new state, its band and dt.

    Three ``rhs_spectrum`` calls, on a copy of each stage's fields, and each
    stage's fields, one irfft of its band, checked by building its own
    ``SimState``. dt is the loop's: the step bounds at max rho and at the
    sup |u| of the first evaluation, the only one that computes it, capped
    by dt_max and by t_end."""

    def deriv(s, x):
        return rhs_spectrum(x, s.x.copy(), s.problem)[0]

    def stage(x, t):
        return replace(state, x=np.fft.irfft(x, n=state.grid.n), t=t)

    d, u_inf, _ = rhs_spectrum(spec, state.x.copy(), state.problem, drho=True)
    raw = _raw_dt(_dt_constants(state.problem, ctl), float(np.max(state.rho)), u_inf)
    dt = min(raw, ctl.dt_max, ctl.t_end - state.t)
    x1 = spec + dt * d
    s1 = stage(x1, state.t)
    x2 = 0.75 * spec + 0.25 * (x1 + dt * deriv(s1, x1))
    s2 = stage(x2, state.t)
    x3 = (spec + 2.0 * (x2 + dt * deriv(s2, x2))) / 3.0
    return stage(x3, state.t + dt), x3, dt


def stable_dt(state: SimState, ctl: StepControl) -> float:
    """Stability-bounded step: min of the run loop's step bounds and dt_max,
    clamped below by dt_min, from the velocity recovered from the state."""
    u_inf = float(np.max(np.abs(recover_velocity(state))))
    raw = _raw_dt(_dt_constants(state.problem, ctl), float(np.max(state.rho)), u_inf)
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


def dichotomy_bracket(state: SimState) -> tuple[float, float] | None:
    """The exact c = 0 dichotomy for an even psi_l >= 0 and no potential:
    None when min g0 >= 0, where the solution is global, else the bracket
    (min T(a_hi), min T(a_lo)) that holds the blow-up time t*.

    f = g/rho is constant along each characteristic, and beta = 1/rho obeys
    beta' = f - (psi_l * rho) beta, whose coefficient lies in
    [a_lo, a_hi] = rho_bar [min psi_l, max psi_l]. With f >= 0 every beta
    stays positive. Where f < 0, T(a) = log(1 + a beta0/|f|)/a is the time
    at which beta reaches 0 under a constant coefficient a; it falls as a
    grows. beta' <= f keeps beta bounded, so no exact solution reaches
    vacuum (Carrillo, Choi, Tadmor & Tan, arXiv:1411.6287, for a constant
    psi_l, where the two ends meet at the Riccati time).
    """
    f = state.g / state.rho
    neg = f < 0.0
    if not neg.any():
        return None
    beta, drive = 1.0 / state.rho[neg], -f[neg]
    lo, hi = (state.rho_bar * v for v in state.kernel.psi_l.value_range())
    return tuple(float(np.min(np.log1p(a * beta / drive) / a)) for a in (hi, lo))


def casimir(state: SimState, power: int) -> float:
    """int rho f^power dx of f = g/rho, which the flow conserves for any
    kernel when the potential is off: rho dx and f are both transported."""
    return mean(state.rho * (state.g / state.rho) ** power)


def velocity_diameter(state: SimState) -> float:
    """max u - min u over the grid. It contracts at least as fast as
    exp(-psi_m rho_bar t) when the potential is off and psi_m > 0 (the
    flocking estimate of Ha & Tadmor, Kinet. Relat. Models 1, 2008), and
    exactly so for c = 0 and a constant psi_l."""
    u = recover_velocity(state)
    return float(u.max() - u.min())


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
        pl = kernel.psi_l(grid.x)
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
    return -derivative(convolve(pot.kreg(grid.x), rho, grid), grid)


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


def certified_modulus_params(state0: SimState, bc: BoundConstants, t_end: float,
                             c2: float = 1.0, c3: float = 1.0,
                             c_f: float | None = None,
                             margin: float = 0.99) -> ModulusParams:
    """Select (delta, gamma, B) from the envelope values at horizon t_end.

    c2 and c3 are the alpha-dependent constants of the gauge-transport
    estimates (no numeric values are derivable; defaults 1). c_f is the
    Lipschitz-transfer constant; when omitted it is computed exactly in
    the forcing-free case (where the ratio gradient is transported) and
    defaults to 1 otherwise. All strict inequalities are applied with the
    given safety margin. The certified B is double-exponential in the
    inputs and may overflow to +inf; data-driven monitoring should prefer
    moc_min_b.
    """
    if not all(math.isfinite(c) and c > 0 for c in (c2, c3)) or not t_end >= 0:  # NaN too
        raise ValueError("c2, c3 must be finite and positive and t_end nonnegative")
    if c_f is not None and c_f < 0:
        raise ValueError("c_f must be nonnegative")
    alpha = bc.alpha
    rho_m = float(bc.rho_min_envelope(t_end))
    rho_big = max(float(rho_max_envelope(bc, t_end)), 1.0)
    f_big = float(bc.f_bound(t_end))
    if c_f is None:
        # |(f_0)_x / rho_0|_inf, the transported ratio gradient without forcing
        q0_inf = float(np.max(np.abs(derivative(state0.g / state0.rho, state0.grid) / state0.rho)))
        c_f = rho_big * q0_inf if bc.kappa == 0 else 1.0
    denom = max(4.0 * c2, 12.0 * rho_big * f_big, 6.0 * rho_big**2 * c_f)
    bend_cap = (1.0 / (1.0 + alpha / 2.0)) ** (2.0 / alpha)
    rho0_sup = bc.rho0_max
    drho0 = state0.drho_inf
    slope_cap = 2.0 * rho0_sup / drho0 if drho0 > 0 else math.inf
    delta = margin * min(1.0, slope_cap, (c3 * rho_m / denom) ** (2.0 / alpha), bend_cap)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"selected delta {delta} is out of (0, 1)")
    head = delta - delta ** (1.0 + alpha / 2.0)
    bend = (1.0 + alpha / 2.0) * delta ** (alpha / 2.0)
    gamma = margin * min(
        c3 / (4.0 * c2) * rho_m,
        min(1.0 / (2.0 * math.log(2.0)), alpha) * head,
        delta * (1.0 - bend),
        1.0,
    )
    if gamma <= 0.0:
        raise ValueError("selected gamma is not positive")
    log_b = 0.0
    if drho0 > 0:
        log_b = max(log_b, math.log(delta * drho0 / (2.0 * rho0_sup)) + 2.0 * rho0_sup / gamma)
    log_b = max(log_b, math.log(2.0 * delta) + 6.0 * rho_big**2 * f_big / (c3 * gamma * rho_m))
    log_b -= math.log(margin)
    b = math.exp(log_b) if log_b < math.log(1e308) else math.inf
    return ModulusParams(delta=delta, gamma=gamma, b=max(b, 1.0), alpha=alpha)


def rho_max_envelope(bc: BoundConstants, t: np.ndarray | float) -> np.ndarray | float:
    """C e^{A t}, for a float or an array t, with A = A_m / alpha and C the
    largest of the upper bound's floor and (fac peak / C_1)^(1/alpha), where
    peak bounds F_M(t) e^{-A_m t} and fac is 2 for a general kernel."""
    fac = 2.0 if bc.general else 1.0
    if bc.kappa > 0:
        # kappa / a_m = psi_m / (1 + eps): nothing divides by a_m, which
        # underflows to 0 for subnormal kappa
        kappa_over_a_m = bc.psi_m / (1.0 + bc.eps)
        peak = (bc.f0_inf + abs(bc.k) / bc.kappa * kappa_over_a_m / math.e
                + kappa_over_a_m * bc.rho_bar / bc.c_m)
    else:
        peak = bc.f0_inf
    c_big = max(bc.rho_max_floor, (fac * peak / bc.c1) ** (1.0 / bc.alpha))
    return c_big * np.exp(bc.a_m / bc.alpha * t)


def check_f_transported(log: DiagnosticsLog, atol: float = 1e-6) -> CheckReport:
    """Forcing-free property: |f|_inf never increases along the log.

    ``atol`` absorbs integrator-level fluctuation (scaled by the initial
    size); only meaningful when k = 0 and the regular potential is off.
    """
    f = log.column("f_inf")
    if f.size == 0:
        return CheckReport(False, math.nan, math.nan, "empty log")
    tol = atol * max(1.0, f[0])
    steps = np.diff(f)
    gaps = tol - steps
    i = int(np.argmin(gaps)) if steps.size else 0
    worst = float(gaps[i]) if steps.size else math.inf
    t = log.column("t")
    return CheckReport(bool(worst >= 0.0), worst, float(t[i + 1] if steps.size else t[0]))

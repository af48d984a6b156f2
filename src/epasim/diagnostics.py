"""Verification of the a-priori bounds along simulated trajectories.

Implements the explicit constants of the density envelopes and the bound
on the transported ratio f = g/rho:

    min rho(t)  >=  C_m exp(-A_m t)
    max rho(t)  <=  max(max rho_0, 3 rho_bar, (F_M(t)/C_1)^(1/alpha))
    |f(t)|_inf  <=  F_M(t) = |f_0|_inf + |k| t + kappa rho_bar/(A_m C_m) e^{A_m t}

with A_m = (kappa/psi_m)(1+eps), C_m = min(min rho_0, eps e rho_bar),
kappa = |k| + |K_reg''|_inf, and eps a chosen fraction of

    eps_* = ( sqrt(1 + 4 psi_m / (e (psi_m + |psi_l|_inf + |f_0|_inf))) - 1 ) / 2.

It also implements the two-branch modulus-of-continuity gauge

    w_B(xi) = B xi - (B xi)^(1+alpha/2)          for xi <  delta/B
            = gamma log(B xi/delta) + delta - delta^(1+alpha/2)  otherwise

together with the recipe that selects (delta, gamma, B) from the envelope
values at a horizon T and a pairwise grid check of the gauge. The
pairwise check reads the per-lag table D[l] = max_i |rho_i - rho_{i+l}|;
as w_B(xi) = W(B xi) with W increasing, the check and the infimum
max(1, max_l W^-1(D[l]) / xi_l) of the passing B each read it in O(n).
Bounds lo <= D <= hi from every 16th sample, O(n^2 / 16) time, rule out
most lags, and D is computed, in O(n) each, only at the lags they leave
open; the verdict, the pair and B are those of the full table, bit for
bit. Memory O(n).
The recorder logs these quantities along a run, one row per step, among
them the running trapezoidal integral of |d rho/dx|_inf^2 whose
finiteness is the regularity criterion. ``COLUMNS`` names the columns of
a row in order; it is also the header of the CSV log. Apart from the lag
table of a modulus row, a recorder row is O(n) and takes no transform:
|d rho/dx|_inf is read from the state, where the run loop has computed
it already.

Grid extrema under-sample continuum extrema, so every envelope comparison
carries the slack factor 1 + 10 dx; margins are reported with the slack
folded in, so margin >= 1 always means "pass". ``BoundConstants`` computes
both envelope margins, for the recorder and for the offline checks alike.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import kernel_min
from .model import SimState
from .model import recover_velocity  # noqa: F401  (perfbench traces diagnostics.recover_velocity)
from .spectral import Grid, GridMismatchError, derivative, mean

ENVELOPE_SLACK = 10.0  # slack factor 1 + ENVELOPE_SLACK * dx on grid extrema
F_BOUND_ATOL = 1e-12  # absolute floor so roundoff-level f fields compare sanely
MIN_B_CAP = 1e290  # moc_min_b reports +inf above this b
_STRIDE = 16  # the lag bounds start at every 16th sample: a fixed choice, not a setting
_LOG_SLACK = 2.0**-30  # relative rounding slack of the pruning for moc_min_b

# a recorder row, in order: the DiagnosticsLog lists and the CSV header
COLUMNS = ("t", "rho_min", "rho_max", "f_inf", "drho_inf", "bkm", "mass",
           "env_lower_margin", "env_upper_margin", "moc_pass", "moc_min_b")


def _slack(dx: float) -> float:
    """Factor on grid extrema compared with a continuum bound."""
    return 1.0 + ENVELOPE_SLACK * dx


# ---------------------------------------------------------------------------
# bound constants


@dataclass(frozen=True)
class BoundConstants:
    """Explicit envelope constants derived from an initial state."""

    alpha: float
    rho_bar: float
    psi_m: float
    psi_l_sup: float
    kxx_sup: float
    k: float
    f0_inf: float
    q0_inf: float
    rho0_min: float
    rho0_max: float
    eps_star: float
    eps: float
    a_m: float
    c_m: float
    a_big: float
    c_big: float
    c1: float
    general: bool

    @property
    def kappa(self) -> float:
        """Combined forcing coefficient |k| + |K_reg''|_inf."""
        return abs(self.k) + self.kxx_sup

    # the envelopes take a float or an array t and return the same kind

    def rho_min_envelope(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.c_m * np.exp(-self.a_m * t)

    def rho_max_envelope(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.c_big * np.exp(self.a_big * t)

    def f_bound(self, t: np.ndarray | float) -> np.ndarray | float:
        """Growth envelope F_M(t) for the transported ratio.

        The last term writes kappa/A_m as psi_m/(1+eps), so it stays finite
        when A_m underflows to 0 for a tiny kappa > 0. It omits the -1 of
        int_0^t e^{A_m s} ds: F_M(0) exceeds |f_0|_inf, and F_M jumps as
        kappa -> 0+, from |f_0|_inf at kappa = 0 to
        |f_0|_inf + psi_m rho_bar/((1+eps) C_m) for any kappa > 0. The bound
        is conservative, not wrong. At kappa = 0, k is 0 and the |k| t term
        adds an exact zero.
        """
        out = self.f0_inf + abs(self.k) * t
        if self.kappa > 0:
            out = out + self.psi_m / (1.0 + self.eps) * self.rho_bar / self.c_m * np.exp(self.a_m * t)
        return out

    @property
    def rho_max_floor(self) -> float:
        """The time-independent branches of the upper bound on max rho."""
        return _rho_max_floor(self.rho0_max, self.rho_bar, self.psi_l_sup, self.alpha, self.c1)

    def rho_max_bound(self, t: np.ndarray | float) -> np.ndarray | float:
        """Pointwise-in-time upper bound on max rho (three/four branch)."""
        fac = 2.0 if self.general else 1.0
        branch = (fac * self.f_bound(t) / self.c1) ** (1.0 / self.alpha)
        return np.maximum(self.rho_max_floor, branch)

    def lower_margin(self, t, rho_min, dx: float):
        """min rho with the grid slack over its lower envelope; >= 1 passes."""
        return rho_min * _slack(dx) / self.rho_min_envelope(t)

    def upper_margin(self, t, rho_max, dx: float):
        """The upper bound with the grid slack over max rho; >= 1 passes."""
        return self.rho_max_bound(t) * _slack(dx) / rho_max


def _rho_max_floor(rho0_max: float, rho_bar: float, psi_l_sup: float, alpha: float,
                   c1: float) -> float:
    # max(rho0_max, 3 rho_bar) and, with psi_l != 0, (2 |psi_l|_inf rho_bar / C_1)^(1/(1+alpha))
    floor = max(rho0_max, 3.0 * rho_bar)
    if psi_l_sup > 0:
        floor = max(floor, (2.0 * psi_l_sup * rho_bar / c1) ** (1.0 / (1.0 + alpha)))
    return floor


def bound_constants(state: SimState, eps_fraction: float = 0.5, c1: float = 1.0) -> BoundConstants:
    """Evaluate every envelope constant from the initial state.

    ``eps_fraction`` places eps inside (0, eps_*); ``c1`` is the
    user-supplied nonlinear-maximum-principle constant (no numeric value
    is derivable here, so it defaults to 1 and the upper-envelope check
    additionally reports the value fitted from the run). psi_m is
    ``kernel_min``: exact, or for c > 0 with a table or b < 0 cosine psi_l
    a certified lower bound that makes every constant more conservative.
    """
    if not 0.0 < eps_fraction < 1.0:
        raise ValueError("eps_fraction must be in (0, 1)")
    if not (math.isfinite(c1) and c1 > 0.0):
        raise ValueError(f"c1 must be finite and positive, got {c1}")
    if not state.kernel.enabled:
        raise ValueError("bound constants require an active alignment kernel")
    rho0_min, rho0_max = float(np.min(state.rho)), float(np.max(state.rho))
    alpha = state.kernel.alpha
    if alpha >= 1.0:
        warnings.warn(
            "envelope constants are derived for alpha < 1; "
            "monitors run but should be read as advisory",
            stacklevel=2,
        )
    psi_m = kernel_min(state.kernel)
    if psi_m <= 0.0:
        raise ValueError("effective kernel has no positive lower bound")
    psi_l_sup = state.kernel.psi_l.sup_norm()
    kxx_sup = state.potential.kreg.second_derivative_sup
    f0 = state.g / state.rho
    f0_inf = float(np.max(np.abs(f0)))
    q0_inf = float(np.max(np.abs(derivative(f0, state.grid) / state.rho)))
    eps_star = 0.5 * (
        math.sqrt(1.0 + 4.0 * psi_m / (math.e * (psi_m + psi_l_sup + f0_inf))) - 1.0
    )
    eps = eps_fraction * eps_star
    kappa = abs(state.potential.k) + kxx_sup
    a_m = kappa / psi_m * (1.0 + eps)
    c_m = min(rho0_min, eps * math.e * state.rho_bar)
    general = (psi_l_sup > 0.0) or (kxx_sup > 0.0)
    fac = 2.0 if general else 1.0
    if kappa > 0:
        # kappa / a_m = psi_m / (1 + eps): nothing divides by a_m, which
        # underflows to 0 for subnormal kappa
        kappa_over_a_m = psi_m / (1.0 + eps)
        peak = (f0_inf + abs(state.potential.k) / kappa * kappa_over_a_m / math.e
                + kappa_over_a_m * state.rho_bar / c_m)
    else:
        peak = f0_inf
    branch3 = (fac * peak / c1) ** (1.0 / alpha)
    c_big = max(_rho_max_floor(rho0_max, state.rho_bar, psi_l_sup, alpha, c1), branch3)
    return BoundConstants(
        alpha=alpha,
        rho_bar=state.rho_bar,
        psi_m=psi_m,
        psi_l_sup=psi_l_sup,
        kxx_sup=kxx_sup,
        k=state.potential.k,
        f0_inf=f0_inf,
        q0_inf=q0_inf,
        rho0_min=rho0_min,
        rho0_max=rho0_max,
        eps_star=eps_star,
        eps=eps,
        a_m=a_m,
        c_m=c_m,
        a_big=a_m / alpha,
        c_big=c_big,
        c1=c1,
        general=general,
    )


# ---------------------------------------------------------------------------
# modulus of continuity


@dataclass(frozen=True)
class ModulusParams:
    """Parameters of the two-branch concave gauge w_B.

    The invariants keep the gauge strictly increasing and concave on
    (0, 1/2]: the power branch must not bend over before the joint and
    the log branch must not out-slope it.
    """

    delta: float
    gamma: float
    b: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not self.gamma > 0.0:  # NaN fails every comparison
            raise ValueError("gamma must be positive")
        if not self.b >= 1.0:
            raise ValueError("b must be at least 1")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must be in (0, 2]")
        bend = (1.0 + self.alpha / 2.0) * self.delta ** (self.alpha / 2.0)
        if bend >= 1.0:
            raise ValueError("power branch not increasing: delta too large for this alpha")
        head = self.delta - self.delta ** (1.0 + self.alpha / 2.0)
        tol = 1.0 + 1e-9
        if self.gamma > head / (2.0 * math.log(2.0)) * tol:
            raise ValueError("gamma exceeds (delta - delta^(1+a/2)) / (2 log 2)")
        if self.gamma > self.delta * (1.0 - bend) * tol:
            raise ValueError("gamma breaks concavity at the branch joint")


def omega_b(xi, p: ModulusParams) -> np.ndarray | float:
    """Evaluate the gauge w_B on distances xi in (0, 1/2]."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0) or np.any(xi > 0.5):
        raise ValueError("xi must lie in (0, 1/2]")
    if math.isinf(p.b):
        out = np.full_like(xi, np.inf)
    else:
        mask = p.b * xi < p.delta
        out = np.empty_like(xi)
        bxi = p.b * xi[mask]
        out[mask] = bxi - bxi ** (1.0 + p.alpha / 2.0)
        # log evaluated additively so huge b never overflows the argument,
        # in place to keep one temporary
        head = p.delta - p.delta ** (1.0 + p.alpha / 2.0)
        rest = xi[~mask]
        np.log(rest, out=rest)
        rest += math.log(p.b)
        rest -= math.log(p.delta)
        rest *= p.gamma
        rest += head
        out[~mask] = rest
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MocReport:
    passed: bool
    margin: float  # min over pairs of w_B(d) - |rho(x) - rho(y)|
    distance: float
    pair: tuple[int, int]


def _lag_table(rho: np.ndarray, n: int, p: ModulusParams,
               min_b: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lags l that may bind, their distances l/n, D[l] = max_i
    |rho_i - rho_{i+l}| and its first argmax i.

    A lag may bind when ``_may_bind`` cannot rule out that it holds the
    smallest gap of the check under ``p`` (no lag for b = inf) or, with
    ``min_b``, the smallest passing B. A non-finite field, or n < 4 _STRIDE,
    keeps every lag l = 1..n/2, so a NaN still fails the check. ``ext``,
    made once the pruning is done, holds rho followed by its first n/2
    samples, so ``ext[l:l+n]`` is rho shifted by l with no copy; each kept
    lag is one O(n) pass into the one buffer ``buf``, and D is read off at
    the argmaxes in one gather. Memory O(n): a (lags x n) tile over a
    strided view of ``ext`` would make numpy buffer the strided operand.
    The values are those of ``abs(rho - roll(rho, -l))``, bit for bit, and
    the report and B read from the kept lags are those of all n/2.
    """
    half = n // 2
    if n >= 4 * _STRIDE and np.isfinite(rho).all():
        lags = np.flatnonzero(_may_bind(rho, p, min_b)) + 1
    else:
        lags = np.arange(1, half + 1)
    ext = np.concatenate((rho, rho[:half]))
    buf = np.empty(n)
    at = np.empty(lags.size, dtype=np.intp)
    for k, lag in enumerate(lags):
        np.subtract(rho, ext[lag:lag + n], out=buf)
        np.abs(buf, out=buf)
        at[k] = buf.argmax()
    del buf
    diffs = rho[at]
    diffs -= ext[at + lags]
    return lags, lags / n, np.abs(diffs, out=diffs), at


def _lag_bounds(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= D[l] <= hi for the lags l = 1..n/2, in O(n^2 / _STRIDE).

    lo is the largest |rho_j - rho_{j+l}| over the starts j, every
    _STRIDE-th sample, one contiguous slice of ``ext`` per start, where
    ``ext`` is rho followed by its first n/2 samples, as in ``_lag_table``.
    Every i lies within r = _STRIDE // 2 of a start, so |rho_i - rho_{i+l}|
    exceeds that start's value by at most 2 r L1, with L1 the largest
    neighbour difference. 16 ulps of max |rho| cover the rounding of the
    differences and the sum, so hi bounds D in floating point too. Each
    temporary is freed before the next is made: at most 2.5 n values live
    at once.
    """
    n = rho.size
    half = n // 2
    step = np.diff(rho)
    l1 = max(float(np.abs(step, out=step).max()), abs(float(rho[0] - rho[-1])))
    del step
    ext = np.concatenate((rho, rho[:half]))
    lo = np.zeros(half)
    buf = np.empty(half)
    for j in range(0, n, _STRIDE):
        np.subtract(rho[j], ext[j + 1:j + 1 + half], out=buf)
        np.abs(buf, out=buf)
        np.maximum(lo, buf, out=lo)
    del ext, buf
    peak = max(float(rho.max()), -float(rho.min()))
    return lo, lo + (2 * (_STRIDE // 2) * l1 + 16 * np.spacing(peak))


def _may_bind(rho: np.ndarray, p: ModulusParams, min_b: bool) -> np.ndarray:
    """Mask of the lags whose bounds lo <= D <= hi leave open that they
    hold the smallest gap w_B(xi) - D (b finite) or, with ``min_b``, the
    largest log W^-1(D) - log xi.

    Both are monotone in D, so a lag whose value at hi is beaten by another
    lag's value at lo is dropped; ties keep it, so the first minimiser
    stays. The B test reads closed-form bounds on log W^-1 (see
    ``_log_inverse``) and, as Newton's root is monotone in D only up to its
    last ulps, leaves the relative slack _LOG_SLACK. Each temporary is
    freed once read, so at most five half-length arrays live at once.
    """
    lo, hi = _lag_bounds(rho)
    dists = np.arange(1, lo.size + 1) / rho.size
    keep = np.zeros(lo.size, dtype=bool)
    if not math.isinf(p.b):
        w = omega_b(dists, p)
        least = np.min(w - lo)
        w -= hi
        keep |= w <= least
        del w
    if min_b:
        log_xi = np.log(dists)
        del dists
        below = _log_inverse(lo, p.delta, p.gamma, p.alpha, "below")
        below -= log_xi
        top = float(np.max(below))
        del below, lo
        if top < math.inf:
            top -= _LOG_SLACK * (1.0 + abs(top))
        above = _log_inverse(hi, p.delta, p.gamma, p.alpha, "above")
        above -= log_xi
        keep |= above >= top
    return keep


def _log_inverse(diffs: np.ndarray, delta: float, gamma: float, alpha: float,
                 bound: str | None = None) -> np.ndarray:
    """log W^-1(D) for each D in ``diffs``, where w_b(xi) = W(b xi), or with
    ``bound`` a bound on it from "below" or "above".

    Closed-form on the log branch, NaN included. On the power branch the
    root s of s = D + s^p lies in [D, D / (1 - delta^(p-1))], and one
    fixed-point step from either end stays on its side: that is the bound.
    The value takes Newton on the concave s - s^p - D from s = D, whose
    iterates rise to the root (np.maximum keeps rounding from lowering
    one), so the loop ends once none rises. An entry that stops rising
    never rises again, so each result depends on its own D alone.
    """
    p = 1.0 + alpha / 2.0
    head = delta - delta ** p
    log_s = (diffs - head) / gamma + math.log(delta)
    low = diffs < head
    s = d = diffs[low]
    if bound is None:
        while True:
            nxt = s - (s - s ** p - d) / (1.0 - p * s ** (p - 1.0))
            if not np.any(nxt > s):
                break
            s = np.maximum(s, nxt)
    else:
        end = d / (1.0 - delta ** (p - 1.0)) if bound == "above" else d
        s = d + end ** p
    with np.errstate(divide="ignore"):  # D = 0 gives s = 0, which binds no b
        log_s[low] = np.log(s)
    return log_s


def _moc_report(table, p: ModulusParams, n: int) -> MocReport:
    lags, dists, diffs, at = table
    gaps = omega_b(dists, p) - diffs
    k = int(np.argmin(gaps))
    i = int(at[k])
    return MocReport(passed=bool(gaps[k] > 0.0), margin=float(gaps[k]),
                     distance=float(dists[k]), pair=(i, (i + int(lags[k])) % n))


def _min_b(table, delta: float, gamma: float, alpha: float) -> float:
    _, dists, diffs, _ = table
    top = float(np.max(_log_inverse(diffs, delta, gamma, alpha) - np.log(dists)))
    if not top <= math.log(MIN_B_CAP):  # NaN too
        return math.inf
    return math.exp(max(top, 0.0))


def _field(rho: np.ndarray, grid: Grid) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n,):
        raise GridMismatchError(f"expected shape ({grid.n},), got {rho.shape}")
    return rho


def moc_check(rho: np.ndarray, p: ModulusParams, grid: Grid) -> MocReport:
    """Check |rho(x) - rho(y)| < w_B(d(x, y)) over all grid pairs.

    Returns the pair with the smallest gap, the shortest distance among
    ties. Cost O(n^2 / 16) for the bounds on the lag table plus O(n) per
    lag they leave open; for b = inf the gauge is +inf everywhere and no
    pair can bind, so no pair is compared. A rho not of shape (n,) raises
    GridMismatchError.
    """
    rho = _field(rho, grid)
    if math.isinf(p.b):
        return MocReport(passed=True, margin=math.inf, distance=0.5, pair=(0, 0))
    return _moc_report(_lag_table(rho, grid.n, p, min_b=False), p, grid.n)


def moc_min_b(rho: np.ndarray, delta: float, gamma: float, alpha: float, grid: Grid) -> float:
    """Infimum of the b >= 1 whose gauge passes the check.

    Every b above it passes and, unless it is 1, every b below fails. As
    w_b(xi) = W(b xi), it is max(1, max_l W^-1(D[l]) / xi_l): closed-form on
    the log branch, by Newton iteration on the power branch. +inf when it
    exceeds MIN_B_CAP or the field is not finite. Cost as ``moc_check``'s:
    D is computed only at the lags whose bounds may hold the max. A rho
    not of shape (n,) raises GridMismatchError.
    """
    rho = _field(rho, grid)
    p = ModulusParams(delta, gamma, math.inf, alpha)  # raises on bad parameters
    return _min_b(_lag_table(rho, grid.n, p, min_b=True), delta, gamma, alpha)


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
    if not all(math.isfinite(c) and c > 0 for c in (c2, c3)) or t_end < 0:
        raise ValueError("c2, c3 must be finite and positive and t_end nonnegative")
    if c_f is not None and c_f < 0:
        raise ValueError("c_f must be nonnegative")
    alpha = bc.alpha
    rho_m = float(bc.rho_min_envelope(t_end))
    rho_big = max(float(bc.rho_max_envelope(t_end)), 1.0)
    f_big = float(bc.f_bound(t_end))
    if c_f is None:
        c_f = rho_big * bc.q0_inf if bc.kappa == 0 else 1.0
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


# ---------------------------------------------------------------------------
# run log and recorder


@dataclass
class DiagnosticsLog:
    """Column-oriented time series of the monitored quantities: one list
    attribute per name in COLUMNS."""

    n: int
    alpha: float
    k: float
    config_hash: str = ""

    def __post_init__(self) -> None:
        for name in COLUMNS:
            setattr(self, name, [])

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    def column(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name), dtype=float)

    def to_csv(self, target) -> None:
        """Write the log to a path or an open text stream."""
        with _opened(target, "w") as stream:
            stream.write(f"# config={self.config_hash}\n")
            stream.write(f"# n={self.n} alpha={self.alpha!r} k={self.k!r}\n")
            stream.write(",".join(COLUMNS) + "\n")
            for row in zip(*(getattr(self, name) for name in COLUMNS)):
                stream.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def from_csv(cls, source) -> "DiagnosticsLog":
        """Read a log written by ``to_csv`` from a path or an open text stream.

        Raises ValueError for a header without ``n``, ``alpha`` or ``k``,
        for unexpected columns, and for a data row whose field count is not
        that of ``COLUMNS`` (naming its line).
        """
        with _opened(source, "r") as stream:
            header = {}
            line = stream.readline()
            lineno = 1
            while line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        key, val = tok.split("=", 1)
                        header[key] = val
                line = stream.readline()
                lineno += 1
            missing = [key for key in ("n", "alpha", "k") if key not in header]
            if missing:
                raise ValueError(f"diagnostics header lacks {', '.join(missing)}")
            cols = line.strip().split(",")
            if cols != list(COLUMNS):
                raise ValueError(f"unexpected diagnostics columns {cols}")
            log = cls(
                n=int(header["n"]),
                alpha=float(header["alpha"]),
                k=float(header["k"]),
                config_hash=header.get("config", ""),
            )
            for lineno, line in enumerate(stream, start=lineno + 1):
                if not line.strip():
                    continue
                vals = [float(v) for v in line.strip().split(",")]
                if len(vals) != len(COLUMNS):
                    raise ValueError(f"line {lineno}: {len(vals)} fields, "
                                     f"expected {len(COLUMNS)}")
                for name, v in zip(COLUMNS, vals):
                    getattr(log, name).append(v)
            return log


def _opened(target, mode: str):
    """A path opened as UTF-8 text, or an open stream passed through unclosed."""
    if isinstance(target, (str, bytes, os.PathLike)):
        return open(target, mode, encoding="utf-8")
    return contextlib.nullcontext(target)


class DiagnosticsRecorder:
    """Monitor collecting the diagnostics log during a run.

    A row is recorded at every step, with the columns of ``COLUMNS``:
    time, min and max density, |g/rho|_inf, |d rho/dx|_inf (the state's
    ``drho_inf``, shared with the run loop), the trapezoidal integral of
    its square, mass, the two envelope margins (NaN without ``bounds``),
    and the modulus verdict and the infimum of the passing B (see
    ``moc_min_b``). The modulus columns share one lag table, computed at
    the lags that may bind either (see ``moc_check``) and read twice, and
    run every ``moc_every`` steps, a positive integer and not a bool (else
    ValueError); rows in between, and every row without ``moc``, carry NaN
    there. A row
    recovers no velocity: ``recover_velocity`` pins the momentum to m0 by
    construction, so a momentum column would only echo it.
    """

    def __init__(self, bounds: BoundConstants | None = None,
                 moc: ModulusParams | None = None,
                 moc_every: int = 10, config_hash: str = ""):
        self.bounds = bounds
        self.moc = moc
        # a bool is an Integral, but True is no cadence
        if (isinstance(moc_every, bool) or not isinstance(moc_every, numbers.Integral)
                or moc_every < 1):
            raise ValueError(f"moc_every must be a positive integer, got {moc_every!r}")
        self.moc_every = int(moc_every)
        self._hash = config_hash
        self.log: DiagnosticsLog | None = None

    def __call__(self, step: int, state: SimState) -> None:
        if self.log is None:
            self.log = DiagnosticsLog(
                n=state.grid.n, alpha=state.kernel.alpha, k=state.potential.k,
                config_hash=self._hash,
            )
        log = self.log
        grid = state.grid
        t = state.t
        rho = state.rho
        rho_min = float(np.min(rho))
        rho_max = float(np.max(rho))
        drho = state.drho_inf
        f_inf = float(np.max(np.abs(state.g / rho)))
        if log.t:
            bkm = log.bkm[-1] + 0.5 * (log.drho_inf[-1] ** 2 + drho**2) * (t - log.t[-1])
        else:
            bkm = 0.0
        if self.bounds is not None:
            low = float(self.bounds.lower_margin(t, rho_min, grid.dx))
            up = float(self.bounds.upper_margin(t, rho_max, grid.dx))
        else:
            low = up = math.nan
        if self.moc is not None and step % self.moc_every == 0:
            # one lag table for both the check and the smallest passing B
            p = self.moc
            table = _lag_table(rho, grid.n, p, min_b=True)
            moc_pass = 1.0 if _moc_report(table, p, grid.n).passed else 0.0
            min_b = _min_b(table, p.delta, p.gamma, p.alpha)
        else:
            moc_pass = math.nan
            min_b = math.nan
        row = (t, rho_min, rho_max, f_inf, drho, bkm, mean(rho), low, up, moc_pass, min_b)
        for name, v in zip(COLUMNS, row):
            getattr(log, name).append(v)


# ---------------------------------------------------------------------------
# offline checks over a log


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    margin: float
    worst_t: float
    detail: str = ""
    c1_fit: float = math.nan


def check_lower_envelope(log: DiagnosticsLog, bc: BoundConstants) -> CheckReport:
    """min rho(t) >= C_m exp(-A_m t) at every logged time (with slack)."""
    t = log.column("t")
    if t.size == 0:
        return CheckReport(False, math.nan, math.nan, "empty log")
    margins = bc.lower_margin(t, log.column("rho_min"), log.dx)
    i = int(np.argmin(margins))
    return CheckReport(bool(margins[i] >= 1.0), float(margins[i]), float(t[i]))


def check_upper_envelope(log: DiagnosticsLog, bc: BoundConstants) -> CheckReport:
    """max rho(t) <= its three/four-branch bound; also fit the largest
    maximum-principle constant consistent with the run."""
    t = log.column("t")
    if t.size == 0:
        return CheckReport(False, math.nan, math.nan, "empty log")
    rho_max = log.column("rho_max")
    margins = bc.upper_margin(t, rho_max, log.dx)
    i = int(np.argmin(margins))
    # times where only the growth branch can cover the observed maximum
    fac = 2.0 if bc.general else 1.0
    slack = _slack(log.dx)
    binding = rho_max / slack > bc.rho_max_floor
    if np.any(binding):
        c1_fit = float(np.min(
            fac * bc.f_bound(t)[binding] / (rho_max[binding] / slack) ** bc.alpha
        ))
    else:
        c1_fit = math.inf
    return CheckReport(bool(margins[i] >= 1.0), float(margins[i]), float(t[i]), c1_fit=c1_fit)


def check_f_bound(log: DiagnosticsLog, bc: BoundConstants) -> CheckReport:
    """|f(t)|_inf <= F_M(t) at every logged time (slack plus tiny floor)."""
    t = log.column("t")
    if t.size == 0:
        return CheckReport(False, math.nan, math.nan, "empty log")
    bound = bc.f_bound(t) * _slack(log.dx) + F_BOUND_ATOL
    gaps = bound - log.column("f_inf")
    i = int(np.argmin(gaps))
    return CheckReport(bool(gaps[i] >= 0.0), float(gaps[i]), float(t[i]))


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


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

and a pairwise grid check of the gauge. The gauge is checked with
data-driven parameters: for a given (delta, gamma), ``moc_min_b`` gives
the least B that passes. The paper's recipe, which selects
(delta, gamma, B) from the envelope values at a horizon, gives a B that
is double-exponential in the data and overflows to +inf on every
problem tried, so it is kept only as a reference in the tests. Both read
the per-lag table D[l] = max_i |rho_i - rho_{i+l}|. As w_B(xi) = W(B xi)
with W increasing, the check passes exactly for the b above the infimum
max(1, max_l W^-1(D[l]) / xi_l) of the passing B, so one table gives the
recorder its verdict and its B. That table is built for B alone: bounds
on blocks of (lag, sample) pairs rule out most of it, D is computed only
where they leave it open, and B is that of the full table, bit for bit,
in O(n) time and memory. ``moc_check``, which also names the binding
pair, reads the plain table instead: one O(n) pass per lag, O(n^2), about
2 ms at n = 1024 against 0.27 ms for a modulus row, whose cost is its
numpy calls more than its arithmetic (``_lag_table``, ``_tiles``).
The recorder logs these quantities along a run, one row per step, among
them the running trapezoidal integral of |d rho/dx|_inf^2 whose
finiteness is the regularity criterion. ``COLUMNS`` names the columns of
a row in order; it is also the header of the CSV log, whose columns a
log keeps as typed float64 arrays, 8 bytes a value (``column`` returns a
numpy copy). Apart from the lag table of a modulus row, a recorder row
is O(n) and takes no transform (see ``DiagnosticsRecorder``).

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
from array import array
from dataclasses import dataclass

import numpy as np

from .kernels import kernel_min
from .model import SimState
from .model import recover_velocity  # noqa: F401  (perfbench traces diagnostics.recover_velocity)
from .spectral import Grid, GridMismatchError, mean

ENVELOPE_SLACK = 10.0  # slack factor 1 + ENVELOPE_SLACK * dx on grid extrema
F_BOUND_ATOL = 1e-12  # absolute floor so roundoff-level f fields compare sanely
MIN_B_CAP = 1e290  # moc_min_b reports +inf above this b
_LOG_SLACK = 2.0**-30  # relative rounding slack of the lag table's pruning

# a recorder row, in order: the DiagnosticsLog's float64 columns and the CSV header
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
    rho0_min: float
    rho0_max: float
    eps_star: float
    eps: float
    a_m: float
    c_m: float
    c1: float
    general: bool

    @property
    def kappa(self) -> float:
        """Combined forcing coefficient |k| + |K_reg''|_inf."""
        return abs(self.k) + self.kxx_sup

    # the envelopes take a float or an array t and return the same kind

    def rho_min_envelope(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.c_m * np.exp(-self.a_m * t)

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
        """The time-independent branches of the upper bound on max rho:
        max(rho0_max, 3 rho_bar) and, with psi_l != 0,
        (2 |psi_l|_inf rho_bar / C_1)^(1/(1+alpha))."""
        floor = max(self.rho0_max, 3.0 * self.rho_bar)
        if self.psi_l_sup > 0:
            lip = 2.0 * self.psi_l_sup * self.rho_bar / self.c1
            floor = max(floor, lip ** (1.0 / (1.0 + self.alpha)))
        return floor

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


def bound_constants(state: SimState, eps_fraction: float = 0.5, c1: float = 1.0) -> BoundConstants:
    """Evaluate every envelope constant from the initial state.

    ``eps_fraction`` places eps inside (0, eps_*); ``c1`` is the
    user-supplied nonlinear-maximum-principle constant (no numeric value
    is derivable here, so it defaults to 1 and the upper-envelope check
    additionally reports the value fitted from the run). psi_m is
    ``kernel_min``; where it is a lower bound and not exact, every constant
    is more conservative.
    """
    if not 0.0 < eps_fraction < 1.0:
        raise ValueError("eps_fraction must be in (0, 1)")
    if not (math.isfinite(c1) and c1 > 0.0):
        raise ValueError(f"c1 must be finite and positive, got {c1}")
    if not state.kernel.enabled:
        raise ValueError("bound constants require an active alignment kernel")
    rho0_min, rho0_max = float(state.rho.min()), float(state.rho.max())
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
    f0_inf = float(np.abs(f0, out=f0).max())
    eps_star = 0.5 * (
        math.sqrt(1.0 + 4.0 * psi_m / (math.e * (psi_m + psi_l_sup + f0_inf))) - 1.0
    )
    eps = eps_fraction * eps_star
    kappa = abs(state.potential.k) + kxx_sup
    a_m = kappa / psi_m * (1.0 + eps)
    c_m = min(rho0_min, eps * math.e * state.rho_bar)
    return BoundConstants(
        alpha=alpha,
        rho_bar=state.rho_bar,
        psi_m=psi_m,
        psi_l_sup=psi_l_sup,
        kxx_sup=kxx_sup,
        k=state.potential.k,
        f0_inf=f0_inf,
        rho0_min=rho0_min,
        rho0_max=rho0_max,
        eps_star=eps_star,
        eps=eps,
        a_m=a_m,
        c_m=c_m,
        c1=c1,
        general=(psi_l_sup > 0.0) or (kxx_sup > 0.0),
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
        out[mask] = _power_branch(xi[mask], p)
        out[~mask] = _log_branch(xi[~mask], p)
    return out if out.ndim else float(out)


def _power_branch(xi: np.ndarray, p: ModulusParams) -> np.ndarray:
    bxi = p.b * xi
    return bxi - bxi ** (1.0 + p.alpha / 2.0)


def _log_branch(xi: np.ndarray, p: ModulusParams) -> np.ndarray:
    # evaluated additively so huge b never overflows the argument, in place
    # to keep one array
    out = np.log(xi)
    out += math.log(p.b)
    out -= math.log(p.delta)
    out *= p.gamma
    out += p.delta - p.delta ** (1.0 + p.alpha / 2.0)
    return out


@dataclass(frozen=True)
class MocReport:
    passed: bool
    margin: float  # min over pairs of w_B(d) - |rho(x) - rho(y)|
    distance: float
    pair: tuple[int, int]


def _plain_table(rho: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every lag l = 1 .. n/2, D[l] = max_i |rho_i - rho_{i+l}| and its first
    argmax i, bit for bit those of ``abs(rho - roll(rho, -l))``: one pass
    over all n samples per lag, O(n^2)."""
    lags = np.arange(1, n // 2 + 1)
    return (lags, *_passes(rho, lags, np.empty(n)))


def _lag_table(rho: np.ndarray, n: int, p: ModulusParams) -> tuple[np.ndarray, np.ndarray]:
    """The lags l that may bind the smallest passing B and D[l] = max_i
    |rho_i - rho_{i+l}|, bit for bit those of ``abs(rho - roll(rho, -l))``;
    the B read from them (``_top``) is that of all n/2. It reads delta,
    gamma and alpha, not b.

    Branch and bound over blocks of s samples, s^2 <= n < 4 s^2, and of s
    lags. Seed passes at lag 1, n/2 and in the lag block of the largest
    bound give the D each lag block needs to bind (``_needs``); the block
    pairs whose bound exceeds it are refined by ``_tiles``, or by
    ``_passes`` where most of a lag block's pairs do, and the refined lags
    whose D exceeds it are kept: all blocks that may hold their max were
    refined. A field of infinite spread keeps every lag of the plain table,
    so a NaN gives a NaN B.

    Its numpy calls on verify-1024 (n = 1024, 6-11 refined pairs in 2-4
    lag blocks), about 180: 12 for the (nl, nb) bounds, computed once and
    read by every lag block; 4 per seed pass; about 20 for the needs; 2 per
    refined lag block to pick its pairs; 8 at the end to keep the lags;
    the rest in the tiles (see there).
    """
    half = n // 2
    s = 1 << (n.bit_length() - 1) // 2
    nb, nl = -(-n // s), -(-half // s)  # the last blocks may be ragged
    bound = _block_bounds(rho, s, nb, nl)
    if bound is None:
        return _plain_table(rho, n)[:2]
    reach = bound.max(axis=1)
    seeds = np.array((1, min(int(reach.argmax()) * s + 1 + s // 2, half), half))
    buf = np.empty(n)
    seed_d = _passes(rho, seeds, buf)[0]
    need = _needs(seeds, seed_d, n, s, p)
    lams = (reach > need).nonzero()[0]
    todo = [(lam, (bound[lam] > need[lam]).nonzero()[0]) for lam in lams.tolist()]
    del bound  # freed before the tiles
    parts = []
    for lam, blocks in todo:
        lags = np.arange(lam * s + 1, min(lam * s + s, half) + 1)
        parts.append((lags, _passes(rho, lags, buf)[0] if 2 * blocks.size > nb
                      else _tiles(rho, s, blocks, lags, buf)))
    if parts:
        lags, diffs = (np.concatenate(c) for c in zip(*parts))
        # each lag's need; only the last lag block, which comes last, may be ragged
        keep = diffs > need[lams].repeat(s)[:lags.size]
        lags, diffs = lags[keep], diffs[keep]
        if lags.size:
            return lags, diffs
    # a constant field: every lag gives B = 1
    return seeds[:1], seed_d[:1]


def _needs(seeds: np.ndarray, seed_d: np.ndarray, n: int, s: int,
           p: ModulusParams) -> np.ndarray:
    """The D a lag of each lag block must exceed to tie the seeds' largest
    log W^-1(D) - log xi, top: W(xi e^top) at the block's first lag, as W
    increases, less _LOG_SLACK for rounding and Newton's root, monotone in
    D to its last ulps."""
    log_xi = np.log(np.concatenate((seeds, np.arange(1, n // 2 + 1, s))) / n)
    top = _log_inverse(seed_d, p.delta, p.gamma, p.alpha, below=True)
    top -= log_xi[:3]
    top = float(top.max())
    top -= _LOG_SLACK * (1.0 + abs(top))
    log_d = math.log(p.delta)
    log_x = log_xi[3:] + top
    w = np.exp(np.minimum(log_x, log_d))  # W: its power branch, then its log branch's rise
    w += p.gamma * np.maximum(log_x - log_d, 0.0) - w ** (1.0 + p.alpha / 2.0)
    return w


def _passes(rho: np.ndarray, lags: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D at ``lags`` and its first argmax, one pass over all n samples each."""
    diffs, at = np.empty(lags.size), np.empty(lags.size, dtype=np.intp)
    for k, lag in enumerate(lags.tolist()):
        np.subtract(rho[:-lag], rho[lag:], out=buf[:-lag])  # rho minus its roll
        np.subtract(rho[-lag:], rho[:lag], out=buf[-lag:])
        i = at[k] = np.abs(buf, out=buf).argmax()
        diffs[k] = buf[i]
    return diffs, at


def _tiles(rho: np.ndarray, s: int, blocks: np.ndarray, lags: np.ndarray,
           buf: np.ndarray) -> np.ndarray:
    """D at ``lags``, a run, over the sample ``blocks``.

    A tile per block, made in ``buf`` in parts of h lags next to h copies
    of the block's samples, so that every operand is contiguous: numpy
    would buffer a broadcast or overlapping operand, a copy of the whole
    part. A part takes 4 calls: the copy of its partners from a Hankel view
    of rho, subtract, abs and its rows' max into the block's row of
    ``most``; a block takes 1 more for its samples (3 where its partners
    wrap past sample n - 1), and the run 1 for each lag's max over the
    blocks. ``most`` holds a float per block and lag, as many bytes as an
    argmax would.
    """
    n, size, lag0 = rho.size, lags.size, int(lags[0])
    h = min(size, n // (2 * s))  # a part and its samples fill at most buf
    # row r is rho[r:r + s]: the partners of the samples from r - l on at lag l
    windows = np.ndarray((n - s + 1, s), buffer=rho, strides=2 * rho.strides)
    tile, samples = buf[:h * s].reshape(h, s), buf[h * s:2 * h * s].reshape(h, s)
    most = np.empty((blocks.size, size))
    for j, i0 in enumerate((blocks * s).tolist()):
        rows = min(s, n - i0)
        if rows < s:  # the last block of a ragged n
            tile = buf[:h * rows].reshape(h, rows)
            samples = buf[h * rows:2 * h * rows].reshape(h, rows)
        start = (i0 + lag0) % n
        if start + size + s - 1 <= n:
            hankel = windows[start:start + size, :rows]
        else:
            seg = rho.take(np.arange(start, start + size + rows - 1), mode="wrap")
            hankel = np.ndarray((size, rows), buffer=seg, strides=2 * seg.strides)
        samples[...] = rho[i0:i0 + rows]
        for c in range(0, size, h):
            part = tile[:size - c]
            part[...] = hankel[c:c + h]
            np.abs(np.subtract(samples[:len(part)], part, part), part)
            np.maximum.reduce(part, axis=1, out=most[j, c:c + len(part)])
    return np.maximum.reduce(most)


def _block_bounds(rho: np.ndarray, s: int, nb: int, nl: int) -> np.ndarray | None:
    """Bounds on |rho_i - rho_{i+l}| over sample block b and lag block lam,
    their (nl, nb) array, or None when the spread max - min of rho is not
    finite. Row e of ``ext`` holds rho_{(e s + t) mod n}, t < s: row b
    covers block b, and the partners i + l lie in rows b + lam and
    b + lam + 1. Floating-point subtraction is monotone, so the bound needs
    no slack."""
    ext = np.concatenate((rho, rho[:(nb + nl) * s - rho.size])).reshape(nb + nl, s)
    top, bot = ext.max(axis=1), ext.min(axis=1)
    del ext
    if not math.isfinite(float(top.max() - bot.min())):
        return None
    hankel = dict(shape=(nl, nb), strides=2 * top.strides)  # [lam, b] reads row b + lam
    hi = np.ndarray(buffer=np.maximum(top[1:], top[:-1]), **hankel)
    lo = np.ndarray(buffer=np.minimum(bot[1:], bot[:-1]), **hankel)
    # numpy would buffer each broadcast or Hankel operand, a copy of the whole
    # array, so the Hankel ones are copied first and one term is made at a time
    bound = lo.copy()
    np.subtract(top[:nb], bound, out=bound)
    rise = hi.copy()
    np.subtract(rise, bot[:nb], out=rise)
    return np.maximum(bound, rise, out=bound)


def _log_inverse(diffs: np.ndarray, delta: float, gamma: float, alpha: float,
                 below: bool = False) -> np.ndarray:
    """log W^-1(D) for each D in ``diffs``, where w_b(xi) = W(b xi), or with
    ``below`` a bound on it from below, in a new array.

    Closed-form on the log branch, NaN included, and nothing more when no D
    lies below the branch joint. On the power branch the root s of
    s = D + s^p lies above D, and the bound is one fixed-point step from D.
    The value takes Newton on the concave s - s^p - D from s = D, whose
    iterates rise to the root (np.maximum keeps rounding from lowering one),
    so the loop ends once none rises. An entry that stops rising never
    rises again, so each result depends on its own D alone.
    """
    p = 1.0 + alpha / 2.0
    head = delta - delta ** p
    log_s = diffs - head
    log_s /= gamma
    log_s += math.log(delta)
    low = diffs < head
    if not low.any():
        return log_s
    s = d = diffs[low]
    while not below:
        nxt = s - (s - s ** p - d) / (1.0 - p * s ** (p - 1.0))
        if not np.any(nxt > s):
            break
        s = np.maximum(s, nxt)
    with np.errstate(divide="ignore"):  # D = 0 gives s = 0, which binds no b
        log_s[low] = np.log(d + d ** p if below else s)
    return log_s


def _top(table, p: ModulusParams, n: int) -> float:
    """max_l log W^-1(D[l]) - log(l/n) over a lag table: the log of the
    smallest passing B before ``_min_b`` clamps it, NaN for a NaN field.
    The check passes exactly for the b with log b above it."""
    lags, diffs = table
    top = _log_inverse(diffs, p.delta, p.gamma, p.alpha)
    top -= np.log(lags / n)
    return float(top.max())


def _min_b(top: float) -> float:
    """The smallest passing B of a ``_top``: at least 1, and +inf above
    MIN_B_CAP or for a NaN."""
    if not top <= math.log(MIN_B_CAP):  # NaN too
        return math.inf
    return math.exp(max(top, 0.0))


def _field(rho: np.ndarray, grid: Grid) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n,):
        raise GridMismatchError(f"expected shape ({grid.n},), got {rho.shape}")
    return np.ascontiguousarray(rho)  # the tiles view its buffer


def moc_check(rho: np.ndarray, p: ModulusParams, grid: Grid) -> MocReport:
    """Check |rho(x) - rho(y)| < w_B(d(x, y)) over all grid pairs.

    Returns the pair with the smallest gap, the shortest distance among
    ties, read from the plain lag table: one O(n) pass per lag, O(n^2) in
    all, as no caller needs it fast. The recorder reads its verdict from
    the pruned table of ``moc_min_b`` instead, since the gauge is monotone
    in b. At b = inf no pair can bind: a finite field passes with margin
    +inf, and a non-finite one fails with margin NaN, as in the recorder.
    A rho not of shape (n,) raises GridMismatchError.
    """
    rho = _field(rho, grid)
    if math.isinf(p.b):
        ok = bool(np.isfinite(rho).all())
        return MocReport(passed=ok, margin=math.inf if ok else math.nan, distance=0.5, pair=(0, 0))
    n = grid.n
    lags, diffs, at = _plain_table(rho, n)
    dists = lags / n
    gaps = omega_b(dists, p)
    gaps -= diffs
    k = int(gaps.argmin())
    i = int(at[k])
    return MocReport(passed=bool(gaps[k] > 0.0), margin=float(gaps[k]),
                     distance=float(dists[k]), pair=(i, (i + int(lags[k])) % n))


def moc_min_b(rho: np.ndarray, delta: float, gamma: float, alpha: float, grid: Grid) -> float:
    """Infimum of the b >= 1 whose gauge passes the check.

    Every b above it passes and, unless it is 1, every b below fails. As
    w_b(xi) = W(b xi), it is max(1, max_l W^-1(D[l]) / xi_l): closed-form on
    the log branch, by Newton iteration on the power branch. +inf when it
    exceeds MIN_B_CAP or the field is not finite. Cost O(n) for the block
    bounds of the lag table plus O(n) per block pair or lag they leave open
    (see ``_lag_table``). A rho not of shape (n,) raises GridMismatchError.
    """
    rho = _field(rho, grid)
    p = ModulusParams(delta, gamma, math.inf, alpha)  # raises on bad parameters
    return _min_b(_top(_lag_table(rho, grid.n, p), p, grid.n))


# ---------------------------------------------------------------------------
# run log and recorder


@dataclass
class DiagnosticsLog:
    """Column-oriented time series of the monitored quantities: one float64
    ``array("d")`` per name in COLUMNS. ``column`` copies, as a numpy view
    would make the next append raise BufferError."""

    n: int
    alpha: float
    k: float
    config_hash: str = ""

    def __post_init__(self) -> None:
        for name in COLUMNS:
            setattr(self, name, array("d"))

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    def column(self, name: str) -> np.ndarray:
        return np.array(getattr(self, name), dtype=float)

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

    Step 0, a run's first monitor call, starts a new log, so each run
    through one recorder has its own. A row is recorded at every step, with
    the columns of ``COLUMNS``. Its |d rho/dx|_inf is the state's
    ``drho_inf``, which ``reads`` names, so that the run loop transforms it
    with each first stage's velocity (see ``integrator``). The envelope
    margins are NaN without ``bounds``. The modulus verdict, log b above
    the log of B before it is clamped to 1 (``moc_check``'s, as the gauge
    is monotone in b), and B, the infimum of the passing b (``moc_min_b``),
    come from one lag table, every ``moc_every`` steps, a positive integer
    and not a bool (else ValueError); NaN in between and without ``moc``.
    A row recovers no velocity: ``recover_velocity`` pins the momentum to
    m0, so a momentum column would only echo it. A plain row makes about a
    dozen numpy calls, its reductions through ndarray methods and
    ``spectral.mean``, the bits of ``np.min``, ``np.max`` and ``np.mean`` in
    half their time; a modulus row adds the table's and about 10 more.
    """

    reads = frozenset({"drho_inf"})

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
        if step == 0 or self.log is None:
            self.log = DiagnosticsLog(
                n=state.grid.n, alpha=state.kernel.alpha, k=state.potential.k,
                config_hash=self._hash,
            )
        log = self.log
        grid = state.grid
        t = state.t
        rho = state.rho
        rho_min = float(rho.min())
        rho_max = float(rho.max())
        drho = state.drho_inf
        f = state.g / rho
        f_inf = float(np.abs(f, out=f).max())
        del f  # freed before the lag table
        bkm = (log.bkm[-1] + 0.5 * (log.drho_inf[-1] ** 2 + drho**2) * (t - log.t[-1])
               if log.t else 0.0)
        if self.bounds is not None:
            low = float(self.bounds.lower_margin(t, rho_min, grid.dx))
            up = float(self.bounds.upper_margin(t, rho_max, grid.dx))
        else:
            low = up = math.nan
        if self.moc is not None and step % self.moc_every == 0:
            # the gauge is monotone in b: b passes iff log b is above the top.
            # At b = inf, where a top overflowed to +inf says nothing, the
            # verdict is moc_check's: pass iff rho is finite
            p = self.moc
            top = _top(_lag_table(rho, grid.n, p), p, grid.n)
            ok = np.isfinite(rho).all() if math.isinf(p.b) else math.log(p.b) > top
            moc_pass = 1.0 if ok else 0.0
            min_b = _min_b(top)
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

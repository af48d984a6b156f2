"""What a run with the potential off conserves and contracts, for any kernel:
the Casimirs int rho phi(g/rho) dx, and the velocity diameter max u - min u."""

import math
from functools import lru_cache

import numpy as np
import pytest

from epasim.integrator import RunStatus, StepControl, run
from epasim.kernels import PotentialSpec, kernel_min
from epasim.model import make_initial
from epasim.spectral import Grid
from conftest import KERNEL_POTENTIAL_PAIRS
from oracles import casimir, velocity_diameter

PAIRS = range(len(KERNEL_POTENTIAL_PAIRS))
# t_end of each pair's kernel: the alpha = 1.5 kernel's stiff step, about
# dx^1.5, takes 2044 steps to t = 0.02 at n = 1024, so it runs a shorter time
T_END = (0.5, 0.5, 0.5, 0.02)
CASIMIR_BOUND = 1e-7  # relative drift at n = 1024; measured 2.5e-8 at most


@lru_cache(maxsize=None)
def invariant_rows(pair: int, n: int) -> tuple[int, np.ndarray]:
    """Steps and rows (t, int g^2/rho, int g^3/rho^2, V) of a run of the
    pair's kernel with the potential off, on rho0 = 1 + 0.3 cos 2 pi x and
    u0 = A sin 2 pi x with 2 pi A = 0.5: min g0 is 0.2 for the c = 0
    kernel, so every run stays regular."""
    kernel = KERNEL_POTENTIAL_PAIRS[pair][0]
    st = make_initial("cosine", Grid(n), kernel, PotentialSpec(), rho_amp=0.3,
                      u_amp=0.5 / (2 * math.pi))
    rows = []
    out = run(st, StepControl(t_end=T_END[pair]),
              (lambda k, s: rows.append((s.t, casimir(s, 2), casimir(s, 3),
                                         velocity_diameter(s))),))
    assert out.status is RunStatus.COMPLETED
    return out.steps, np.array(rows)


@pytest.mark.parametrize("pair", PAIRS)
def test_casimirs_of_f_are_conserved(pair):
    # the drift max_t |I(t) - I(0)| / |I(0)| of f^2 and f^3 is spatial
    # truncation: it falls from n = 256 to 1024 (about 40-60 fold), down to
    # the rounding that the steps accumulate, about eps a step. The
    # alpha = 1.5 kernel is smooth enough to sit there at both n, and its
    # drift grows with its step count: 2.8e-14 to 2.8e-13 for f^2
    drift = {}
    for n in (256, 1024):
        steps, rows = invariant_rows(pair, n)
        drift[n] = np.max(np.abs(rows[:, 1:3] - rows[0, 1:3]), axis=0) / np.abs(rows[0, 1:3])
    assert np.all(drift[1024] <= CASIMIR_BOUND)
    rounding = 4 * steps * np.finfo(float).eps
    assert np.all((drift[1024] < drift[256]) | (drift[1024] <= rounding))


@pytest.mark.parametrize("pair", PAIRS)
def test_velocity_diameter_contracts(pair):
    # V(t) <= V(0) exp(-psi_m rho_bar t), rho_bar = 1, on every row and with
    # no slack: n is a multiple of 4, so the grid holds the extrema of u0,
    # and later grid extrema lie inside the continuum ones
    kernel = KERNEL_POTENTIAL_PAIRS[pair][0]
    _, rows = invariant_rows(pair, 1024)
    t, v = rows[:, 0], rows[:, 3]
    assert t[-1] == T_END[pair]
    assert np.all(v <= v[0] * np.exp(-kernel_min(kernel) * t))


def test_velocity_diameter_decays_exactly_for_a_constant_psi_l():
    # c = 0 and psi_l = a: along each characteristic u - m0/rho_bar decays
    # as exp(-a rho_bar t), so V(t) = V(0) exp(-a rho_bar t). The grid's
    # extrema miss it by O(dx^2): measured 4.8e-5 at n = 256, 3.0e-6 at 1024
    pair = 2
    kernel = KERNEL_POTENTIAL_PAIRS[pair][0]
    assert kernel.c == 0.0 and kernel.psi_l.kind == "constant"
    err = {}
    for n in (256, 1024):
        _, rows = invariant_rows(pair, n)
        t, v = rows[:, 0], rows[:, 3]
        err[n] = float(np.max(np.abs(v / v[0] - np.exp(-kernel.psi_l.a * t))))
    assert err[1024] <= 1e-5 and err[256] >= 8 * err[1024]

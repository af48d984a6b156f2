"""Band modes of every kernel pair against the exact linear oracle.

A state rho = 1 + eps cos 2 pi m x, u = eps sin 2 pi m x with eps = 1e-7
follows the dynamics linearized about rho = 1, u = 0 (``oracles.linear_mode``)
up to O(eps^2) relative, as the quadratic terms feed mode m back only at
O(eps^3), and rounding of about 1e-16 / eps. Each run lasts T = min(0.5,
1 / max |lambda|) over the eigenvalues lambda of the mode's 2 x 2 matrix, so
that the mode moves by O(1), with every step of T / N set by dt_max below
the stability bounds; the error of mode m's coefficient, relative to its
initial size, row by row, then is SSP-RK3's time error.
"""

import math

import numpy as np
import pytest

from epasim.integrator import RunStatus, StepControl, run
from epasim.model import Problem, SimState
from epasim.spectral import Grid, mean
from conftest import KERNEL_POTENTIAL_PAIRS
from oracles import compute_g, linear_matrix, linear_mode, stable_dt, to_spectrum

EPS = 1e-7
N = 64
MODES = (1, 10, N // 3)  # the first, a middle and the top mode of the band
# error at 32 times the steps of the ratio runs: measured 4.0e-9 at most
# (pair 1, mode 21, 512 steps), against 1.4e-4 at 16 steps
TIGHT_FLOOR = 1e-8


def mode_state(pair, m):
    kernel, potential = KERNEL_POTENTIAL_PAIRS[pair]
    grid = Grid(N)
    rho = 1.0 + EPS * np.cos(2 * np.pi * m * grid.x)
    u = EPS * np.sin(2 * np.pi * m * grid.x)
    problem = Problem(grid, kernel, potential, mean(rho), mean(rho * u))
    return SimState(problem, np.stack((rho, compute_g(rho, u, kernel, grid))), 0.0)


def horizon_and_steps(pair, m):
    # T, and the fewest steps, at least 16 and a power of 2, whose dt is
    # below the state's stable step, so that dt_max sets every step
    st = mode_state(pair, m)
    kernel, potential = KERNEL_POTENTIAL_PAIRS[pair]
    lam = np.linalg.eigvals(linear_matrix(kernel, potential, 1.0, m))
    t_end = min(0.5, 1.0 / float(np.max(np.abs(lam))))
    bound = stable_dt(st, StepControl(t_end=t_end, dt_max=1.0))
    return t_end, max(16, 2 ** math.ceil(math.log2(t_end / bound)))


def mode_error(pair, m, steps):
    # the largest relative error of mode m's (rho_hat, g_hat) at the end
    st = mode_state(pair, m)
    kernel, potential = KERNEL_POTENTIAL_PAIRS[pair]
    t_end, _ = horizon_and_steps(pair, m)
    out = run(st, StepControl(t_end=t_end, dt_max=t_end / steps))
    assert out.status is RunStatus.COMPLETED and steps <= out.steps <= steps + 1
    initial = linear_mode(kernel, potential, 1.0, m, EPS / 2, -0.5j * EPS, 0.0)
    exact = linear_mode(kernel, potential, 1.0, m, EPS / 2, -0.5j * EPS, out.t_final)
    got = to_spectrum(out.state.rho, st.grid)[m], to_spectrum(out.state.g, st.grid)[m]
    return max(abs(got[i] - exact[i]) / abs(initial[i]) for i in range(2))


@pytest.mark.parametrize("m", MODES)
@pytest.mark.parametrize("pair", range(len(KERNEL_POTENTIAL_PAIRS)))
def test_mode_converges_to_the_linear_oracle_at_third_order(pair, m):
    # the error falls 8x per halving of dt: measured 7.42 to 8.26
    _, steps = horizon_and_steps(pair, m)
    coarse, fine = mode_error(pair, m, steps), mode_error(pair, m, 2 * steps)
    assert 6.0 <= coarse / fine <= 10.0


@pytest.mark.parametrize("m", MODES)
@pytest.mark.parametrize("pair", range(len(KERNEL_POTENTIAL_PAIRS)))
def test_mode_matches_the_linear_oracle_at_a_tight_dt(pair, m):
    _, steps = horizon_and_steps(pair, m)
    assert mode_error(pair, m, 32 * steps) <= TIGHT_FLOOR


# the sign of the largest growth rate at band modes 1 .. 21, one character
# a mode: the reference problem's attractive k = 1 makes every mode grow,
# and pair 2's gaussian K_reg outweighs its k = 0.5 at modes 2 and 3 alone
GROWTH_SIGNS = ("+" * 21, "-" * 21, "+--" + "+" * 18, "0" * 21)


@pytest.mark.parametrize("pair", range(len(KERNEL_POTENTIAL_PAIRS)))
def test_sign_of_the_growth_rate(pair):
    # the trace, -rho_bar V - g_bar, is negative for every pair, so the
    # largest real part has the sign of -det = -rho_bar S, S = -k + w^2 K_reg_hat:
    # an attractive k that K_reg does not outweigh makes one eigenvalue
    # positive, a repulsive one keeps both negative, and without a
    # potential g_hat is constant, an eigenvalue 0
    kernel, potential = KERNEL_POTENTIAL_PAIRS[pair]
    signs = ""
    for m in range(1, N // 3 + 1):
        a = linear_matrix(kernel, potential, 1.0, m)
        top = float(np.max(np.linalg.eigvals(a).real))
        assert np.trace(a) < 0
        assert np.sign(np.linalg.det(a)) == -np.sign(top) or abs(top) < 1e-12
        signs += "0" if abs(top) < 1e-12 else "+" if top > 0 else "-"
    assert signs == GROWTH_SIGNS[pair]


def test_the_reference_problem_grows_at_mode_1():
    # the uniform state of the reference problem is linearly unstable: the
    # run's mode 1, projected on the growing eigenvector, grows at the
    # oracle's rate, 0.0045, over t = 4, while the other decays by e^-11.6
    kernel, potential = KERNEL_POTENTIAL_PAIRS[0]
    lam, vecs = np.linalg.eig(linear_matrix(kernel, potential, 1.0, 1).T)
    grow = int(np.argmax(lam.real))
    assert 0.004 < lam[grow] < 0.005
    st = mode_state(0, 1)
    out = run(st, StepControl(t_end=4.0, dt_max=0.01))
    assert out.status is RunStatus.COMPLETED

    def projection(s):
        mode = to_spectrum(s.rho, s.grid)[1], to_spectrum(s.g, s.grid)[1]
        return vecs[:, grow] @ np.array(mode)

    rate = math.log(abs(projection(out.state) / projection(st))) / out.t_final
    assert rate == pytest.approx(lam[grow].real, rel=1e-5)

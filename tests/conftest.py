import numpy as np
import pytest

from epasim.kernels import KernelSpec, LipschitzKernel, PotentialSpec, RegularPotential
from epasim.spectral import Grid

TABLE_PSI_L = LipschitzKernel(kind="table", xs=(-0.5, -0.2, 0.1, 0.3), vs=(0.4, 1.0, 0.7, 0.2))
TABLE_KREG = RegularPotential(kind="table", xs=(-0.4, 0.0, 0.25), vs=(0.1, -0.05, 0.08))

# (kernel, potential) pairs that cover every branch of the fused dynamics
KERNEL_POTENTIAL_PAIRS = [
    # even psi_l, K_reg on, k != 0: the reference problem
    (KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=0.2)),
     PotentialSpec(k=1.0, kreg=RegularPotential(kind="cosine", amp=0.05))),
    # non-even table psi_l (complex psi_l_hat), K_reg off, repulsive k
    (KernelSpec(c=0.7, alpha=0.3, psi_l=TABLE_PSI_L), PotentialSpec(k=-0.6)),
    # no singular part, table psi_l and table K_reg (complex source multiplier)
    (KernelSpec(c=0.0, alpha=0.5, psi_l=TABLE_PSI_L), PotentialSpec(k=0.5, kreg=TABLE_KREG)),
    # singular part only, no potential
    (KernelSpec(c=1.0, alpha=1.5), PotentialSpec()),
]


def random_smooth_field(grid: Grid, rng: np.random.Generator, kmax: int = 8,
                        amp: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Band-limited random field with geometrically decaying mode amplitudes."""
    f = np.full(grid.n, offset)
    for k in range(1, kmax + 1):
        a, b = rng.normal(size=2) * amp * 0.5 ** k
        f += a * np.cos(2 * np.pi * k * grid.x) + b * np.sin(2 * np.pi * k * grid.x)
    return f


def random_positive_field(grid: Grid, rng: np.random.Generator, kmax: int = 8,
                          floor: float = 0.1) -> np.ndarray:
    """Random smooth field with min >= floor (rescaled if needed)."""
    f = random_smooth_field(grid, rng, kmax=kmax, amp=0.6, offset=1.0)
    lo = f.min()
    if lo < floor:
        f = floor + (f - lo) * (1.0 - floor) / (f.max() - lo + 1e-30)
    return f


@pytest.fixture
def grid64() -> Grid:
    return Grid(64)


@pytest.fixture
def grid128() -> Grid:
    return Grid(128)

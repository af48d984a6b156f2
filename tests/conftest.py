import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest

import epasim
from epasim.kernels import KernelSpec, LipschitzKernel, PotentialSpec, RegularPotential
from epasim.spectral import Grid

# (kernel, potential) pairs that cover every branch of the fused dynamics
KERNEL_POTENTIAL_PAIRS = [
    # even psi_l, K_reg on, k != 0: the reference problem
    (KernelSpec(c=1.0, alpha=0.5, psi_l=LipschitzKernel(kind="cosine", a=0.5, b=0.2)),
     PotentialSpec(k=1.0, kreg=RegularPotential(kind="cosine", amp=0.05))),
    # b < 0 cosine psi_l, K_reg off, repulsive k
    (KernelSpec(c=0.7, alpha=0.3, psi_l=LipschitzKernel(kind="cosine", a=1.0, b=-0.5)),
     PotentialSpec(k=-0.6)),
    # no singular part, constant psi_l and a gaussian K_reg
    (KernelSpec(c=0.0, alpha=0.5, psi_l=LipschitzKernel(kind="constant", a=0.7)),
     PotentialSpec(k=0.5, kreg=RegularPotential(kind="gaussian", amp=0.05, width=0.1))),
    # singular part only, no potential
    (KernelSpec(c=1.0, alpha=1.5), PotentialSpec()),
]


def memo_tables() -> list:
    """Every memo table of epasim: the functions with a ``cache_clear`` that
    its modules define, found in every module of the package, not listed."""
    mods = [importlib.import_module(f"epasim.{m.name}")
            for m in pkgutil.iter_modules(epasim.__path__)]
    return [obj for mod in mods for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == mod.__name__]


def clear_caches() -> None:
    """Empty epasim's memo tables, so that what follows builds them again."""
    for table in memo_tables():
        table.cache_clear()


def tracemalloc_peak(fn, n: int) -> float:
    """Peak of the bytes that fn allocates while it runs, in n-doubles (8 n bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * n)
    finally:
        tracemalloc.stop()


def tracemalloc_held(fn, n: int) -> tuple:
    """fn's result, and the bytes that fn leaves allocated, that result
    included, in n-doubles (8 n bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[0] - base) / (8 * n)
    finally:
        tracemalloc.stop()


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

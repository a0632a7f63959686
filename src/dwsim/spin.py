"""Angular-momentum operator matrices for arbitrary total spin F."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpinOperators:
    """Dimensionless F_x, F_y, F_z matrices in the m_F = -F..+F basis.

    The arrays are read-only; instances can be shared across workers.
    """

    f: float
    dim: int
    fx: np.ndarray
    fy: np.ndarray
    fz: np.ndarray

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim) - self.f


@functools.cache
def make_spin_operators(f: float) -> SpinOperators:
    """Build F_x, F_y, F_z from ladder operators.

    Uses <m+1|F+|m> = sqrt(F(F+1) - m(m+1)); F_z is diagonal with
    entries m_F in ascending order.  Built once per F: the result is
    read-only and shared by every caller.

    Raises
    ------
    ValueError
        If F is not a half-integer >= 1/2.
    """
    twofp1 = 2 * f + 1
    if f < 0.5 or abs(twofp1 - round(twofp1)) > 1e-12:
        raise ValueError(f"F must be a half-integer >= 1/2, got {f}")
    dim = int(round(twofp1))
    m = np.arange(dim) - f
    fz = np.diag(m)
    ladder = np.sqrt(f * (f + 1) - m[:-1] * (m[:-1] + 1))
    fplus = np.zeros((dim, dim))
    fplus[np.arange(1, dim), np.arange(dim - 1)] = ladder
    fx = (fplus + fplus.T) / 2.0
    fy = (fplus - fplus.T) / 2.0j
    for arr in (fx, fy, fz):
        arr.setflags(write=False)
    return SpinOperators(f=f, dim=dim, fx=fx, fy=fy, fz=fz)

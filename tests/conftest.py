import collections

import numpy as np
import pytest

from dwsim import LatticeConfig, wannier_doublet

# Canonical operating point with a light but certified numerical basis;
# solve_bands' certification (the edge residual of the 12-plane-wave pairs,
# below 1e-6 E_R) and the acceptance oracle test both confirm 12 plane waves
# per side are converged for U_1 <= 120 E_R.
CANONICAL_KW = dict(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, bz_mg=0.0)


@pytest.fixture(scope="session")
def cfg():
    return LatticeConfig(**CANONICAL_KW, n_planewaves=12, n_q=9, z_points=256)


@pytest.fixture(scope="session")
def doublet(cfg):
    return wannier_doublet(cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def eigensolves(monkeypatch) -> collections.Counter:
    """(solver, array shape, dtype kind) -> calls of ``np.linalg.eigh`` and
    ``eigvalsh`` from the test's start until ``monkeypatch.undo()``."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _solver=solver, **kwargs):
            calls[_name, np.shape(a), np.asarray(a).dtype.kind] += 1
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls

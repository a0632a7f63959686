import numpy as np
import pytest

from dwsim import LatticeConfig, cesium_f4, fit_damped_sinusoid, propagate_static, wannier_doublet
from dwsim import ensemble
from dwsim.ensemble import EnsembleSpec, ensemble_magnetization, sample_intensity_factor


@pytest.fixture(scope="module")
def tgrid():
    return np.arange(0.0, 1200.1, 5.0)


GRID = dict(t_max_us=1200.0, dt_out_us=5.0)  # the times of tgrid
SHORT_GRID = dict(t_max_us=95.0, dt_out_us=5.0)  # tgrid[:20]


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(spread=0.6)
    with pytest.raises(ValueError):
        EnsembleSpec(n_samples=0)
    with pytest.raises(ValueError):
        EnsembleSpec(distribution="lognormal")


def factors(spec):
    return np.array([sample_intensity_factor(spec, i) for i in range(spec.n_samples)])


def test_sampling_deterministic_and_truncated(cfg):
    spec = EnsembleSpec(spread=0.05, n_samples=64, seed=99)
    a = factors(spec)
    b = factors(spec)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a - 1.0) <= 0.05 * 3.0 + 1e-12)
    uniform = EnsembleSpec(spread=0.05, n_samples=64, seed=99, distribution="uniform")
    u = factors(uniform)
    assert np.all(np.abs(u - 1.0) <= 0.05 * np.sqrt(3.0) + 1e-12)
    assert not np.array_equal(a, u)


@pytest.mark.parametrize("g_f", [0.25, -0.25])
@pytest.mark.parametrize("bz_mg", [0.0, 10.0])
def test_zero_spread_equals_single_run(cfg, tgrid, bz_mg, g_f):
    # the closed-form samples must follow the full propagation's sign
    # conventions with and without a bias field, for either sign of g_F
    cfg = cfg.replace(bz_mg=bz_mg, species=cesium_f4(g_f=g_f))
    doublet = wannier_doublet(cfg)
    spec = EnsembleSpec(spread=0.0, n_samples=3, seed=1, **GRID)
    result = ensemble_magnetization(cfg, spec)
    single = propagate_static(cfg, doublet.coef_l, tgrid, doublet=doublet)
    np.testing.assert_allclose(result.mean_fz, single.fz, atol=1e-10)
    assert result.n_skipped == 0
    np.testing.assert_allclose(result.sample_u1_er, cfg.u1_er, atol=1e-12)


def test_parallel_serial_identical(cfg):
    spec = EnsembleSpec(spread=0.05, n_samples=8, seed=5, **GRID)
    serial = ensemble_magnetization(cfg, spec, jobs=1)
    parallel = ensemble_magnetization(cfg, spec, jobs=4)
    np.testing.assert_array_equal(serial.mean_fz, parallel.mean_fz)
    np.testing.assert_array_equal(serial.sample_u1_er, parallel.sample_u1_er)


def test_frequency_consistency(cfg):
    spec = EnsembleSpec(spread=0.0, n_samples=1, seed=2, **GRID)
    result = ensemble_magnetization(cfg, spec)
    fit = fit_damped_sinusoid(result.t_us, result.mean_fz)
    eps_hz = wannier_doublet(cfg).epsilon_hz
    assert abs(fit.frequency_hz - eps_hz) / eps_hz < 0.01


def test_all_samples_failing_raises():
    # theta = 0 has no double well at all, so every sample's localized
    # state construction fails
    flat = LatticeConfig(u1_er=84.0, theta_deg=0.0, bx_mg=85.0, n_planewaves=10)
    spec = EnsembleSpec(spread=0.01, n_samples=5, seed=3, **SHORT_GRID)
    with pytest.raises(RuntimeError):
        ensemble_magnetization(flat, spec)


def test_programming_error_in_a_sample_propagates(cfg, monkeypatch):
    # only numerical failures count as skipped samples; a bug in one
    # sample out of ten (within the 10 % skip budget) must still surface
    single_run = ensemble._single_run

    def broken_once(cfg, spec, index, t_us):
        if index == 3:
            raise TypeError("bug in sample code")
        return single_run(cfg, spec, index, t_us)

    monkeypatch.setattr(ensemble, "_single_run", broken_once)
    spec = EnsembleSpec(spread=0.05, n_samples=10, seed=4, **SHORT_GRID)
    with pytest.raises(TypeError):
        ensemble_magnetization(cfg, spec)

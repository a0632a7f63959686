import numpy as np
import pytest

from dwsim import fit_damped_sinusoid


def synthetic(t, amp=4.0, nu_per_us=0.008, tau_us=300.0, phase=0.3, offset=0.0):
    return amp * np.exp(-t / tau_us) * np.cos(2 * np.pi * nu_per_us * t + phase) + offset


@pytest.fixture(scope="module")
def grid():
    return np.arange(0.0, 1200.0, 2.0)


def test_noiseless_recovery(grid):
    fit = fit_damped_sinusoid(grid, synthetic(grid))
    assert fit.amplitude == pytest.approx(4.0, rel=1e-3)
    assert fit.frequency_hz == pytest.approx(8000.0, rel=1e-3)
    assert fit.tau_us == pytest.approx(300.0, rel=1e-3)
    assert fit.phase_rad == pytest.approx(0.3, abs=1e-3)
    assert fit.offset == pytest.approx(0.0, abs=1e-3 * 4.0)


def test_undamped_rate_indistinguishable_from_zero(grid):
    y = 2.0 * np.cos(2 * np.pi * 0.008 * grid + 0.1)
    fit = fit_damped_sinusoid(grid, y)
    # with exactly noiseless data the estimate collapses to the machine
    # floor, which counts as zero; the 2-sigma criterion covers noisy data
    assert abs(fit.decay_rate_per_us) < max(2.0 * fit.stderr["decay_rate_per_us"], 1e-12)
    assert fit.tau_us > 0


def test_scaling_property(grid):
    y = synthetic(grid, offset=0.7) + np.random.default_rng(11).normal(0.0, 0.1, len(grid))
    a = fit_damped_sinusoid(grid, y)
    b = fit_damped_sinusoid(grid, 2.0 * y)
    assert b.amplitude == pytest.approx(2.0 * a.amplitude, rel=1e-8)
    assert b.offset == pytest.approx(2.0 * a.offset, rel=1e-8)
    assert b.frequency_hz == pytest.approx(a.frequency_hz, rel=1e-8)
    assert b.decay_rate_per_us == pytest.approx(a.decay_rate_per_us, rel=1e-8)
    assert b.phase_rad == pytest.approx(a.phase_rad, rel=1e-8)


def test_degenerate_data_rejected(grid):
    with pytest.raises(ValueError):
        fit_damped_sinusoid(grid, np.full_like(grid, 1.5))


def test_undersampled_rejected():
    t = np.arange(0.0, 1200.0, 100.0)  # 2.5 samples per 4 kHz period; the fit needs 4
    with pytest.raises(ValueError, match="undersampled"):
        fit_damped_sinusoid(t, synthetic(t, nu_per_us=0.004))


def test_short_record_warns(grid, caplog):
    t = np.arange(0.0, 200.0, 2.0)  # ~1.6 periods
    with caplog.at_level("WARNING", logger="dwsim"):
        fit_damped_sinusoid(t, synthetic(t))
    assert any("periods" in rec.message for rec in caplog.records)


def test_stderr_sane(grid):
    rng = np.random.default_rng(5)
    y = synthetic(grid) + rng.normal(0.0, 0.2, len(grid))
    fit = fit_damped_sinusoid(grid, y)
    # true values within ~4 sigma of the reported errors
    assert abs(fit.frequency_hz - 8000.0) < 4.0 * fit.stderr["frequency_hz"]
    assert abs(fit.amplitude - 4.0) < 4.0 * fit.stderr["amplitude"]
    assert np.isfinite(fit.residual_rms)

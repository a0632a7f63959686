import re

import numpy as np
import pytest

from dwsim import ConvergenceError, NumericalError, fit_damped_sinusoid, fitting
from dwsim.cli import main


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


def test_a_growing_envelope_fits(grid):
    # only an amplitude within its standard error is refused, not the sign of
    # the rate: a growing envelope fits, with tau = +inf
    fit = fit_damped_sinusoid(grid, synthetic(grid, tau_us=-1000.0))
    assert fit.decay_rate_per_us == pytest.approx(-1e-3, rel=1e-6)
    assert fit.amplitude == pytest.approx(4.0, rel=1e-6) and fit.tau_us == np.inf


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
    with pytest.raises(NumericalError):
        fit_damped_sinusoid(grid, np.full_like(grid, 1.5))


def test_undersampled_rejected():
    t = np.arange(0.0, 1200.0, 100.0)  # 2.5 samples per 4 kHz period; the fit needs 4
    with pytest.raises(NumericalError, match="undersampled"):
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


def _lm_oracle(t, y, start):
    """The five-parameter least-squares optimum by MINPACK's Levenberg-Marquardt
    (scipy), from start, on the analytic Jacobian."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares

    def residual(p):
        a, nu, lam, phi, c = p
        return a * np.exp(-lam * t) * np.cos(2 * np.pi * nu * t + phi) + c - y

    return least_squares(
        residual, start, jac=lambda p: fitting._jacobian(p, t), method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15
    )


def _slow_noisy():
    # tau = 3200 us over a 1500 us window: the decay rate is the worst-determined parameter
    t = np.arange(0.0, 1500.0, 5.0)
    y = synthetic(t, amp=1.5, nu_per_us=0.006, tau_us=3200.0, phase=0.4, offset=0.2)
    return t, y + np.random.default_rng(2024).normal(0.0, 0.1, len(t)), [1.5, 0.006, 1 / 3200.0, 0.4, 0.2]


def _beat():
    # a second, undamped tone 1.5 kHz away leaves a large residual, as the ensemble mean does
    t = np.arange(0.0, 1200.0, 2.0)
    y = synthetic(t, amp=1.0, tau_us=400.0, phase=0.0) + 0.3 * np.cos(2 * np.pi * 0.0095 * t + 1.0)
    return t, y, [1.0, 0.008, 1 / 400.0, 0.0, 0.0]


@pytest.mark.parametrize("series", [_slow_noisy, _beat], ids=["slow_noisy", "beat"])
def test_optimum_matches_an_independent_solver(series):
    t, y, start = series()
    fit = fit_damped_sinusoid(t, y)
    oracle = _lm_oracle(t, y, start)
    assert oracle.success
    assert fit.frequency_hz * 1e-6 == pytest.approx(oracle.x[1], rel=1e-9)
    assert fit.decay_rate_per_us == pytest.approx(oracle.x[2], rel=1e-7)
    assert fit.residual_rms <= np.sqrt(np.mean(oracle.fun**2)) * (1 + 1e-12)


def test_iteration_cap_raises_convergence_error(grid, tmp_path, monkeypatch, capsys):
    y = synthetic(grid, offset=0.7) + np.random.default_rng(11).normal(0.0, 0.1, len(grid))
    converged = fit_damped_sinusoid(grid, y)
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as caught:
        fit_damped_sinusoid(grid, y)
    found = re.search(
        r"did not converge in 1 iterations; last iterate nu = (\S+) per us, lambda = (\S+) per us, "
        r"residual RMS (\S+)$",
        str(caught.value),
    )
    assert found, str(caught.value)
    nu, lam, rms = (float(value) for value in found.groups())
    assert nu == pytest.approx(converged.frequency_hz * 1e-6, rel=1e-3)
    assert lam == pytest.approx(converged.decay_rate_per_us, rel=0.1)
    assert rms >= converged.residual_rms * (1 - 1e-6)  # the message rounds to 6 digits

    # the CLI reports the same failure as a numerical one: exit 3
    csv_path = tmp_path / "series.csv"
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(grid.tolist(), y.tolist()))
    csv_path.write_text("t_us,mean_fz\n" + rows, encoding="utf-8")
    ini = tmp_path / "fit.ini"
    ini.write_text(f"[lattice]\nu1_er = 84\ntheta_deg = 80\nbx_mg = 85\n[fit]\ninput = {csv_path}\n", encoding="utf-8")
    assert main(["fit", "--config", str(ini), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: damped-sinusoid fit did not converge" in capsys.readouterr().err

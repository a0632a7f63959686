"""Damped-sinusoid least squares with self-derived starting values.

Model: y(t) = A exp(-lambda t) cos(2 pi nu t + phi) + C.  A, phi and C
enter linearly, so the fit is variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973)): Gauss-Newton with step halving in (nu, lambda)
alone, the linear part solved exactly by QR at every trial point.  Times are
in microseconds; the reported frequency is in Hz and the decay time in
microseconds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError

log = logging.getLogger("dwsim")

MAX_ITERATIONS = 200
MIN_SAMPLES = 8


@dataclass(frozen=True)
class DampedSinusoidFit:
    """Converged fit parameters with standard errors.

    ``tau_us`` is 1/decay_rate_per_us, +inf when the fitted rate is not
    positive (undamped or growing data); the rate itself carries the
    honest sign.  ``stderr`` maps parameter names to 1-sigma errors, the
    square roots of the diagonal of sigma^2 (J^T J)^-1 at the optimum.
    ``n_iterations`` counts the Gauss-Newton steps in (nu, lambda).
    """

    amplitude: float
    frequency_hz: float
    decay_rate_per_us: float
    tau_us: float
    phase_rad: float
    offset: float
    residual_rms: float
    n_iterations: int
    stderr: dict


def _jacobian(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    a, nu, lam, phi, _ = p
    env = np.exp(-lam * t)
    arg = 2 * np.pi * nu * t + phi
    cs, sn = np.cos(arg), np.sin(arg)
    jac = np.empty((len(t), 5))
    jac[:, 0] = env * cs
    jac[:, 1] = -a * env * sn * 2 * np.pi * t
    jac[:, 2] = -a * t * env * cs
    jac[:, 3] = -a * env * sn
    jac[:, 4] = 1.0
    return jac


def _spectral_peak(t: np.ndarray, y: np.ndarray) -> tuple[bool, float]:
    """(interior, frequency in 1/us) of the strongest bin of the Hann-windowed,
    16x zero-padded spectrum of y minus its mean, refined by a parabola through
    the log magnitudes around it.  A peak at bin 0 is read as bin 1; a peak at
    bin 0 or at the last bin is not interior."""
    yy = (y - y.mean()) * np.hanning(len(y))
    n_fft = 16 * len(y)
    spec = np.abs(np.fft.rfft(yy, n_fft))
    k = int(np.argmax(spec))
    interior = 0 < k < len(spec) - 1
    k = max(k, 1)
    if k < len(spec) - 1:
        a, b, c = np.log(spec[k - 1 : k + 2] + 1e-300)
        denom = a - 2 * b + c
        k = k + (0.5 * (a - c) / denom if denom != 0 else 0.0)
    return interior, k / (n_fft * (t[1] - t[0]))


def uniform_step(t_us: np.ndarray) -> float:
    """Spacing of a uniformly sampled time grid; ValueError if it is not uniform."""
    dt = t_us[1] - t_us[0]
    if not np.allclose(np.diff(t_us), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform")
    return dt


def _envelope_rate(t: np.ndarray, y: np.ndarray, c0: float) -> float:
    """Decay-rate guess from the log amplitude of coarse windows."""
    n_win = min(8, max(2, len(t) // 16))
    edges = np.linspace(0, len(t), n_win + 1, dtype=int)
    windows = list(zip(edges[:-1], edges[1:]))
    amps = np.array([np.abs(y[lo:hi] - c0).max() for lo, hi in windows])
    if np.any(amps <= 0):
        return 0.0
    slope = np.polyfit([t[lo:hi].mean() for lo, hi in windows], np.log(amps), 1)[0]
    return max(-slope, 0.0)


def _project(theta: np.ndarray, t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variable projection at theta = (nu, lambda).

    Returns the coefficients c = (A cos phi, -A sin phi, C) of the basis
    [exp(-lambda t) cos(2 pi nu t), exp(-lambda t) sin(2 pi nu t), 1] that
    best fit y, solved by QR; the residual r = y - basis c; and Kaufman's
    Jacobian of r in theta, -P (d basis/d theta) c with P the projector off
    the basis (BIT 15, 49 (1975)).
    """
    nu, lam = theta
    env = np.exp(-lam * t)
    cs = env * np.cos(2 * np.pi * nu * t)
    sn = env * np.sin(2 * np.pi * nu * t)
    q, r = np.linalg.qr(np.column_stack([cs, sn, np.ones_like(t)]))
    qty = q.T @ y
    coef = np.linalg.solve(r, qty)
    dmodel = np.column_stack([2 * np.pi * t * (coef[1] * cs - coef[0] * sn), -t * (coef[0] * cs + coef[1] * sn)])
    return coef, y - q @ qty, q @ (q.T @ dmodel) - dmodel


def fit_damped_sinusoid(t_us: np.ndarray, y: np.ndarray) -> DampedSinusoidFit:
    """Fit A exp(-t/tau) cos(2 pi nu t + phi) + C to a sampled series.

    Parameters
    ----------
    t_us, y : array_like
        Uniformly sampled series; at least 4 samples per oscillation
        period are required, and fewer than 2 periods of data only
        produce a warning.  The starting point is derived from the data.

    Raises
    ------
    ValueError
        On mismatched or short arrays or a non-uniform grid.
    NumericalError
        On constant data, an undersampled grid, a fitted nu under one period in the window or an amplitude within
        its standard error; ConvergenceError after MAX_ITERATIONS steps, naming the last (nu, lambda) and residual RMS.
    """
    t = np.asarray(t_us, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or len(t) < MIN_SAMPLES:
        raise ValueError(f"need matching 1-D arrays with at least {MIN_SAMPLES} samples")
    if float(np.std(y)) == 0.0:
        raise NumericalError("degenerate data: series is constant")
    dt = uniform_step(t)
    _, nu0 = _spectral_peak(t, y)
    if nu0 > 0 and dt > 1.0 / (4.0 * nu0):
        raise NumericalError(f"undersampled: {1 / (dt * nu0):.2f} samples per period, need >= 4")
    if nu0 > 0 and (t[-1] - t[0]) < 2.0 / nu0:
        log.warning("fewer than 2 oscillation periods in the data; fit may be ill-conditioned")

    theta = np.array([nu0, _envelope_rate(t, y, float(y.mean()))])
    coef, residual, jac = _project(theta, t, y)
    cost = float(residual @ residual)
    for n_iter in range(1, MAX_ITERATIONS + 1):
        step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
        while not np.array_equal(theta + step, theta):  # halve the step until it lowers the cost
            trial = _project(theta + step, t, y)
            trial_cost = float(trial[1] @ trial[1])
            if trial_cost < cost:
                break
            step = step / 2
        else:
            break  # the halved step no longer moves theta: no representable step lowers the cost
        converged = cost - trial_cost <= 1e-14 * cost  # a relative drop at rounding level
        theta, (coef, residual, jac), cost = theta + step, trial, trial_cost
        if not -0.5 < theta[0] * dt <= 0.5:  # nu + k/dt fits the grid as nu does: keep nu in (-1/2dt, 1/2dt]
            theta[0] -= math.ceil(theta[0] * dt - 0.5) / dt
            coef, residual, jac = _project(theta, t, y)
        if converged:
            break
    else:
        raise ConvergenceError(
            f"damped-sinusoid fit did not converge in {MAX_ITERATIONS} iterations; "
            f"last iterate nu = {theta[0]:.10g} per us, lambda = {theta[1]:.10g} per us, "
            f"residual RMS {math.sqrt(cost / len(t)):.6g}"
        )
    if abs(theta[0]) * (t[-1] - t[0]) < 1.0:
        raise NumericalError(f"no oscillation in the window: fitted nu = {theta[0]:.3g} per us")

    # canonical form: positive amplitude and frequency
    nu, lam = theta
    a, phi = math.hypot(coef[0], coef[1]), math.atan2(-coef[1], coef[0])
    if nu < 0:
        nu, phi = -nu, -phi
    phi = (phi + math.pi) % (2 * math.pi) - math.pi
    p = np.array([a, nu, lam, phi, coef[2]])

    jac = _jacobian(p, t)
    dof = max(len(t) - 5, 1)
    sigma2 = cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if a <= err[0]:
        raise NumericalError(f"no oscillation in the window: amplitude {a:.3g} within its standard error {err[0]:.3g}")
    return DampedSinusoidFit(
        amplitude=float(a),
        frequency_hz=float(nu * 1e6),
        decay_rate_per_us=float(lam),
        tau_us=float(1.0 / lam) if lam > 0 else math.inf,
        phase_rad=float(phi),
        offset=float(coef[2]),
        residual_rms=float(math.sqrt(cost / len(t))),
        n_iterations=n_iter,
        stderr={
            "amplitude": float(err[0]),
            "frequency_hz": float(err[1] * 1e6),
            "decay_rate_per_us": float(err[2]),
            "phase_rad": float(err[3]),
            "offset": float(err[4]),
        },
    )

"""Damped-sinusoid least squares with self-derived starting values.

Model: y(t) = A exp(-lambda t) cos(2 pi nu t + phi) + C, fitted by
Levenberg-Marquardt on the analytic Jacobian.  Times are in
microseconds; the reported frequency is in Hz and the decay time in
microseconds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

log = logging.getLogger("dwsim")

MAX_ITERATIONS = 200
MIN_SAMPLES = 8
GRADIENT_TOL = 1e-10


@dataclass(frozen=True)
class DampedSinusoidFit:
    """Converged fit parameters with standard errors.

    ``tau_us`` is 1/decay_rate_per_us, +inf when the fitted rate is not
    positive (undamped or growing data); the rate itself carries the
    honest sign.  ``stderr`` maps parameter names to 1-sigma errors, the
    square roots of the diagonal of sigma^2 (J^T J)^-1 at the optimum.
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


def _model(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    a, nu, lam, phi, c = p
    return a * np.exp(-lam * t) * np.cos(2 * np.pi * nu * t + phi) + c


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
    amps, centers = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg = np.abs(y[lo:hi] - c0)
        if len(seg) == 0:
            continue
        amps.append(seg.max())
        centers.append(t[lo:hi].mean())
    amps = np.asarray(amps)
    if np.any(amps <= 0):
        return 0.0
    slope = np.polyfit(centers, np.log(amps), 1)[0]
    return max(-slope, 0.0)


def _initial_guess(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    c0 = float(y.mean())
    _, nu0 = _spectral_peak(t, y)
    lam0 = _envelope_rate(t, y, c0)
    env = np.exp(-lam0 * t)
    basis = np.column_stack(
        [env * np.cos(2 * np.pi * nu0 * t), env * np.sin(2 * np.pi * nu0 * t), np.ones_like(t)]
    )
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    a0 = math.hypot(coef[0], coef[1])
    phi0 = math.atan2(-coef[1], coef[0])
    return np.array([a0, nu0, lam0, phi0, coef[2]])


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
        On degenerate (constant) data or a non-uniform or undersampled grid.
    ConvergenceError
        If Levenberg-Marquardt cannot reach the gradient tolerance; the
        message carries the last iterate and residual.
    """
    t = np.asarray(t_us, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or len(t) < MIN_SAMPLES:
        raise ValueError(f"need matching 1-D arrays with at least {MIN_SAMPLES} samples")
    if float(np.std(y)) == 0.0:
        raise ValueError("degenerate data: series is constant")
    dt = uniform_step(t)
    p = _initial_guess(t, y)
    if p[1] > 0 and dt > 1.0 / (4.0 * p[1]):
        raise ValueError(
            f"undersampled: {1 / (dt * p[1]):.2f} samples per period, need >= 4"
        )
    if p[1] > 0 and (t[-1] - t[0]) < 2.0 / p[1]:
        log.warning("fewer than 2 oscillation periods in the data; fit may be ill-conditioned")

    residual = _model(p, t) - y
    cost = float(residual @ residual)
    mu = 0.0
    # gradient tolerance scaled by the problem size
    g_scale = max(1.0, float(np.max(np.abs(y - y.mean()))) * max(1.0, float(t[-1] - t[0])) * len(t))
    n_iter = 0
    converged = False
    for n_iter in range(1, MAX_ITERATIONS + 1):
        jac = _jacobian(p, t)
        grad = jac.T @ residual
        g_inf = float(np.max(np.abs(grad)))
        if g_inf < GRADIENT_TOL * g_scale:
            converged = True
            break
        jtj = jac.T @ jac
        if mu == 0.0:
            mu = 1e-3 * float(np.max(np.diag(jtj)))
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + mu * np.diag(np.diag(jtj)) + 1e-300 * np.eye(5), -grad)
            except np.linalg.LinAlgError:
                mu *= 4.0
                continue
            p_try = p + step
            r_try = _model(p_try, t) - y
            c_try = float(r_try @ r_try)
            if c_try < cost:
                rel_drop = (cost - c_try) / max(cost, 1e-300)
                p, residual, cost = p_try, r_try, c_try
                mu = max(mu / 3.0, 1e-14)
                accepted = True
                if rel_drop < 1e-15 and float(np.max(np.abs(step))) < 1e-12 * (1 + np.max(np.abs(p))):
                    converged = True  # stalled at machine precision
                break
            mu *= 2.0
        if converged:
            break
        if not accepted:
            # No downhill step exists at any damping: gradient is zero to
            # machine precision.
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"damped-sinusoid fit did not converge in {MAX_ITERATIONS} iterations; "
            f"last iterate {p.tolist()}, residual RMS {math.sqrt(cost / len(t)):.6g}"
        )

    # canonical form: positive amplitude and frequency
    a, nu, lam, phi, c = p
    if a < 0:
        a, phi = -a, phi + math.pi
    if nu < 0:
        nu, phi = -nu, -phi
    phi = (phi + math.pi) % (2 * math.pi) - math.pi
    p = np.array([a, nu, lam, phi, c])

    jac = _jacobian(p, t)
    dof = max(len(t) - 5, 1)
    sigma2 = cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return DampedSinusoidFit(
        amplitude=float(a),
        frequency_hz=float(nu * 1e6),
        decay_rate_per_us=float(lam),
        tau_us=float(1.0 / lam) if lam > 0 else math.inf,
        phase_rad=float(phi),
        offset=float(c),
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

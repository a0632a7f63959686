"""Dominant frequency of a sampled series, used by the tests to read the
Rabi frequency of a propagated run."""
from __future__ import annotations

import numpy as np

from dwsim.fitting import MIN_SAMPLES, _spectral_peak, uniform_step


def dominant_frequency_hz(t_us: np.ndarray, y: np.ndarray) -> float:
    """Frequency of the strongest spectral peak of a sampled series.

    Hann-windowed, zero-padded discrete spectrum with parabolic
    refinement of the peak bin; the mean is removed first.
    """
    t_us = np.asarray(t_us, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t_us) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    uniform_step(t_us)
    interior, freq_per_us = _spectral_peak(t_us, y)
    if not interior:
        raise ValueError("no interior spectral peak found")
    return float(freq_per_us * 1e6)

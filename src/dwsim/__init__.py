"""Simulations of spinor atoms in a 1D lin-theta-lin optical double-well
lattice: potentials, band structure, localized ground-doublet states,
Rabi dynamics, state-preparation ramps and ensemble dephasing."""

__version__ = "0.1.0"

from .constants import SpeciesConstants, cesium_f4
from .spin import SpinOperators, make_spin_operators
from .lattice import LatticeConfig, adiabatic_curves, diabatic_curves
from .bands import (
    BandSolution,
    WannierDoublet,
    solve_bands,
    wannier_doublet,
)
from .dynamics import (
    AdiabaticityReport,
    PrepareBlock,
    PreparationResult,
    Segment,
    TimeSeries,
    adiabaticity_report,
    prepare_ground_l,
    preparation_schedule,
    propagate_ramp,
    propagate_static,
)
from .ensemble import EnsembleResult, EnsembleSpec, ensemble_magnetization
from .fitting import DampedSinusoidFit, fit_damped_sinusoid
from .errors import ConfigError, ConvergenceError, NumericalError

__all__ = [
    "__version__",
    "SpeciesConstants",
    "cesium_f4",
    "SpinOperators",
    "make_spin_operators",
    "LatticeConfig",
    "diabatic_curves",
    "adiabatic_curves",
    "BandSolution",
    "WannierDoublet",
    "solve_bands",
    "wannier_doublet",
    "Segment",
    "TimeSeries",
    "AdiabaticityReport",
    "PreparationResult",
    "propagate_static",
    "propagate_ramp",
    "preparation_schedule",
    "prepare_ground_l",
    "adiabaticity_report",
    "PrepareBlock",
    "EnsembleSpec",
    "EnsembleResult",
    "ensemble_magnetization",
    "DampedSinusoidFit",
    "fit_damped_sinusoid",
    "ConfigError",
    "ConvergenceError",
    "NumericalError",
]

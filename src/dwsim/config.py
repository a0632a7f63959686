"""INI-style run configuration with strict key checking.

Every value that influences results is resolved at parse time; the
resolved mapping (defaults included) is what lands in the output
manifest, so a run is fully reproducible from its manifest alone.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields, replace

from .constants import ATOMIC_MASS, CS133_MASS_U, CS133_WAVELENGTH_NM, SpeciesConstants, cesium_f4
from .errors import ConfigError
from .lattice import LatticeConfig

SWEEP_PARAMETERS = ("u1", "bx", "bz", "theta")
SWEEP_BOUNDS = {
    "u1": (10.0, 300.0),
    "bx": (5.0, 300.0),
    "bz": (-100.0, 100.0),
    "theta": (45.0, 90.0),
}

_REQUIRED_LATTICE = ("u1_er", "theta_deg", "bx_mg")


# The fields of each block are the keys of its INI section; their types
# parse the values and their defaults fill the keys a file leaves out.
@dataclass(frozen=True)
class SweepBlock:
    parameter: str = "bx"
    start: float = 40.0
    stop: float = 150.0
    steps: int = 12
    u1_scale: float = 1.0


@dataclass(frozen=True)
class RabiBlock:
    t_max_us: float = 2000.0
    dt_out_us: float = 2.0


@dataclass(frozen=True)
class PrepareBlock:
    bx_ramp_us: float = 250.0
    bz_ramp_us: float = 70.0
    bz_start_mg: float = -100.0
    dt_us: float = 0.5


@dataclass(frozen=True)
class EnsembleBlock:
    spread: float = 0.05
    n_samples: int = 200
    seed: int = 20260808
    distribution: str = "gaussian"
    t_max_us: float = 1500.0
    dt_out_us: float = 5.0


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    precision: int = 12


@dataclass(frozen=True)
class FitBlock:
    input: str = ""
    t_column: str = "t_us"
    y_column: str = "mean_fz"


_BLOCKS = {
    "sweep": SweepBlock,
    "rabi": RabiBlock,
    "prepare": PrepareBlock,
    "ensemble": EnsembleBlock,
    "output": OutputBlock,
    "fit": FitBlock,
}


_LATTICE_KEYS = tuple(f.name for f in fields(LatticeConfig) if f.name != "species")


def _section_defaults() -> dict[str, dict]:
    """section -> key -> default; the type of a default parses its key.

    [lattice] holds LatticeConfig's fields with the species replaced by
    the keys _species_from reads.
    """
    species = cesium_f4()
    lattice = {f.name: f.default for f in fields(LatticeConfig) if f.name in _LATTICE_KEYS}
    lattice.update(
        species=species.name,
        g_f=species.g_f,
        mass_u=CS133_MASS_U,
        wavelength_nm=CS133_WAVELENGTH_NM,
    )
    blocks = {name: {f.name: f.default for f in fields(cls)} for name, cls in _BLOCKS.items()}
    return {"lattice": lattice, **blocks}


_DEFAULTS = _section_defaults()


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    lattice: LatticeConfig
    sweep: SweepBlock
    rabi: RabiBlock
    prepare: PrepareBlock
    ensemble: EnsembleBlock
    output: OutputBlock
    fit: FitBlock
    resolved: dict = field(repr=False)


def _species_from(values: dict) -> SpeciesConstants:
    if values["species"] != "cs133_f4":
        raise ConfigError(f"unknown species {values['species']!r}; supported: cs133_f4")
    base = cesium_f4(g_f=values["g_f"])
    mass_kg = values["mass_u"] * ATOMIC_MASS
    wavelength_m = values["wavelength_nm"] * 1e-9
    if mass_kg != base.mass_kg or wavelength_m != base.wavelength_m:
        base = replace(base, mass_kg=mass_kg, wavelength_m=wavelength_m, name="cs133_f4_custom")
    return base


def _parse_value(section: str, key: str, raw: str, default):
    try:
        value = type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def parse_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises
    ------
    ConfigError
        For a missing file, unknown section or key, unparsable,
        non-finite or out-of-range value, or missing required keys.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(_DEFAULTS)}")
        for key in parser[section]:
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    missing = [k for k in _REQUIRED_LATTICE if not parser.has_option("lattice", k)]
    if missing:
        raise ConfigError("missing required keys in [lattice]: " + ", ".join(missing))

    resolved = {
        section: {
            key: _parse_value(section, key, parser.get(section, key), default)
            if parser.has_option(section, key)
            else default
            for key, default in defaults.items()
        }
        for section, defaults in _DEFAULTS.items()
    }

    lat = resolved["lattice"]
    try:
        lattice = LatticeConfig(species=_species_from(lat), **{k: lat[k] for k in _LATTICE_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    blocks = {name: cls(**resolved[name]) for name, cls in _BLOCKS.items()}

    sweep = blocks["sweep"]
    if sweep.parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {sweep.parameter!r}")
    if sweep.steps < 2:
        raise ConfigError(f"sweep steps must be >= 2, got {sweep.steps}")
    if sweep.start == sweep.stop:
        raise ConfigError("sweep start and stop must differ")
    if sweep.u1_scale <= 0:
        raise ConfigError(f"u1_scale must be positive, got {sweep.u1_scale}")
    lo, hi = SWEEP_BOUNDS[sweep.parameter]
    for v in (sweep.start, sweep.stop):
        if not lo <= v <= hi:
            raise ConfigError(
                f"sweep {sweep.parameter} value {v} outside validated range [{lo}, {hi}]"
            )

    out = blocks["output"]
    if not 1 <= out.precision <= 17:
        raise ConfigError(f"output precision must be in [1, 17], got {out.precision}")

    rabi = blocks["rabi"]
    if rabi.t_max_us <= 0 or rabi.dt_out_us <= 0:
        raise ConfigError("rabi t_max_us and dt_out_us must be positive")

    prep = blocks["prepare"]
    if prep.bx_ramp_us <= 0 or prep.bz_ramp_us <= 0 or prep.dt_us <= 0:
        raise ConfigError("prepare ramp durations and dt_us must be positive")

    return RunConfig(lattice=lattice, resolved=resolved, **blocks)

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

from .constants import ATOMIC_MASS, CS133_MASS_U, CS133_WAVELENGTH_NM, cesium_f4
from .dynamics import PrepareBlock
from .ensemble import EnsembleSpec
from .errors import ConfigError
from .lattice import LatticeConfig

# Sweep axis -> (the LatticeConfig field it sets, validated range lo, hi).
SWEEP_AXES = {
    "u1": ("u1_er", 10.0, 300.0),
    "bx": ("bx_mg", 5.0, 300.0),
    "bz": ("bz_mg", -100.0, 100.0),
    "theta": ("theta_deg", 45.0, 90.0),
}

_REQUIRED_LATTICE = ("u1_er", "theta_deg", "bx_mg")
_SPECIES_KEYS = ("species", "g_f", "mass_u", "wavelength_nm")


# Each INI section is one frozen dataclass: its fields are the section's
# keys, their types parse the values, their defaults fill the keys a file
# leaves out, and __post_init__ rejects out-of-range values with ValueError.
# The library owns the sections it reads; the CLI-only ones live here.
@dataclass(frozen=True)
class SweepBlock:
    parameter: str = "bx"
    start: float = 40.0
    stop: float = 150.0
    steps: int = 12
    u1_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_AXES:
            raise ValueError(f"parameter must be one of {tuple(SWEEP_AXES)}, got {self.parameter!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.start == self.stop:
            raise ValueError("start and stop must differ")
        if self.u1_scale <= 0:
            raise ValueError(f"u1_scale must be positive, got {self.u1_scale}")
        _, lo, hi = SWEEP_AXES[self.parameter]
        for v in (self.start, self.stop):
            if not lo <= v <= hi:
                raise ValueError(f"{self.parameter} value {v} outside validated range [{lo}, {hi}]")


@dataclass(frozen=True)
class RabiBlock:
    t_max_us: float = 2000.0
    dt_out_us: float = 2.0

    def __post_init__(self) -> None:
        if self.t_max_us <= 0 or self.dt_out_us <= 0:
            raise ValueError("t_max_us and dt_out_us must be positive")


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    precision: int = 12

    def __post_init__(self) -> None:
        if not 1 <= self.precision <= 17:
            raise ValueError(f"precision must be in [1, 17], got {self.precision}")


@dataclass(frozen=True)
class FitBlock:
    input: str = ""
    t_column: str = "t_us"
    y_column: str = "mean_fz"


_SECTIONS = {
    "lattice": LatticeConfig,
    "sweep": SweepBlock,
    "rabi": RabiBlock,
    "prepare": PrepareBlock,
    "ensemble": EnsembleSpec,
    "output": OutputBlock,
    "fit": FitBlock,
}


def _section_defaults() -> dict[str, dict]:
    """section -> key -> default; the type of a default parses its key.

    [lattice] holds LatticeConfig's fields with the species replaced by
    the keys _lattice_arguments reads.
    """
    defaults = {
        name: {f.name: f.default for f in fields(cls) if f.name != "species"}
        for name, cls in _SECTIONS.items()
    }
    species = cesium_f4()
    defaults["lattice"].update(
        species="cs133_f4",
        g_f=species.g_f,
        mass_u=CS133_MASS_U,
        wavelength_nm=CS133_WAVELENGTH_NM,
    )
    return defaults


_DEFAULTS = _section_defaults()


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    lattice: LatticeConfig
    sweep: SweepBlock
    rabi: RabiBlock
    prepare: PrepareBlock
    ensemble: EnsembleSpec
    output: OutputBlock
    fit: FitBlock
    resolved: dict = field(repr=False)


def _lattice_arguments(values: dict) -> dict:
    """LatticeConfig's keyword arguments from the [lattice] values, with
    the species keys made into one SpeciesConstants."""
    name, g_f, mass_u, wavelength_nm = (values[k] for k in _SPECIES_KEYS)
    if name != "cs133_f4":
        raise ValueError(f"unknown species {name!r}; supported: cs133_f4")
    species = cesium_f4(g_f=g_f)
    mass_kg = mass_u * ATOMIC_MASS
    wavelength_m = wavelength_nm * 1e-9
    if mass_kg != species.mass_kg or wavelength_m != species.wavelength_m:
        species = replace(species, mass_kg=mass_kg, wavelength_m=wavelength_m)
    return {k: v for k, v in values.items() if k not in _SPECIES_KEYS} | {"species": species}


def _parse_value(key: str, raw: str, default):
    try:
        value = type(default)(raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {raw!r}")
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

    resolved, sections = {}, {}
    for name, cls in _SECTIONS.items():
        try:
            values = resolved[name] = {
                key: _parse_value(key, parser.get(name, key), default)
                if parser.has_option(name, key)
                else default
                for key, default in _DEFAULTS[name].items()
            }
            if cls is LatticeConfig:
                values = _lattice_arguments(values)
            sections[name] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {exc}") from exc
    return RunConfig(resolved=resolved, **sections)

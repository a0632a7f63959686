"""Command-line entry point.

Exit codes: 0 success, 2 ``ConfigError``, 3 ``NumericalError`` or ``LinAlgError``; any other exception is a bug.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import logging
import sys

import numpy as np

from .config import parse_config
from .errors import ConfigError, NumericalError
from .output import COMMANDS, run_command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwsim",
        description="Double-well spinor-lattice simulations: potentials, bands, "
        "localized-doublet dynamics, sweeps and ensemble dephasing.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="INI-style run configuration")
    parser.add_argument("--jobs", type=int, default=1, help="worker threads for sweep points")
    parser.add_argument("--out", default=None, help="output directory (overrides [output] directory)")
    parser.add_argument("--seed", type=int, default=None, help="override the ensemble seed")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        run_cfg = parse_config(args.config)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            run_cfg = dataclasses.replace(
                run_cfg,
                ensemble=dataclasses.replace(run_cfg.ensemble, seed=args.seed),
            )
            run_cfg.resolved["ensemble"]["seed"] = args.seed
        paths = run_command(args.command, run_cfg, jobs=args.jobs, out_dir=args.out)
    except ConfigError as exc:
        print(f"dwsim: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"dwsim: numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


def console_main() -> int:
    """``main()`` for a process that exits next: the ``dwsim`` script and
    ``python -m dwsim.cli``.  Freezing the collector spares the shutdown a
    walk over the heap built at import; ``main()`` itself leaves the
    collector alone, since callers in a live process keep using it."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())

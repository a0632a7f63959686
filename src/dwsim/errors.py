"""Exception types shared across modules.  Numerical failures are ``NumericalError`` and numpy's ``LinAlgError``."""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration: CLI exit code 2."""


class NumericalError(RuntimeError):
    """A numerical premise of the run fails, such as a basis limit or a double well: CLI exit code 3."""


class ConvergenceError(NumericalError):
    """A numerical certification or iteration failed to converge."""

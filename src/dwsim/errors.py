"""Exception types shared across modules."""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class ConvergenceError(RuntimeError):
    """A numerical certification or iteration failed to converge."""

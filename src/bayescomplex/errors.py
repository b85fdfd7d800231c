"""Exception hierarchy shared across the package.

The command-line driver maps these onto process exit codes: configuration
problems exit with 2, numerical failures with 3, and failed result checks
with 1. Library code raises them directly.
"""

from __future__ import annotations


class BayescomplexError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BayescomplexError):
    """Invalid configuration, argument, or domain violation (exit code 2)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalError(BayescomplexError):
    """Numerical failure: divergence, failed bracket, non-PD system (exit code 3)."""


class SmallnessError(NumericalError):
    """A projection smallness guard was violated; the message names the
    measured squared norm and the threshold it had to stay below."""

    def __init__(self, measured_norm_sq: float, threshold: float, context: str):
        super().__init__(
            f"{context}: squared norm {measured_norm_sq:.6g} exceeds "
            f"smallness threshold {threshold:.6g}"
        )


class InsufficientSamplesError(NumericalError):
    """A Monte Carlo grid point recorded zero hits where a fit needs a value."""

    def __init__(self, eps: float, n: int):
        super().__init__(f"zero hits at eps={eps:g} after {n} samples")


class CheckFailure(BayescomplexError):
    """An assertion-class check inside a command failed (exit code 1)."""

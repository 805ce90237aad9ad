"""Exception types shared across the package."""


class CoexcapError(Exception):
    """Base class for all package errors."""


class UnsupportedBandwidthError(CoexcapError):
    """Requested bandwidth has no PHY rate entry."""


class ConvergenceError(CoexcapError):
    """Fixed-point solver failed to reach tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DegenerateBlockingError(CoexcapError):
    """Blocking probability of 1 makes the backoff chain ill-defined."""


class EmptyBurstError(CoexcapError):
    """No MPDU fits the requested duration cap."""


class InvalidWindowError(CoexcapError):
    """Transmission window violates its bounds."""


class InfeasiblePartitionError(CoexcapError):
    """Requested frequency split cannot be built from standard widths."""


class ConfigError(CoexcapError, ValueError):
    """Malformed configuration or out-of-range input; also a ``ValueError``."""

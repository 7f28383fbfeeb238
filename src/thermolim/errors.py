"""Exception hierarchy shared across the package.

Every failure mode that a caller can meaningfully react to gets its own
class; all inherit from :class:`ThermolimError` so the harness can fence
off library failures from programming errors.
"""


class ThermolimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ThermolimError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class CutoffError(ThermolimError):
    """A Fock-space truncation is too small for the requested state.

    Raised when the tail-mass bound fails: probability has leaked into
    the top of the truncated ladder and the result cannot be trusted.
    """


class CapacityError(ThermolimError):
    """A requested problem size exceeds a configured hard limit."""


class QuadratureError(ThermolimError):
    """A quadrature failed its check: a time integral came out non-finite
    or its Fourier or Bessel window was too short, or a Wigner lattice
    sum lost norm."""


class IntegrationError(ThermolimError):
    """An exponential-engine result failed its certification.

    Carries a ``diagnostics`` dict: ``error_estimate``, the largest
    truncation estimate on the grid (the relative norm of the Chebyshev
    terms past the coarse window, accumulated over the intervals), and
    ``drift`` when the norm check failed, so failures can be debugged.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ValidationError(ThermolimError):
    """A scenario config is malformed; the message names the bad field."""

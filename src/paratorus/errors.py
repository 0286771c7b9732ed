"""Named error types and the CLI exit-code mapping."""


class ParatorusError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(ParatorusError):
    """Invalid sizes, shapes, grids, or inadmissible index combinations."""


class MultiplierError(ParatorusError):
    """A Fourier symbol evaluated to a non-finite value on the lattice."""


class FieldRangeError(ParatorusError):
    """Pointwise evaluation would overflow (exponential of a large field)."""


class ResolutionError(ParatorusError):
    """The grid cannot resolve the requested construction.

    Raised when the mollified noise is not negligible at the Nyquist
    shell, when the dyadic partition cannot host enough blocks, or when
    a frequency cutoff search hits the resolution cap.
    """


class CertificateError(ParatorusError):
    """A smallness certificate is violated or a Neumann series stalls."""


class SolverDivergenceError(ParatorusError):
    """A fixed-point iteration diverged."""


class DataTooRoughError(ParatorusError):
    """No admissible relaxation parameter found below the cap."""


class ShiftTooSmallError(ParatorusError):
    """The shifted operator could not be inverted; suggest a larger shift."""


class DataError(ParatorusError):
    """Enhanced data, or a field file, is missing ingredients, malformed
    or non-finite."""


class EigenSolverError(ParatorusError):
    """Subspace iteration did not reach the residual tolerance."""


# Numerical refusals exit with distinct codes in 10-19; usage and
# configuration problems exit with 2 (argparse convention).
EXIT_CODES = {
    ConfigurationError: 2,
    ResolutionError: 10,
    CertificateError: 11,
    SolverDivergenceError: 12,
    DataTooRoughError: 13,
    ShiftTooSmallError: 14,
    MultiplierError: 15,
    FieldRangeError: 16,
    DataError: 17,
    EigenSolverError: 18,
}


def exit_code_for(exc: BaseException) -> int:
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    return 1

"""Exception types shared across the package.

Every error raised by tomolab derives from :class:`TomolabError`, so callers
can catch one base class at task boundaries (the CLI maps them to exit codes).
"""


class TomolabError(Exception):
    """Base class for all tomolab errors."""


# --- matrix / eigensolver layer ---

class NonHermitianInput(TomolabError):
    """Matrix failed the Hermitian symmetry check."""


class EigensolveFailure(TomolabError):
    """Underlying eigensolver did not converge."""


class DimensionMismatch(TomolabError):
    """Operands have incompatible dimensions."""


class DimensionOverflow(TomolabError):
    """Result dimension exceeds the configured envelope."""


# --- observable families ---

class BadDimension(TomolabError):
    """Dimension incompatible with the requested family (e.g. non power of 2)."""


class NonOrthonormalVectors(TomolabError):
    """Supplied vectors fail the orthonormality Gram check."""


class WrongBasisKind(TomolabError):
    """Operation only defined for a different basis kind."""


# --- density matrices and state classes ---

class NotHermitian(TomolabError):
    """Candidate density matrix is not Hermitian."""


class NotPSD(TomolabError):
    """Candidate density matrix has a negative eigenvalue."""


class TraceNotOne(TomolabError):
    """Candidate density matrix does not have unit trace."""


class BetaOutOfRange(TomolabError):
    """Line-state perturbation size must satisfy |beta| < 1."""


class IdentityIndex(TomolabError):
    """Construction requires a non-identity basis member."""


class InfeasibleSpec(TomolabError):
    """State class parameters admit no valid density matrix."""


# --- simulation ---

class NonMeasurableObservable(TomolabError):
    """Basis member has no spectral decomposition (masking-only matrix)."""


class DesignMismatch(TomolabError):
    """Design mode and requested sizes are inconsistent."""


# --- equivalence machinery ---

class NegativeResult(TomolabError):
    """Round-off produced a negative implied count (out-of-model input)."""


class UnsupportedArity(TomolabError):
    """Quadrature only supports a small number of multinomial cells."""


class ZeroDensity(TomolabError):
    """Sampling density vanished at a drawn point."""


class ZeroWeight(TomolabError):
    """Design weights must be strictly positive for ratio diagnostics."""


# --- CLI ---

class ConfigParseError(TomolabError):
    """Experiment configuration file is invalid."""

"""Exception hierarchy.

Errors are grouped so the command-line layer can map a whole family to a
single exit code: certification failures, dilation (isometry/completion)
failures and input parse failures.
"""

from __future__ import annotations


class PolydilError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PolydilError):
    """Malformed input document or polynomial expression."""


# ---------------------------------------------------------------------------
# linear-algebra kernel


class DimensionMismatch(PolydilError):
    pass


class NotHermitian(PolydilError):
    pass


class NoConvergence(PolydilError):
    pass


class NotPsd(PolydilError):
    def __init__(self, min_eig: float):
        self.min_eig = min_eig
        super().__init__(f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")


class SingularResolvent(PolydilError):
    pass


# ---------------------------------------------------------------------------
# tuple certification


class CertificationError(PolydilError):
    """Any condition that disqualifies a tuple/certificate pair."""


class NotCommuting(CertificationError):
    def __init__(self, i: int, j: int, residual: float):
        self.i, self.j, self.residual = i, j, residual
        super().__init__(f"operators {i} and {j} do not commute (residual {residual:.3e})")


class NotContractive(CertificationError):
    def __init__(self, i: int, norm: float):
        self.i, self.norm = i, norm
        super().__init__(f"operator {i} has norm {norm:.6f} > 1")


class IndexOutOfRange(PolydilError):
    pass


class NotSzego(CertificationError):
    def __init__(self, min_eig: float):
        self.min_eig = min_eig
        super().__init__(f"tuple is not a Szego tuple (defect min eigenvalue {min_eig:.3e})")


class NotPure(CertificationError):
    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(f"tuple is not pure (spectral radius estimate {rho:.6f})")


class GNotPsd(CertificationError):
    def __init__(self, i: int, min_eig: float):
        self.i, self.min_eig = i, min_eig
        super().__init__(f"G[{i}] is not psd (min eigenvalue {min_eig:.3e})")


class SumMismatch(CertificationError):
    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"G_1 + ... + G_(n-1) differs from I - T_n T_n* by {residual:.3e}")


class ProductNotPsd(CertificationError):
    def __init__(self, i: int, min_eig: float):
        self.i, self.min_eig = i, min_eig
        super().__init__(
            f"alternating product applied to G[{i}] is not psd (min eigenvalue {min_eig:.3e})"
        )


class HypothesisFailed(CertificationError):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"hypothesis failed: {which}")


class CertificateRejected(CertificationError):
    pass


# ---------------------------------------------------------------------------
# dilation / realization


class DilationError(PolydilError):
    pass


class NotIsometric(DilationError):
    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"generating frames are not isometric (residual {residual:.3e})")


# ---------------------------------------------------------------------------
# polynomial calculus


class ArityMismatch(PolydilError):
    pass


class SampleTooLarge(PolydilError):
    """A variety sample over its point budget, refused before sampling."""

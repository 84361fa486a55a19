"""A 40-digit reference for the transfer function, in mpmath.

The float64 blocks of a realization and the evaluation points are taken as
exact inputs, so the distance of a float64 evaluation from the reference is
that evaluation's own forward error, measured to far below its rounding.
"""

import mpmath
import numpy as np

from polydil.matcore import adj

DPS = 40


def mp_transfer(r, z, dps: int = DPS) -> mpmath.matrix:
    """Phi(z) = A* + C* E(z) (I - D* E(z))^{-1} B* of the realization ``r``
    at the point ``z``, at ``dps`` digits."""
    with mpmath.workdps(dps):
        a, b, c, d = (mpmath.matrix(adj(x).tolist()) for x in (r.a, r.b, r.c, r.d))
        e = mpmath.diag(np.repeat(np.asarray(z, dtype=complex), r.partition).tolist())
        return a + c * e * (mpmath.inverse(mpmath.eye(r.dim_f) - d * e) * b)


def forward_error(phi: np.ndarray, reference: mpmath.matrix, dps: int = DPS) -> float:
    """The matrix 1-norm of ``phi`` minus the reference, taken at ``dps``
    digits, so the rounding of the reference to float64 plays no part."""
    with mpmath.workdps(dps):
        return float(mpmath.mnorm(mpmath.matrix(phi.tolist()) - reference, 1))

"""Certified example families and seeded random candidates.

The Jordan-shift pairs realize the pure Szego hypothesis exactly (their
defect factorizes over the tensor product), and the product triples carry
the explicit positive operators that make the certificate checkable without
any search.  Random candidates are drawn as polynomials in one lower
triangular matrix so commutativity holds to rounding, not merely to a
tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificateRejected, CertificationError, NotPure, NotSzego
from .matcore import adj, operator_norm
from .tuples import (
    CERT_TOL,
    OperatorTuple,
    DilationCertificate,
    last_defect_certificate,
    make_tuple,
    verify_certificate,
)


def lower_shift(d: int) -> np.ndarray:
    """The d x d nilpotent lower shift J e_i = e_(i+1)."""
    j = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        j[i + 1, i] = 1.0
    return j


def jordan_pair(d1: int, d2: int, r1: float = 1.0, r2: float = 1.0) -> OperatorTuple:
    """T_1 = r1 (J_{d1} (x) I), T_2 = r2 (I (x) J_{d2}) on C^{d1 d2}.

    Commuting, nilpotent (hence pure) and Szego: the defect factorizes as
    (I - r1^2 J J*) (x) (I - r2^2 J J*), a nonnegative diagonal.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("Jordan block sizes must be at least 1")
    if not (0.0 < r1 <= 1.0 and 0.0 < r2 <= 1.0):
        raise ValueError("scales must lie in (0, 1]")
    t1 = r1 * np.kron(lower_shift(d1), np.eye(d2, dtype=complex))
    t2 = r2 * np.kron(np.eye(d1, dtype=complex), lower_shift(d2))
    return make_tuple([t1, t2])


def product_triple(
    pair: OperatorTuple, j: int, k: int, tol: float = CERT_TOL
) -> tuple[OperatorTuple, DilationCertificate]:
    """Extend a pure Szego pair by T_3 = T_1^j T_2^k with its explicit
    certificate G_1 = I - T_1^j T_1*^j, G_2 = T_1^j (I - T_2^k T_2*^k) T_1*^j.

    A pair that is not Szego or not pure raises NotSzego or NotPure; any
    other rejection indicates an implementation bug (CertificateRejected).
    """
    if pair.n != 2:
        raise ValueError("product_triple extends a 2-tuple")
    if j < 1 or k < 1:
        raise ValueError("exponents must be at least 1")
    t1, t2 = pair.ops
    t1j = np.linalg.matrix_power(t1, j)
    t2k = np.linalg.matrix_power(t2, k)
    t3 = t1j @ t2k
    eye = np.eye(pair.dim, dtype=complex)
    g1 = eye - t1j @ adj(t1j)
    g2 = t1j @ (eye - t2k @ adj(t2k)) @ adj(t1j)
    triple = make_tuple([t1, t2, t3])
    try:
        cert = verify_certificate(triple, [g1, g2], tol)
    except (NotSzego, NotPure):
        raise
    except CertificationError as exc:
        raise CertificateRejected(f"known-valid certificate rejected: {exc}") from exc
    return triple, cert


def last_defect_tuple(
    pair: OperatorTuple, tn, tol: float = CERT_TOL
) -> tuple[OperatorTuple, DilationCertificate]:
    """Extend a pair by an arbitrary commuting contraction T_n, certified
    with G_1 = I - T_n T_n* and G_i = 0 otherwise."""
    if pair.n != 2:
        raise ValueError("last_defect_tuple extends a 2-tuple")
    triple = make_tuple(list(pair.ops) + [tn])
    cert = last_defect_certificate(triple, tol)
    return triple, cert


def random_candidate(
    seed: int, d: int, n: int, spectral_margin: float = 0.1
) -> OperatorTuple:
    """Seeded commuting family of strict contractions.

    Each coordinate is a random polynomial in a single lower triangular
    matrix (random strictly-lower part plus a scaled random diagonal), then
    normalized so its norm is 1 - spectral_margin; commutators are therefore
    exact up to rounding and every spectral radius stays below the margin.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if not 0.0 <= spectral_margin < 1.0:
        raise ValueError("spectral_margin must lie in [0, 1)")
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    base = np.tril(cplx(d, d), -1) + np.diag(0.5 * cplx(d))
    target = 1.0 - spectral_margin
    ops = []
    for _ in range(n):
        coeffs = cplx(d)
        m = np.zeros((d, d), dtype=complex)
        power = np.eye(d, dtype=complex)
        for c in coeffs:
            m = m + c * power
            power = power @ base
        norm = operator_norm(m)
        if norm < 1e-12:  # pragma: no cover - measure-zero draw
            m = np.eye(d, dtype=complex)
            norm = 1.0
        ops.append(target * m / norm)
    return make_tuple(ops)

"""Commuting contraction tuples and membership certificates.

A tuple T = (T_1, ..., T_n) of commuting contractions is certified to lie in
the dilatable class when its first n-1 coordinates form a pure Szego tuple
and the last defect I - T_n T_n* splits into positive operators G_i whose
alternating conjugation products stay positive.  ``verify_certificate`` validates a
supplied family {G_i} and packages the derived defect operators and range
frames that the realization builder consumes; it does not search for G_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    GNotPsd,
    HypothesisFailed,
    IndexOutOfRange,
    NotCommuting,
    NotContractive,
    NotPure,
    NotSzego,
    ProductNotPsd,
    SumMismatch,
)
from .matcore import adj, operator_norm

COMMUTE_TOL = 1e-10
CONTRACT_TOL = 1e-8
CERT_TOL = 1e-8
PURE_TOL = 1e-6


@dataclass(frozen=True)
class OperatorTuple:
    """n commuting contractions on C^dim.

    ``ops`` are d x d complex matrices; validity (commutators within
    ``COMMUTE_TOL``, norms within ``1 + CONTRACT_TOL``) is established by
    :func:`make_tuple` and assumed afterwards.
    """

    ops: tuple[np.ndarray, ...]
    dim: int

    @property
    def n(self) -> int:
        return len(self.ops)

    def op(self, i: int) -> np.ndarray:
        """1-based coordinate access, matching the T_i notation."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 1..{self.n}")
        return self.ops[i - 1]


def make_tuple(matrices: Sequence) -> OperatorTuple:
    """Validate and build an OperatorTuple.

    The norms come from one stacked SVD, and a commutator is normed by an
    SVD only when its Frobenius norm does not already put it within
    ``COMMUTE_TOL`` (``matcore.operator_norms_within``).
    """
    ops = tuple(matcore.as_matrix(m) for m in matrices)
    if not ops:
        raise DimensionMismatch("a tuple needs at least one operator")
    d = ops[0].shape[0]
    for m in ops:
        if m.shape != (d, d):
            raise DimensionMismatch(f"expected {d}x{d} blocks, got {m.shape}")
    for i, norm in enumerate(operator_norm(np.stack(ops)).tolist()):
        if norm > 1.0 + CONTRACT_TOL:
            raise NotContractive(i + 1, norm)
    pairs = list(itertools.combinations(range(len(ops)), 2))
    if pairs:
        comms = np.stack([ops[i] @ ops[j] - ops[j] @ ops[i] for i, j in pairs])
        for k in np.flatnonzero(~matcore.operator_norms_within(comms, COMMUTE_TOL)).tolist():
            res = operator_norm(comms[k])
            if res > COMMUTE_TOL:
                raise NotCommuting(pairs[k][0] + 1, pairs[k][1] + 1, res)
    return OperatorTuple(ops=ops, dim=d)


def hat(t: OperatorTuple, i: int) -> OperatorTuple:
    """The (n-1)-tuple with the i-th coordinate deleted (1-based)."""
    if not 1 <= i <= t.n:
        raise IndexOutOfRange(f"index {i} outside 1..{t.n}")
    ops = t.ops[: i - 1] + t.ops[i:]
    return OperatorTuple(ops=ops, dim=t.dim)


def _conjugation_gap(ops: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """X - prod_j (Id - C_{A_j})(X), with C_A(X) = A X A*, accumulated one
    operator at a time as gap <- gap + A (X - gap) A*: a sum of its own
    terms, never a difference with X, so a gap far below X (such as
    ``hardy.box_gap``'s) keeps its relative accuracy."""
    gap = np.zeros_like(x)
    for a in ops:
        gap = gap + a @ (x - gap) @ adj(a)
    return gap


def szego_defect(t: OperatorTuple) -> np.ndarray:
    """The Szego defect  sum_{k in {0,1}^n} (-1)^|k| T^k T*^k, that is
    prod_j (Id - C_{T_j}) applied to I."""
    return conjugacy_product(t.ops, np.eye(t.dim, dtype=complex))


def conjugacy_product(ops: Sequence[np.ndarray], x) -> np.ndarray:
    """Apply the composition  prod_j (Id - C_{T_j})  to X, as X minus
    ``_conjugation_gap``."""
    x = matcore.as_matrix(x)
    ops = [matcore.as_matrix(a) for a in ops]
    if any(a.shape != x.shape for a in ops):
        raise DimensionMismatch("conjugacy_product needs matching dimensions")
    return x - _conjugation_gap(ops, x)


class SzegoCheck(NamedTuple):
    ok: bool
    min_eig: float


class _Szego(NamedTuple):
    check: SzegoCheck
    defect: np.ndarray  # the Szego defect operator, checked
    eig: matcore.HermEig  # and its eigendecomposition


def _szego(t: OperatorTuple, tol: float) -> _Szego:
    defect = szego_defect(t)
    eig = matcore.herm_eig(defect, 1e-8)
    min_eig = _min_eig(eig)
    return _Szego(SzegoCheck(min_eig >= -tol, min_eig), defect, eig)


def is_szego(t: OperatorTuple, tol: float = CERT_TOL) -> SzegoCheck:
    """Positivity of the Szego defect, reported with its smallest eigenvalue."""
    return _szego(t, tol).check


def _radius_iterates(m: np.ndarray) -> Iterator[float]:
    """||M^(2^k)||^(1/2^k) for k = 1..8, each an upper bound for the
    spectral radius of M, by repeated squaring; an exact zero power, after
    which every iterate is zero, ends them."""
    for k in range(1, 9):
        m = m @ m
        norm = operator_norm(m)
        yield norm ** (1.0 / 2.0**k)
        if norm == 0.0:
            return


def spectral_radius(m) -> float:
    """Upper estimate of the spectral radius: the smallest of ||M|| and the
    ``_radius_iterates``.

    Every iterate is an upper bound, so the smallest one keeps purity tests
    on the safe side.  All of them are taken (short of an
    exact zero power): stopping on consecutive agreement would misread
    nilpotent shifts, whose estimates sit at 1 for several rounds before
    collapsing.
    """
    m = matcore.as_matrix(m)
    if m.shape[0] == 0:
        return 0.0
    return min(operator_norm(m), *_radius_iterates(m))


def is_pure(t: OperatorTuple) -> bool:
    """True when every coordinate has spectral radius below 1 - PURE_TOL,
    that is, when its norm or one of its ``_radius_iterates`` is.  The
    norms come from one stacked SVD; the iterates are taken only for a
    coordinate whose norm does not settle it, up to the first below the
    limit."""
    limit = 1.0 - PURE_TOL
    ops = [matcore.as_matrix(m) for m in t.ops]
    if not ops:
        return True
    for b, norm in zip(ops, operator_norm(np.stack(ops)).tolist()):
        if not (norm < limit or any(x < limit for x in _radius_iterates(b))):
            return False
    return True


@dataclass(frozen=True)
class DilationCertificate:
    """Validated membership data for a tuple T.

    ``g`` are the supplied positive operators, ``f`` their derived defect
    square roots F_i, ``defect`` is D for the deleted-last tuple, and the
    frames are orthonormal bases of ran F_i and ran D in which all
    realization-side coordinates are expressed.
    """

    g: tuple[np.ndarray, ...]
    f: tuple[np.ndarray, ...]
    defect: np.ndarray
    f_frames: tuple[np.ndarray, ...]
    d_frame: np.ndarray
    sum_residual: float
    g_margins: tuple[float, ...]
    product_margins: tuple[float, ...]
    szego_min_eig: float

    @property
    def rank_d(self) -> int:
        return self.d_frame.shape[1]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(q.shape[1] for q in self.f_frames)


def _min_eig(eig: matcore.HermEig) -> float:
    w = eig.eigenvalues
    return float(w[0]) if w.size else 0.0


def verify_certificate(
    t: OperatorTuple, g_list: Sequence, tol: float = CERT_TOL
) -> DilationCertificate:
    """Validate a certificate {G_i} for T and derive its defect data.

    Checks, in order: the deleted-last tuple is Szego and pure; every G_i is
    Hermitian psd; the G_i sum to I - T_n T_n*; every alternating product
    applied to G_i is psd.  The matching errors identify the first failing
    condition.
    """
    if t.n < 3:
        raise DimensionMismatch("membership certification needs n >= 3")
    if len(g_list) != t.n - 1:
        raise DimensionMismatch(f"expected {t.n - 1} operators G_i, got {len(g_list)}")
    g = tuple(matcore.as_matrix(m) for m in g_list)
    for m in g:
        if m.shape != (t.dim, t.dim):
            raise DimensionMismatch("G_i blocks must match the tuple dimension")

    hat_n = hat(t, t.n)
    szego = _szego(hat_n, tol)
    if not szego.check.ok:
        raise NotSzego(szego.check.min_eig)
    if not is_pure(hat_n):
        raise NotPure(max(spectral_radius(m) for m in hat_n.ops))
    return _certificate(t, g, tol, szego)


def _certificate(
    t: OperatorTuple, g: tuple[np.ndarray, ...], tol: float, szego: _Szego
) -> DilationCertificate:
    """``verify_certificate`` after its Szego and purity checks, given the
    validated G_i and ``_szego`` of the deleted-last tuple.  Each Hermitian
    operator is eigendecomposed once, each stage in one stacked call."""
    g_margins = []
    for i, eig in enumerate(matcore.herm_eigs(np.stack(g), 1e-8)):
        me = _min_eig(eig)
        if me < -tol:
            raise GNotPsd(i + 1, me)
        g_margins.append(me)

    t_n = t.op(t.n)
    target = np.eye(t.dim, dtype=complex) - t_n @ adj(t_n)
    sum_res = operator_norm(target - sum(g))
    if sum_res > tol:
        raise SumMismatch(sum_res)

    hat_ops = t.ops[:-1]
    prods = np.stack(
        [conjugacy_product(hat_ops[:i] + hat_ops[i + 1 :], gi) for i, gi in enumerate(g)]
    )
    f = []
    product_margins = []
    for i, eig in enumerate(matcore.herm_eigs(prods, 1e-8)):
        me = _min_eig(eig)
        if me < -tol:
            raise ProductNotPsd(i + 1, me)
        product_margins.append(me)
        f.append(matcore.psd_sqrt(prods[i], tol, eig))

    defect = matcore.psd_sqrt(szego.defect, tol, szego.eig)
    *f_frames, d_frame = matcore.range_onbs(np.stack(f + [defect]), tol)
    return DilationCertificate(
        g=g,
        f=tuple(f),
        defect=defect,
        f_frames=tuple(f_frames),
        d_frame=d_frame,
        sum_residual=float(sum_res),
        g_margins=tuple(g_margins),
        product_margins=tuple(product_margins),
        szego_min_eig=szego.check.min_eig,
    )


def last_defect_certificate(t: OperatorTuple, tol: float = CERT_TOL) -> DilationCertificate:
    """Certificate with G_1 = I - T_n T_n* and G_i = 0 otherwise.

    Valid whenever both deleted-first and deleted-last tuples are Szego and
    the deleted-last tuple is pure; these hypotheses are checked explicitly
    before the standard validation runs, which reuses the deleted-last
    tuple's Szego defect and does not test it again.
    """
    if t.n < 3:
        raise DimensionMismatch("membership certification needs n >= 3")
    hat_n = hat(t, t.n)
    szego = _szego(hat_n, tol)
    if not szego.check.ok:
        raise HypothesisFailed(
            f"deleted-last tuple is not Szego (min eig {szego.check.min_eig:.3e})"
        )
    if not is_pure(hat_n):
        raise HypothesisFailed("deleted-last tuple is not pure")
    chk_1 = is_szego(hat(t, 1), tol)
    if not chk_1.ok:
        raise HypothesisFailed(f"deleted-first tuple is not Szego (min eig {chk_1.min_eig:.3e})")
    t_n = t.op(t.n)
    g1 = np.eye(t.dim, dtype=complex) - t_n @ adj(t_n)
    zeros = np.zeros((t.dim, t.dim), dtype=complex)
    return _certificate(t, (g1,) + (zeros,) * (t.n - 2), tol, szego)

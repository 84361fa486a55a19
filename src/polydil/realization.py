"""Block-unitary realization and the transfer function it generates.

``build_generating_unitary`` collects the defect data of a validated
certificate into a pair of frames, extends the forced isometry to a unitary
U on (ran D) + (sum of ran F_i), and the transfer function of U* becomes the
multiplier that lifts the last tuple coordinate through the dilation
isometry.  The rest of the module evaluates that transfer function, checks
the Schur identity and boundary innerness, splits off the unitary part of
its constant term, and runs the full intertwining verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import hardy, matcore
from .errors import (
    DimensionMismatch,
    IsometryDefect,
    NotContraction,
    NotIsometric,
    SingularResolvent,
)
from .matcore import adj, operator_norm
from .tuples import OperatorTuple, DilationCertificate, hat, spectral_radius


@dataclass(frozen=True)
class TransferRealization:
    """Blocks of U = [[A, B], [C, D]] on (ran D) + (sum ran F_i).

    ``partition`` lists the sizes of the lower-right block spaces; block i is
    driven by the i-th coordinate (the trailing block shares the last one).
    The transfer function of U* is
    Phi(z) = A* + C* E(z) (I - D* E(z))^{-1} B*.
    Compressions produced by ``split_transfer`` reuse this container without the
    unitarity property, so unitarity is checked where a realization is built.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    partition: tuple[int, ...]

    @property
    def dim_e(self) -> int:
        return self.a.shape[0]

    @property
    def dim_f(self) -> int:
        return self.d.shape[0]

    def unitary_matrix(self) -> np.ndarray:
        top = np.hstack([self.a, self.b])
        bottom = np.hstack([self.c, self.d])
        return np.vstack([top, bottom])


def unitarity_residual(r: TransferRealization) -> float:
    u = r.unitary_matrix()
    return operator_norm(adj(u) @ u - np.eye(u.shape[0]))


def _domain_image_frames(
    t: OperatorTuple, cert: DilationCertificate
) -> tuple[np.ndarray, np.ndarray, int, int]:
    dc = adj(cert.d_frame) @ cert.defect
    col_plain, col_shift = hardy.defect_block_maps(cert, t)
    e = dc.shape[0]
    f = col_plain.shape[0]
    t_n = t.op(t.n)
    domain = np.vstack([dc, col_shift])
    image = np.vstack([dc @ adj(t_n), col_plain])
    return domain, image, e, f


def build_generating_unitary(
    t: OperatorTuple,
    cert: DilationCertificate,
    tol: float = 1e-8,
    completion_order: Sequence[int] | None = None,
) -> TransferRealization:
    """Unitary U with U(D h, F_i T_i* h) = (D T_n* h, F_i h) for all h.

    The frames are collected over the standard basis of the underlying space
    and extended by the deterministic completion rule; a Gram mismatch
    between the two frames signals an invalid certificate.
    """
    domain, image, e, f = _domain_image_frames(t, cert)
    try:
        u = matcore.unitary_completion(domain, image, e + f, tol, completion_order)
    except NotIsometric as exc:
        raise IsometryDefect(exc.residual) from exc
    return TransferRealization(
        a=u[:e, :e],
        b=u[:e, e:],
        c=u[e:, :e],
        d=u[e:, e:],
        partition=cert.ranks,
    )


def generating_residual(
    t: OperatorTuple, cert: DilationCertificate, r: TransferRealization
) -> float:
    """||U(D h, F_i T_i* h) - (D T_n* h, F_i h)|| over a full basis."""
    domain, image, _, _ = _domain_image_frames(t, cert)
    return operator_norm(r.unitary_matrix() @ domain - image)


# Evaluation points per batched solve: bounds the working memory of a grid
# scan whatever the grid size.
CHUNK = 256


def _block_diagonals(partition: Sequence[int], points) -> np.ndarray:
    """The diagonals of E(z) for the rows z of a (G, m) point array."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != len(partition):
        raise DimensionMismatch("evaluation point arity does not match the partition")
    return np.repeat(pts, partition, axis=1)


def _transfer_solve(
    r: TransferRealization, zeta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi, the resolvent X = (I - D* E)^{-1} and the regular-point mask at
    the E(z) diagonals ``zeta`` (one row per point)."""
    x, regular = matcore.inv_resolvent(adj(r.d), zeta)
    phi = adj(r.a) + (adj(r.c) * zeta[:, None, :]) @ x @ adj(r.b)
    return phi, x, regular


def transfer_eval_many(
    r: TransferRealization, points
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Phi(z) = A* + C* E(z) (I - D* E(z))^{-1} B* over the rows of a (G, m)
    point array, CHUNK rows at a time.

    Yields ``(rows, phi, regular)``: the slice of ``points`` covered, Phi
    there as a (k, e, e) stack, and the mask of the points whose resolvent is
    regular.  Interior points are always regular; on the torus the resolvent
    may be singular, and there ``phi`` holds A* in place of a value.
    """
    zeta = _block_diagonals(r.partition, points)
    for start in range(0, len(zeta), CHUNK):
        rows = slice(start, start + CHUNK)
        phi, _, regular = _transfer_solve(r, zeta[rows])
        yield rows, phi, regular


def transfer_eval(r: TransferRealization, z: Sequence[complex]) -> np.ndarray:
    """Phi(z) at one point; a singular resolvent raises SingularResolvent."""
    _, phi, regular = next(transfer_eval_many(r, [z]))
    if not regular[0]:
        raise SingularResolvent(f"singular resolvent at {tuple(z)}")
    return phi[0]


def schur_identity_residual(r: TransferRealization, points) -> float:
    """Largest deviation in
    I - Phi* Phi = B (I - E* D)^{-1} (I - E* E) (I - D* E)^{-1} B*
    over the rows of a (G, m) point array, or at a single point.

    (I - E* D)^{-1} is the adjoint of the resolvent that evaluates Phi, so one
    solve per point serves both sides.
    """
    zeta = _block_diagonals(r.partition, np.atleast_2d(points))
    phi, x, regular = _transfer_solve(r, zeta)
    if not regular.all():
        raise SingularResolvent("singular resolvent at a Schur sample point")
    lhs = np.eye(r.dim_e) - adj(phi) @ phi
    mid = 1.0 - (zeta.conj() * zeta).real
    rhs = (r.b @ adj(x) * mid[:, None, :]) @ x @ adj(r.b)
    return matcore.max_operator_norm(lhs - rhs)


@dataclass(frozen=True)
class InnerReport:
    max_deviation: float
    singular_points: int
    grid_points: int


def unit_circle(grid: int) -> np.ndarray:
    """The grid-th roots of unity, from 1 counterclockwise."""
    return np.exp(2j * np.pi * np.arange(grid) / grid)


def grid_points(axis: np.ndarray, m: int) -> np.ndarray:
    """The points of axis^m as a (len(axis)^m, m) array, the last coordinate
    varying fastest; ``grid_points(unit_circle(grid), m)`` is the torus grid."""
    axes = np.meshgrid(*([axis] * m), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, m)


def inner_check(r: TransferRealization, grid: int) -> InnerReport:
    """Max over the torus grid of ||Phi(w)* Phi(w) - I||, skipping (and
    counting) points with a singular resolvent."""
    eye = np.eye(r.dim_e)
    max_dev = 0.0
    singular = 0
    points = grid_points(unit_circle(grid), len(r.partition))
    for _, phi, regular in transfer_eval_many(r, points):
        singular += int(np.count_nonzero(~regular))
        phi = phi[regular]
        max_dev = max(max_dev, matcore.max_operator_norm(adj(phi) @ phi - eye))
    return InnerReport(max_dev, singular, len(points))


# ---------------------------------------------------------------------------
# canonical (unitary / completely-non-unitary) decomposition


@dataclass(frozen=True)
class CnuDecomposition:
    h0_frame: np.ndarray
    unitary_block: np.ndarray
    h1_frame: np.ndarray
    cnu_block: np.ndarray
    offdiag_residual: float
    unitary_residual: float
    cnu_spectral_bound: float

    @property
    def h0_dim(self) -> int:
        return self.h0_frame.shape[1]


def cnu_decomposition(a, tol: float = 1e-9) -> CnuDecomposition:
    """Split a contraction into its unitary and completely-non-unitary parts.

    H0 is the intersection of the kernels of I - A*^m A^m and I - A^m A*^m
    for m = 1..dim; the compression of A to H0 is unitary and the H1
    compression has no unimodular eigenvalues (its spectral bound is
    reported for cross-checking).
    """
    m = matcore.as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("canonical decomposition needs a square matrix")
    norm = operator_norm(m)
    if norm > 1.0 + tol:
        raise NotContraction(f"norm {norm:.6f} exceeds 1")
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    stack_rows = []
    power = eye
    for _ in range(d):
        power = power @ m
        stack_rows.append(eye - adj(power) @ power)
        stack_rows.append(eye - power @ adj(power))
    stacked = np.vstack(stack_rows) if stack_rows else np.zeros((0, d), dtype=complex)
    h0 = matcore.kernel_basis(stacked, tol)
    h1 = matcore.kernel_basis(adj(h0), tol) if h0.shape[1] else np.eye(d, dtype=complex)
    if h0.shape[1] == d:
        h1 = np.zeros((d, 0), dtype=complex)
    w = adj(h0) @ m @ h0
    e_blk = adj(h1) @ m @ h1
    offdiag = 0.0
    if h0.shape[1] and h1.shape[1]:
        offdiag = max(
            operator_norm(adj(h0) @ m @ h1),
            operator_norm(adj(h1) @ m @ h0),
        )
    unit_res = operator_norm(adj(w) @ w - np.eye(h0.shape[1])) if h0.shape[1] else 0.0
    cnu_bound = float(np.max(np.abs(matcore.eigvals(e_blk)), initial=0.0))
    return CnuDecomposition(
        h0_frame=h0,
        unitary_block=w,
        h1_frame=h1,
        cnu_block=e_blk,
        offdiag_residual=offdiag,
        unitary_residual=unit_res,
        cnu_spectral_bound=cnu_bound,
    )


# ---------------------------------------------------------------------------
# Taylor expansion of the transfer function


def transfer_taylor(r: TransferRealization, cap: int) -> np.ndarray:
    """Taylor coefficients Phi_k of Phi for k in the box [0, cap]^m, as an
    array of shape (cap+1,)*m + (e, e).

    The resolvent X(z) = (I - D* E(z))^{-1} = sum_k z^k X_k obeys
    X_k = delta_{k0} I + sum_a D* P_a X_{k-e_a}, with P_a the selector of
    block a, and Phi_k = delta_{k0} A* + sum_a C* P_a X_{k-e_a} B*.  The
    recurrence runs over the total degree, all indices of one degree at once.
    """
    m = len(r.partition)
    box = (cap + 1,) * m
    index = np.indices(box).reshape(m, -1)
    degree = index.sum(axis=0)
    strides = [(cap + 1) ** (m - 1 - a) for a in range(m)]
    blocks = hardy.block_slices(r.partition)
    d_adj = adj(r.d)
    x = np.zeros((index.shape[1], r.dim_f, r.dim_f), dtype=complex)
    x[0] = np.eye(r.dim_f)
    for total in range(1, m * cap + 1):
        for a, sl in enumerate(blocks):
            rows = np.flatnonzero((degree == total) & (index[a] > 0))
            x[rows] += d_adj[:, sl] @ x[rows - strides[a], sl, :]
    x = x.reshape(box + x.shape[1:])
    phi = np.zeros(box + (r.dim_e, r.dim_e), dtype=complex)
    phi[(0,) * m] = adj(r.a)
    c_adj, b_adj = adj(r.c), adj(r.b)
    for a, sl in enumerate(blocks):
        up = (slice(None),) * a + (slice(1, None),)
        down = (slice(None),) * a + (slice(None, cap),)
        phi[up] += c_adj[:, sl] @ x[down][..., sl, :] @ b_adj
    return phi


# ---------------------------------------------------------------------------
# dilation-level identity checks


def _tail(hat_t: OperatorTuple, cap: int, dim: int) -> tuple[float, float]:
    """The largest spectral radius of the hat-tuple and the tail bound it gives."""
    rho = max(spectral_radius(m) for m in hat_t.ops) if hat_t.ops else 0.0
    return rho, hardy.tail_tolerance(rho, cap, np.sqrt(dim))


def _lifting(
    t: OperatorTuple, pi: hardy.CoefficientEmbedding, phi: np.ndarray, cap: int
) -> float:
    rhs = np.zeros_like(pi.coeffs)
    for j in np.ndindex(*phi.shape[:-2]):
        head = tuple(slice(0, cap + 1 - x) for x in j)
        tail = tuple(slice(x, cap + 1) for x in j)
        rhs[head] += adj(phi[j]) @ pi.coeffs[tail]
    lhs = pi.coeffs @ adj(t.op(t.n))
    return matcore.max_operator_norm(lhs - rhs)


def lifting_residual(
    t: OperatorTuple,
    cert: DilationCertificate,
    r: TransferRealization,
    cap: int,
) -> tuple[float, float]:
    """Residual and tail bound for the commutant lifting  M_Phi* Pi = Pi T_n*.

    Verified coefficientwise: for every k in the box the coefficient of
    Pi T_n* is compared against sum_j Phi_j* Pi_{k+j}, a correlation of the
    Taylor tensor of Phi with the coefficient tensor of Pi over the shifts j
    in the box.  Every pairing inside the box is present, so only the
    genuine infinite tail is dropped.
    """
    hat_t = hat(t, t.n)
    pi = hardy.canonical_isometry(hat_t, cert.defect, cert.d_frame, cap)
    return _lifting(t, pi, transfer_taylor(r, cap), cap), _tail(hat_t, cap, t.dim)[1]


def _strict_multiplier(
    hat_t: OperatorTuple,
    cert: DilationCertificate,
    r: TransferRealization,
    pi: hardy.CoefficientEmbedding,
    phi: np.ndarray,
) -> float:
    col_plain, _ = hardy.defect_block_maps(cert, hat_t)
    b_adj = adj(r.b)
    lhs = sum(
        op @ adj(col_plain[sl]) @ b_adj[sl]
        for op, sl in zip(hat_t.ops, hardy.block_slices(cert.ranks))
    )
    strict = phi.copy()  # the suite shares phi with the lifting row
    strict[(0,) * hat_t.n] = 0.0
    rhs = adj(pi.coeffs.reshape(-1, hat_t.dim)) @ strict.reshape(-1, r.dim_e)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=0), initial=0.0))


def strict_multiplier_residual(
    t: OperatorTuple,
    cert: DilationCertificate,
    r: TransferRealization,
    cap: int,
) -> tuple[float, float]:
    """Residual of the strict-part multiplier identity.

    Feeding a constant through the B*-block, the block shift and the
    block-column pullback must agree with the dilation-isometry adjoint of
    the multiplier by the strictly-positive-degree part of the transfer
    function, sum_{k != 0} Pi_k* Phi_k; the gap is the multiplier's Taylor
    tail beyond the cap.
    """
    hat_t = hat(t, t.n)
    pi = hardy.canonical_isometry(hat_t, cert.defect, cert.d_frame, cap)
    res = _strict_multiplier(hat_t, cert, r, pi, transfer_taylor(r, cap))
    return res, _tail(hat_t, cap, t.dim)[1]


# ---------------------------------------------------------------------------
# the full verification suite


@dataclass(frozen=True)
class CheckRow:
    name: str
    residual: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.bound


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[CheckRow, ...]
    cap: int
    taylor_cap: int
    rho: float
    inner_singular: int
    inner_total: int

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def row(self, name: str) -> CheckRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def run_identity_suite(
    t: OperatorTuple,
    cert: DilationCertificate,
    r: TransferRealization | None = None,
    cap: int = hardy.DEFAULT_CAP,
    schur_points: int = 100,
    inner_grid: int = 32,
    seed: int = 0,
) -> VerificationReport:
    """Evaluate every intertwining identity the dilation construction asserts.

    The Hardy-side rows compare coefficient tensors over the box
    [0, cap]^m, and the Taylor rows use the transfer function's Taylor
    tensor on the same box; ``taylor_cap`` reports m * cap, the highest
    total degree in it.  Residuals are compared against the geometric tail
    bound padded with an absolute floor of 1e-10; nilpotent tuples have zero
    tails, so there the checks are effectively exact.
    """
    if r is None:
        r = build_generating_unitary(t, cert)
    hat_t = hat(t, t.n)
    cap = hardy.effective_cap(hat_t, cap)
    m_vars = hat_t.n
    taylor_cap = m_vars * cap
    rho, tail = _tail(hat_t, cap, t.dim)

    pi = hardy.canonical_isometry(hat_t, cert.defect, cert.d_frame, cap)
    j_map = hardy.tuple_embedding(hat_t, cap)

    rows: list[CheckRow] = []
    rows.append(CheckRow("generating_identity", generating_residual(t, cert, r), 1e-9))
    rows.append(CheckRow("unitarity", unitarity_residual(r), 1e-10))

    defect_max = max(abs(pi.isometry_defect(h)) for h in np.eye(t.dim))
    rows.append(CheckRow("pi_isometry_defect", defect_max, tail))

    rows.append(CheckRow("intertwine_mz", hardy.intertwine_mz_residual(pi, hat_t), 1e-12))
    rows.append(
        CheckRow("defect_embedding", hardy.defect_embedding_residual(pi, j_map, cert), 1e-10)
    )

    shifted, plain = hardy.block_pullback_residuals(hat_t, cert, j_map, cap)
    rows.append(CheckRow("block_pullback_shifted", shifted, tail))
    rows.append(CheckRow("block_pullback_plain", plain, tail))
    rows.append(CheckRow("adjoint_monomial", hardy.adjoint_monomial_residual(pi, cert, cap), tail))
    colligation = hardy.colligation_pullback_residual(hat_t, cert, pi, j_map, r.c, r.d, cap)
    rows.append(CheckRow("colligation_pullback", colligation, tail))

    phi = transfer_taylor(r, cap)
    rows.append(CheckRow("strict_multiplier", _strict_multiplier(hat_t, cert, r, pi, phi), tail))
    rows.append(CheckRow("lifting", _lifting(t, pi, phi, cap), tail))

    # drawn point by point, m radii then m angles, so the seed fixes the points
    draws = np.random.default_rng(seed).uniform(0, 1, size=(schur_points, 2, m_vars))
    radii = 0.95 * np.sqrt(draws[:, 0])
    angles = 2 * np.pi * draws[:, 1]
    schur_max = schur_identity_residual(r, radii * np.exp(1j * angles))
    rows.append(CheckRow("schur_identity", schur_max, 1e-9))

    inner = inner_check(r, inner_grid)
    rows.append(CheckRow("inner_deviation", inner.max_deviation, 1e-7))
    rows.append(
        CheckRow(
            "inner_singular_fraction",
            inner.singular_points / inner.grid_points,
            0.01,
        )
    )

    return VerificationReport(
        rows=tuple(rows),
        cap=cap,
        taylor_cap=taylor_cap,
        rho=rho,
        inner_singular=inner.singular_points,
        inner_total=inner.grid_points,
    )

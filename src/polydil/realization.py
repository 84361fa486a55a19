"""Block-unitary realization and the transfer function it generates.

``build_generating_unitary`` collects the defect data of a validated
certificate into a pair of frames, extends the forced isometry to a unitary
U on (ran D) + (sum of ran F_i), and the transfer function of U* becomes the
multiplier that lifts the last tuple coordinate through the dilation
isometry.  The rest of the module evaluates that transfer function, checks
the Schur identity and boundary innerness, splits off the unitary part of
its constant term, and runs the full intertwining verification suite.

Phi has two evaluation paths.  ``transfer_eval`` and the Schur identity
solve the full resolvent at each point (``matcore.inv_resolvent``).
``transfer_eval_grid`` takes a product grid axis^m (the torus grid of
``inner_check`` and the torus cache, or the interior grid of variety
sampling): fixing the first m - 1 variables at a base point leaves a
one-variable colligation on the last block's state, built once per base
point and solved at each grid point.  It holds every point to the
regular-point rule of ``inv_resolvent`` through exact upper bounds and
hands each point that fails them, or that meets a zero pivot, to
``inv_resolvent``.  A null vector of the base block is harmless: for a
contractive D* and unimodular E it is reducing, so the full system is
singular on that whole fiber, and ``inv_resolvent`` says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import matcore
from .errors import DimensionMismatch, NotContractive, NotPure, SingularResolvent
from .matcore import adj, operator_norm
from .tuples import PURE_TOL, OperatorTuple, DilationCertificate, hat, spectral_radius


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


def _frame_maps(
    cert: DilationCertificate, t: OperatorTuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M = frame* D and the stacked block columns h -> (F_i h) and
    h -> (F_i T_i* h), every row in the certificate frames: maps from C^d
    into ran D and into the direct sum of the ran F_i.  Only the first n - 1
    coordinates of ``t`` are used."""
    plain = [adj(q) @ f for f, q in zip(cert.f, cert.f_frames)]
    shift = [block @ adj(op) for block, op in zip(plain, t.ops)]
    return adj(cert.d_frame) @ cert.defect, np.vstack(plain), np.vstack(shift)


def _domain_image_frames(
    t: OperatorTuple, cert: DilationCertificate
) -> tuple[np.ndarray, np.ndarray, int, int]:
    dc, col_plain, col_shift = _frame_maps(cert, t)
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
    between the two frames signals an invalid certificate (NotIsometric).
    """
    domain, image, e, f = _domain_image_frames(t, cert)
    u = matcore.unitary_completion(domain, image, e + f, tol, completion_order)
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
    """Phi, Y = (I - D* E)^{-1} B* and the regular-point mask at the E(z)
    diagonals ``zeta`` (one row per point): one solve per point for the e
    columns of B*, then Phi = A* + C* E Y."""
    y, regular = matcore.inv_resolvent(adj(r.d), zeta, adj(r.b))
    phi = adj(r.a) + (adj(r.c) * zeta[:, None, :]) @ y
    return phi, y, regular


def transfer_eval(r: TransferRealization, z: Sequence[complex]) -> np.ndarray:
    """Phi(z) at one point; a singular resolvent raises SingularResolvent."""
    phi, _, regular = _transfer_solve(r, _block_diagonals(r.partition, [z]))
    if not regular[0]:
        raise SingularResolvent(f"singular resolvent at {tuple(z)}")
    return phi[0]


def schur_identity_residual(r: TransferRealization, points) -> float:
    """Largest deviation in
    I - Phi* Phi = B (I - E* D)^{-1} (I - E* E) (I - D* E)^{-1} B*
    over the rows of a (G, m) point array, or at a single point.

    (I - E* D)^{-1} is the adjoint of the resolvent that evaluates Phi, so
    the right side is Y* (I - E* E) Y with the same Y = (I - D* E)^{-1} B*:
    one solve per point serves both sides.
    """
    zeta = _block_diagonals(r.partition, np.atleast_2d(points))
    phi, y, regular = _transfer_solve(r, zeta)
    if not regular.all():
        raise SingularResolvent("singular resolvent at a Schur sample point")
    lhs = np.eye(r.dim_e) - adj(phi) @ phi
    mid = 1.0 - (zeta.conj() * zeta).real
    rhs = (adj(y) * mid[:, None, :]) @ y
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
    varying fastest; ``grid_points(unit_circle(grid), m)`` is the torus grid.
    For m = 0 it is the one empty point."""
    if m == 0:
        return np.zeros((1, 0), dtype=axis.dtype)
    axes = np.meshgrid(*([axis] * m), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, m)


def _base_colligation(r: TransferRealization, zr: np.ndarray):
    """The one-variable colligations left by fixing the first m - 1
    variables at base points, the rows of ``zr`` being their E_R diagonals.

    R is the state of blocks 1..m-1, L that of the last block (size p).  One
    solve of M_RR = I - D*_RR E_R against [B*_R | D*_RL] gives H = [Y0 | G],
    and [alpha | beta] = [A* | C*_L] + C*_R E_R H,
    [gamma | delta] = [B*_L | D*_LL] + D*_LR E_R H.  Returns H, the mask of
    LUs without a zero pivot, the two rows, and the Frobenius norms of Y0,
    G, r0 = M_RR Y0 - B*_R and r1 = M_RR G - D*_RL as a (4, bases) array.
    """
    e, fr = r.dim_e, r.dim_f - r.partition[-1]
    a_adj, b_adj, c_adj, d_adj = adj(r.a), adj(r.b), adj(r.c), adj(r.d)
    base_rhs = np.hstack([b_adj[:fr], d_adj[:fr, fr:]])
    m_rr = np.eye(fr) - d_adj[:fr, :fr] * zr[:, None, :]
    h, solved = matcore.solve_stack(m_rr, np.broadcast_to(base_rhs, (len(zr),) + base_rhs.shape))
    # overflow leaves non-finite norms, which fail the bounds
    with np.errstate(over="ignore", invalid="ignore"):
        eh = zr[:, :, None] * h
        top = np.hstack([a_adj, c_adj[:, fr:]]) + c_adj[:, :fr] @ eh
        low = np.hstack([b_adj[fr:], d_adj[fr:, fr:]]) + d_adj[fr:, :fr] @ eh
        sq = np.stack([h, m_rr @ h - base_rhs])
        sq = sq.real**2 + sq.imag**2
        y_sq, g_sq = sq[..., :e].sum(axis=(-2, -1)), sq[..., e:].sum(axis=(-2, -1))
    return h, solved, top, low, np.sqrt([y_sq[0], g_sq[0], y_sq[1], g_sq[1]])


def _fiber_eval(top: np.ndarray, low: np.ndarray, norms: np.ndarray, lam: np.ndarray):
    """Phi at the fiber points ``lam`` over each base of ``_base_colligation``,
    with bounds on the full system, arrays indexed (base, fiber) first.

    (I - lambda delta) w = gamma gives Phi = alpha + lambda beta w and the
    full narrow resolvent Y = (Y0 + lambda G w, w), whose residual is, in
    exact arithmetic, (r0 + lambda r1 w, (I - lambda delta) w - gamma) for
    any Y0, G and w.  Returns w, Phi, the mask of LUs without a zero pivot,
    and the bounds ||Y0|| + |lambda| ||G|| ||w|| + ||w|| on ||Y||_F and
    ||r0|| + |lambda| ||r1|| ||w|| + ||(I - lambda delta) w - gamma|| on the
    residual, all Frobenius norms.
    """
    e, p = top.shape[-2], low.shape[-2]
    nb, nl = len(top), len(lam)
    gamma, delta = low[..., :e], low[..., e:]
    # overflow leaves a non-finite w, which fails the bounds
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.eye(p) - lam[:, None, None] * delta[:, None]
        w, solved = matcore.solve_stack(n, np.broadcast_to(gamma[:, None], (nb, nl, p, e)))
        # lambda w with the fiber index inside the columns: one GEMM per base
        lw = (lam[:, None, None] * w).transpose(0, 2, 1, 3).reshape(nb, p, nl * e)
        prod = (top[..., e:] @ lw).reshape(nb, e, nl, e).transpose(0, 2, 1, 3)
        phi = np.add(top[:, None, :, :e], prod, order="C")  # so the (k, e, e) reshape is a view
        fiber_res = w - gamma[:, None] - (delta @ lw).reshape(nb, p, nl, e).transpose(0, 2, 1, 3)
        sq = np.stack([w, fiber_res])
        w_norm, fiber_norm = np.sqrt((sq.real**2 + sq.imag**2).sum(axis=(-2, -1)))
        y0_norm, g_norm, r0, r1 = norms[..., None]
        y_bound = y0_norm + (np.abs(lam) * g_norm + 1.0) * w_norm
        res_bound = r0 + np.abs(lam) * r1 * w_norm + fiber_norm
    return w, phi, solved, y_bound, res_bound


def transfer_eval_grid(
    r: TransferRealization, axis: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Phi over the product grid ``grid_points(axis, m)`` as ``(rows, phi,
    regular)``: the grid rows covered, Phi there as a (k, e, e) stack, and
    the regular-point mask; at the other points ``phi`` holds A*.  A chunk
    holds whole fibers, at most CHUNK points, or CHUNK points of one longer
    fiber.  No per-point array is f rows tall.

    A point is regular by the rule of ``matcore.inv_resolvent`` for the full
    system at its default tolerance, through the bounds of ``_fiber_eval``:
    ||Y||_F <= 1/tol and the residual within tol.  A point that fails a
    bound, or whose base or fiber solve meets a zero pivot, is solved again
    by ``inv_resolvent`` and takes its verdict.
    """
    axis = np.asarray(axis, dtype=complex)
    k, tol = len(axis), matcore.RESOLVENT_TOL
    if k == 0:
        return
    bases = _block_diagonals(r.partition[:-1], grid_points(axis, len(r.partition) - 1))
    per = max(1, CHUNK // k)
    for b0 in range(0, len(bases), per):
        zr = bases[b0 : b0 + per]  # the diagonals of E_R(z')
        _, base_solved, top, low, norms = _base_colligation(r, zr)
        for l0 in range(0, k, CHUNK):
            lam = axis[l0 : l0 + CHUNK]
            _, phi, solved, y_bound, res_bound = _fiber_eval(top, low, norms, lam)
            ok = base_solved[:, None] & solved & (y_bound <= 1.0 / tol) & (res_bound <= tol)
            ok, phi = ok.ravel(), phi.reshape(ok.size, r.dim_e, r.dim_e)
            if not ok.all():
                bad = ~ok
                ib, il = np.divmod(np.flatnonzero(bad), len(lam))
                zeta = np.hstack([zr[ib], np.repeat(lam[il, None], r.partition[-1], axis=1)])
                phi[bad], _, ok[bad] = _transfer_solve(r, zeta)
            yield slice(b0 * k + l0, b0 * k + l0 + len(ok)), phi, ok


def inner_check(r: TransferRealization, grid: int) -> InnerReport:
    """Max over the torus grid of ||Phi(w)* Phi(w) - I||, skipping (and
    counting) points with a singular resolvent."""
    eye = np.eye(r.dim_e)
    max_dev = 0.0
    singular = 0
    total = grid ** len(r.partition)
    # buffers for conj(Phi) and Phi* Phi - I: fresh chunk-sized arrays make
    # glibc trim and regrow its heap, one page fault per page, every chunk
    conj = np.empty((min(CHUNK, total), r.dim_e, r.dim_e), dtype=complex)
    gram = np.empty_like(conj)
    for _, phi, regular in transfer_eval_grid(r, unit_circle(grid)):
        if not regular.all():
            singular += int(np.count_nonzero(~regular))
            phi = phi[regular]
        k = len(phi)
        np.conjugate(phi, out=conj[:k])
        np.matmul(conj[:k].swapaxes(-1, -2), phi, out=gram[:k])
        gram[:k] -= eye
        max_dev = max(max_dev, matcore.max_operator_norm(gram[:k], max_dev))
    return InnerReport(max_dev, singular, total)


# ---------------------------------------------------------------------------
# canonical (unitary / completely-non-unitary) decomposition


@dataclass(frozen=True)
class CnuDecomposition:
    h0_frame: np.ndarray
    unitary_block: np.ndarray
    h1_frame: np.ndarray
    cnu_block: np.ndarray

    @property
    def h0_dim(self) -> int:
        return self.h0_frame.shape[1]


def cnu_decomposition(a) -> CnuDecomposition:
    """Split a contraction into its unitary and completely-non-unitary parts.

    H0 is the intersection of the kernels of I - A*^m A^m and I - A^m A*^m
    for m = 1..dim; the compression of A to H0 is unitary, the H1
    compression has no unimodular eigenvalues, and H0 reduces A.  For a
    contraction both operators grow with m in the psd order, so their
    kernels shrink, and H0 is the kernel of the pair at m = dim.  Norm and
    kernel decisions use the tolerance 1e-9.
    """
    tol = 1e-9
    m = matcore.as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("canonical decomposition needs a square matrix")
    norm = operator_norm(m)
    if norm > 1.0 + tol:
        raise NotContractive(1, norm)
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    power = np.linalg.matrix_power(m, d)
    h0 = matcore.kernel_basis(np.vstack([eye - adj(power) @ power, eye - power @ adj(power)]), tol)
    h1 = matcore.kernel_basis(adj(h0), tol)
    return CnuDecomposition(
        h0_frame=h0,
        unitary_block=adj(h0) @ m @ h0,
        h1_frame=h1,
        cnu_block=adj(h1) @ m @ h1,
    )


# ---------------------------------------------------------------------------
# the commutant lifting, as one finite identity


def _lifting_residuals(
    t: OperatorTuple, cert: DilationCertificate, r: TransferRealization
) -> tuple[float, float]:
    """Residuals of the strict-part multiplier identity and of the commutant
    lifting  M_Phi* Pi = Pi T_n*, both without truncation.

    With M = frame* D the dilation isometry has the coefficients
    Pi_k = M T*^k over the hat coordinates.  Those commute, so the lifting
    holds at every k once it holds at k = 0:  T_n M* = sum_j T^j M* Phi_j.
    The Taylor coefficients of Phi = A* + C* E (I - D* E)^{-1} B* turn the
    right side into  M* A* + Y B*,  where Y = sum_a T_a Z_a and Z_a solves
    the Stein system  Z - L(Z) = M* C* P_a  with  L(Z) = sum_b T_b Z D* P_b
    and P_b the selector of block b.  L commutes with left multiplication
    by each T_a, so Y solves the one system
    Y - L(Y) = G = sum_a T_a M* C* P_a,  column block a of G being
    T_a (M* C*)[:, a].  Its dense matrix, of size d f, is solved once for
    that one right side; a zero pivot makes both residuals inf.

    The strict-part row compares sum_a T_a F_a* B*_a, a constant fed through
    the B*-block and the block-column pullback, with the same Y B* (the
    multiplier by the strictly-positive-degree part of Phi): in frames
    sum_a T_a F_a* P_a is S* = adj(col_shift), so the row is the largest
    column norm of (S* - Y) B*.  It reads only the lower colligation row:
    it is blind to A and B, which the lifting row  T_n M* - M* A* - Y B*
    and ``generating_identity`` read.
    """
    dim, f = t.dim, r.dim_f
    m, _, col_shift = _frame_maps(cert, t)
    m_adj = adj(m)
    d_adj, b_adj, mc = adj(r.d), adj(r.b), m_adj @ adj(r.c)
    # row-major vec(T Y K) = (T (x) K^T) vec(Y)
    system = np.eye(dim * f, dtype=complex)
    rhs = np.zeros((dim, f), dtype=complex)
    ends = np.cumsum(r.partition)
    for op, lo, hi in zip(t.ops, ends - r.partition, ends):
        block = np.zeros((f, f), dtype=complex)
        block[:, lo:hi] = d_adj[:, lo:hi]
        system -= np.kron(op, block.T)
        rhs[:, lo:hi] = op @ mc[:, lo:hi]
    y, solved = matcore.solve_stack(system, rhs.reshape(dim * f, 1))
    if not solved:
        return float("inf"), float("inf")
    y = y.reshape(dim, f)
    strict = (adj(col_shift) - y) @ b_adj
    lifting = t.op(t.n) @ m_adj - m_adj @ adj(r.a) - y @ b_adj
    return float(np.max(np.linalg.norm(strict, axis=0), initial=0.0)), operator_norm(lifting)


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
    cap: int = 12,
    schur_points: int = 100,
    inner_grid: int = 32,
    seed: int = 0,
) -> VerificationReport:
    """Evaluate every intertwining identity the dilation construction asserts.

    Every row but one is a finite identity: the generating unitary, its
    unitarity, the commutant lifting and its strict part
    (``_lifting_residuals``), the Schur identity at seeded interior points
    and innerness on the torus.  ``pi_isometry_defect`` alone reads the
    box [0, cap]^m of the dilation isometry, through its Gram operator
    (``hardy.CoefficientEmbedding``): it compares the box's loss of norm
    with its exact value, ``-<gap h, h>`` with
    ``gap = hardy.box_gap(hat T, cap)``.  Both take O(log cap) products and
    are exact at every cap, so the cap is used as given, and ``taylor_cap``
    reports m * cap, the highest total degree in the box.  A deleted-last
    tuple that is not pure, rho >= 1 - PURE_TOL, raises NotPure(rho).
    """
    from . import hardy

    if r is None:
        r = build_generating_unitary(t, cert)
    hat_t = hat(t, t.n)
    m_vars = hat_t.n
    taylor_cap = m_vars * cap
    rho = max(spectral_radius(m) for m in hat_t.ops)

    if rho >= 1.0 - PURE_TOL:
        raise NotPure(rho)
    pi = hardy.CoefficientEmbedding(hat_t, _frame_maps(cert, t)[0], cap)

    rows: list[CheckRow] = []
    rows.append(CheckRow("generating_identity", generating_residual(t, cert, r), 1e-9))
    rows.append(CheckRow("unitarity", unitarity_residual(r), 1e-10))

    gap = hardy.box_gap(hat_t, cap).diagonal().real
    defect_max = max(abs(pi.isometry_defect(h) + float(g)) for h, g in zip(np.eye(t.dim), gap))
    rows.append(CheckRow("pi_isometry_defect", defect_max, 1e-10))

    strict, lifting = _lifting_residuals(t, cert, r)
    rows.append(CheckRow("strict_multiplier", strict, 1e-10))
    rows.append(CheckRow("lifting", lifting, 1e-10))

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

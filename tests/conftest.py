import functools
import itertools
import re

import numpy as np
import pytest

from polydil import generators, matcore, realization as rz, tuples, vonneumann as vn
from polydil.errors import (
    DimensionMismatch,
    GNotPsd,
    HypothesisFailed,
    NotCommuting,
    NotContractive,
    NotHermitian,
    NotPsd,
    NotPure,
    NotSzego,
    ParseError,
    PolydilError,
    ProductNotPsd,
    SumMismatch,
)
from polydil.matcore import adj


class DegenerateLeadingCoefficient(PolydilError):
    pass


def poly_roots(coeffs) -> np.ndarray:
    """All roots (with multiplicity) of a polynomial.

    Coefficients are ordered from the highest degree down.  Roots are
    returned sorted by (real, imag) so the multiset has a canonical order.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise DegenerateLeadingCoefficient("empty coefficient list")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0 or abs(c[0]) <= 1e-14 * scale:
        raise DegenerateLeadingCoefficient(
            f"leading coefficient {c[0]} is degenerate at scale {scale:.3e}"
        )
    if c.size == 1:
        return np.zeros(0, dtype=complex)
    roots = np.roots(c)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zero_triple(d=2):
    z = np.zeros((d, d))
    t = tuples.make_tuple([z, z, z])
    return t, tuples.last_defect_certificate(t)


def constant_realization(u, var_count=2):
    """Decoupled realization: B, C empty, so Phi is constantly A*."""
    e = u.shape[0]
    return rz.TransferRealization(
        a=u,
        b=np.zeros((e, 0), dtype=complex),
        c=np.zeros((0, e), dtype=complex),
        d=np.zeros((0, 0), dtype=complex),
        partition=(0,) * var_count,
    )


def direct_sum_constant(r, u):
    """r with the 1x1 unimodular constant u added to its E-space: Phi (+) conj(u)."""
    e, f = r.dim_e, r.dim_f
    a = np.zeros((e + 1, e + 1), dtype=complex)
    a[:e, :e], a[e, e] = r.a, u
    return rz.TransferRealization(
        a=a,
        b=np.vstack([r.b, np.zeros((1, f))]),
        c=np.hstack([r.c, np.zeros((f, 1))]),
        d=r.d,
        partition=r.partition,
    )


def transfer_eval_many(r, points):
    """Phi(z) = A* + C* E(z) (I - D* E(z))^{-1} B* over the rows of a (G, m)
    point array, CHUNK rows at a time, each point by its own full resolvent
    solve (``matcore.inv_resolvent``): the direct-path oracle for
    ``rz.transfer_eval_grid``.

    Yields ``(rows, phi, regular)``: the slice of ``points`` covered, Phi
    there as a (k, e, e) stack, and the mask of the points whose resolvent is
    regular; at the others ``phi`` holds A* in place of a value.
    """
    zeta = rz._block_diagonals(r.partition, points)
    for start in range(0, len(zeta), rz.CHUNK):
        rows = slice(start, start + rz.CHUNK)
        phi, _, regular = rz._transfer_solve(r, zeta[rows])
        yield rows, phi, regular


def svd_torus_sup(p, r, points):
    """max over the rows zeta of ``points`` of ||P(zeta_1 I, ..., zeta_m I,
    Phi(zeta))||, with Phi from ``transfer_eval_many`` and one SVD per
    point: the reference for the fiber maximum of ``vonneumann.torus_sup``."""
    phi = []
    for _, stack, regular in transfer_eval_many(r, points):
        assert regular.all()
        phi.append(stack)
    phi = np.concatenate(phi)
    acc = np.zeros_like(phi)
    for k, a in p.terms.items():
        scalar = a * np.prod(points ** np.array(k[:-1]), axis=1)
        acc += scalar[:, None, None] * np.linalg.matrix_power(phi, k[-1])
    return float(np.max(matcore.operator_norm(acc), initial=0.0))


def oracle_base_coefficients(p, points):
    """c_j(zeta) = sum_{k, k_n = j} a_k zeta^khat as a (G, deg_n+1) array
    at the rows of a (G, n-1) point array: the reference for the coefficient
    grid of ``vonneumann``."""
    deg_n = max((k[-1] for k in p.terms), default=0)
    g = points.shape[0]
    out = np.zeros((g, deg_n + 1), dtype=complex)
    for k, a in p.terms.items():
        w = np.full(g, a, dtype=complex)
        for axis in range(p.nvars - 1):
            if k[axis]:
                w = w * points[:, axis] ** k[axis]
        out[:, k[-1]] += w
    return out


def oracle_fiber_max(coeffs, fibers):
    """max of |sum_j c_gj lambda^j| over the rows g of ``coeffs`` and the
    lambda in row g of ``fibers``, the powers formed in each row."""
    vals, fiber_pow = np.zeros(fibers.shape, dtype=complex), np.ones(fibers.shape, dtype=complex)
    for j in range(coeffs.shape[1]):
        vals += coeffs[:, j, None] * fiber_pow
        fiber_pow = fiber_pow * fibers
    return float(np.max(np.abs(vals), initial=0.0))


def full_grid_sup(p, grid):
    """The fiber maximum over every row of the grid^n torus grid, the last
    coordinate read off each row and its powers formed in each row: the
    reference for ``polydisc_grid_sup``."""
    points = rz.grid_points(rz.unit_circle(grid), p.nvars).reshape(-1, grid, p.nvars)
    return oracle_fiber_max(oracle_base_coefficients(p, points[:, 0, :-1]), points[:, :, -1])


def oracle_eval_poly_tuple(p, t):
    """P(T) with every power list and every term's product started at I:
    the reference for ``vonneumann.eval_poly_tuple``."""
    d = t.dim
    pows = []
    for i in range(t.n):
        max_e = max((k[i] for k in p.terms), default=0)
        lst = [np.eye(d, dtype=complex)]
        for _ in range(max_e):
            lst.append(lst[-1] @ t.ops[i])
        pows.append(lst)
    out = np.zeros((d, d), dtype=complex)
    for k, a in p.terms.items():
        m = np.eye(d, dtype=complex)
        for i, e in enumerate(k):
            if e:
                m = m @ pows[i][e]
        out += a * m
    return out


def oracle_vn_check(p, t, cert, grid=32, realization=None, cache=None, split=None):
    """``vonneumann.vn_check`` with two coefficient passes: the torus scan on
    the coefficients at the cached regular points, the polydisc maximum over
    the full grid^n torus grid."""
    if realization is None:
        realization = rz.build_generating_unitary(t, cert)
    if cache is None or cache.grid != grid:
        cache = vn.precompute_torus(realization, grid)
    if split is None:
        split = vn.split_transfer(realization)
    lhs = matcore.operator_norm(oracle_eval_poly_tuple(p, t))
    rhs = oracle_fiber_max(oracle_base_coefficients(p, cache.points), cache.eigs)
    poly_sup = max(full_grid_sup(p, grid), rhs)
    return vn.VNReport(
        lhs=float(lhs),
        rhs=rhs,
        margin=float(rhs - lhs),
        grid=grid,
        singular_points=cache.singular_points,
        h0_dim=split.h0_dim,
        polydisc_sup=float(poly_sup),
    )


def oracle_operator_torus_sup(p, r, grid):
    """max over the regular points zeta of the grid^(n-1) torus base grid of
    ||P(zeta_1 I, ..., zeta_{n-1} I, Phi(zeta))||, the operator formed by
    Horner in Phi(zeta) from ``rz.transfer_eval_grid`` with the base
    coefficients of ``oracle_base_coefficients``, and its norm by SVD
    (``matcore.max_operator_norm``): the cross-check of ``torus_sup``
    through the operator rather than its eigenvalues."""
    circle = rz.unit_circle(grid)
    points = rz.grid_points(circle, p.nvars - 1)
    best = 0.0
    for rows, phi, regular in rz.transfer_eval_grid(r, circle):
        coeffs = oracle_base_coefficients(p, points[rows][regular])
        phi, eye = phi[regular], np.eye(r.dim_e)
        acc = coeffs[:, -1, None, None] * eye
        for j in range(coeffs.shape[1] - 2, -1, -1):
            acc = acc @ phi + coeffs[:, j, None, None] * eye
        best = max(best, matcore.max_operator_norm(acc))
    return best


def oracle_precompute_torus(r, grid):
    """``vn.precompute_torus`` as one serial loop on the calling thread: one
    ``matcore.eigvals`` call per chunk of ``rz.transfer_eval_grid``."""
    circle = rz.unit_circle(grid)
    points = rz.grid_points(circle, len(r.partition))
    eigs = np.empty((len(points), r.dim_e), dtype=complex)
    regular = np.empty(len(points), dtype=bool)
    for rows, phi, regular_rows in rz.transfer_eval_grid(r, circle):
        eigs[rows] = matcore.eigvals(phi)
        regular[rows] = regular_rows
    singular = len(points) - int(np.count_nonzero(regular))
    return vn.TorusCache(points[regular], eigs[regular], singular, grid, regular)


def oracle_variety_sample(r, grid_per_axis=17, radius=0.95, root_tol=matcore.ROOT_TOL):
    """``vn.variety_sample`` as one serial loop on the calling thread, with no
    point budget: per chunk of ``rz.transfer_eval_grid``, one
    ``matcore.eigvals`` call and one ``matcore.det`` stack per fiber index."""
    split = vn.split_transfer(r)
    w = split.unitary_block
    w_lam = matcore.eigvals(w)
    w_res = np.abs(matcore.det(w_lam[:, None, None] * np.eye(split.h0_dim) - w))
    w_bound = root_tol * (1.0 + matcore.operator_norm(w)) ** max(split.h0_dim, 1)
    coords = np.linspace(-radius, radius, grid_per_axis)
    disc = np.empty((grid_per_axis, grid_per_axis), dtype=complex)
    disc.real, disc.imag = coords[:, None], coords[None, :]
    m_vars = len(r.partition)
    axis = disc[np.hypot(disc.real, disc.imag) <= radius]
    bases = rz.grid_points(axis, m_vars)
    e1 = split.cnu_part.dim_e if split.cnu_part is not None else 0
    lam = np.zeros((len(bases), e1), dtype=complex)
    res = np.zeros((len(bases), e1))
    fails = np.zeros(len(bases), dtype=bool)
    regular = np.ones(len(bases), dtype=bool)
    if split.cnu_part is not None:
        for rows, phi, regular_rows in rz.transfer_eval_grid(split.cnu_part, axis):
            lam[rows] = matcore.eigvals(phi)
            for j in range(e1):
                res[rows, j] = np.abs(matcore.det(lam[rows, j, None, None] * np.eye(e1) - phi))
            worst = np.fmax.reduce(res[rows], axis=1)
            fails[rows] = vn._fiber_bound_fails(worst, phi, root_tol)
            regular[rows] = regular_rows
    fields = [("base", complex, (m_vars,)), ("fiber", complex), ("component", "U2"),
              ("residual", float), ("interior", bool)]
    points = np.zeros((np.count_nonzero(regular), e1 + split.h0_dim), dtype=fields)
    points["base"] = bases[regular, None]
    points["fiber"][:, :e1], points["fiber"][:, e1:] = lam[regular], w_lam
    points["residual"][:, :e1], points["residual"][:, e1:] = res[regular], w_res
    points["component"][:, :e1], points["component"][:, e1:] = "V1", "V0"
    points["interior"] = np.hypot(points["fiber"].real, points["fiber"].imag) < 1.0
    v0_fails = np.any(points["residual"][:, e1:] > w_bound)
    return vn.VarietySample(
        points=points.reshape(-1),
        h0_dim=split.h0_dim,
        singular_points=int(np.count_nonzero(~regular)),
        max_residual=float(np.fmax.reduce(points["residual"].ravel(), initial=0.0)),
        residual_ok=not (np.any(fails & regular) or v0_fails),
    )


def w1_product_triple():
    """W1, the (3,3) product triple at r = 0.9 with (j,k) = (2,3)."""
    return generators.product_triple(generators.jordan_pair(3, 3, 0.9, 0.9), 2, 3)


def telescoping(n):
    """T_i = 0.9 J_2 on factor i of (C^2)^(x)(n-1), T_n = T_1 ... T_{n-1},
    with the telescoping certificate G_i = P_i (I - T_i T_i*) P_i*,
    P_i = T_1 ... T_{i-1}: d = 2^(n-1), every hat coordinate of order 2."""
    shift, eye2 = 0.9 * generators.lower_shift(2), np.eye(2)
    factors = [
        functools.reduce(np.kron, [shift if j == i else eye2 for j in range(n - 1)])
        for i in range(n - 1)
    ]
    eye = np.eye(2 ** (n - 1))
    g, prefix = [], eye
    for ti in factors:
        g.append(prefix @ (eye - ti @ adj(ti)) @ adj(prefix))
        prefix = prefix @ ti
    t = tuples.make_tuple(factors + [prefix])
    return t, tuples.verify_certificate(t, g)


def w2_tensor_jordan():
    """W2, the n = 4 telescoping tuple of dimension 8."""
    return telescoping(4)


def diagonal_triple(rng):
    """(0.5 U, 0.4 U^2, 0.35 U) for a random diagonal unitary U, with the
    last-defect certificate: pure, commuting and not nilpotent."""
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    t = tuples.make_tuple([0.5 * u, 0.4 * u @ u, 0.35 * u])
    return t, tuples.last_defect_certificate(t)


def w3_nonnormal():
    """(0.5 I + 0.5 J_9, 0, 0.3 T_1) with the last-defect certificate."""
    t1 = 0.5 * np.eye(9) + 0.5 * generators.lower_shift(9)
    pair = tuples.make_tuple([t1, np.zeros((9, 9))])
    return generators.last_defect_tuple(pair, 0.3 * t1)


# ---------------------------------------------------------------------------
# modified Gram-Schmidt oracle for matcore.unitary_completion


def _mgs_append(basis, v, thr):
    """v orthogonalized against ``basis`` by two modified Gram-Schmidt
    passes and normalized, or None when its residual is at most thr."""
    w = v.astype(complex, copy=True)
    for _ in range(2):
        for q in basis:
            w = w - np.vdot(q, w) * q
    r = float(np.linalg.norm(w))
    return None if r <= thr else w / r


def mgs_unitary_completion(dom, img, ambient_dim, tol=1e-8, completion_order=None):
    """The completion rule of ``matcore.unitary_completion`` by vector-at-a-time
    modified Gram-Schmidt, without its checks: returns U and, for the domain
    and the image basis, the standard basis indices the completion took."""
    dom, img = np.asarray(dom, dtype=complex), np.asarray(img, dtype=complex)
    col_scale = max([1.0] + list(np.linalg.norm(dom, axis=0)))
    q_dom, q_img = [], []
    for j in range(dom.shape[1]):
        v, w = dom[:, j].copy(), img[:, j].copy()
        for _ in range(2):
            for qd, qi in zip(q_dom, q_img):
                c = np.vdot(qd, v)
                v, w = v - c * qd, w - c * qi
        r = float(np.linalg.norm(v))
        if r > tol * col_scale:
            q_dom.append(v / r)
            q_img.append(w / r)
    order = range(ambient_dim) if completion_order is None else completion_order
    taken = []
    for basis in (q_dom, q_img):
        taken.append([])
        for idx in order:
            q = _mgs_append(basis, np.eye(ambient_dim)[idx], 1e-10)
            if q is not None:
                basis.append(q)
                taken[-1].append(idx)
    polished = []
    for w in q_img:
        polished.append(_mgs_append(polished, w, 0.5))
    return np.column_stack(polished) @ adj(np.column_stack(q_dom)), taken[0], taken[1]


# ---------------------------------------------------------------------------
# truncated Taylor oracles for the closed lifting rows of the identity suite


def block_slices(partition):
    """The coordinate range of each block; block a is driven by variable a."""
    ends = np.cumsum(partition)
    return [slice(end - size, end) for size, end in zip(partition, ends)]


def transfer_taylor(r, cap):
    """Taylor coefficients Phi_k of Phi for k in the box [0, cap]^m, as an
    array of shape (cap+1,)*m + (e, e).

    Y(z) = (I - D* E(z))^{-1} B* = sum_k z^k Y_k, the narrow resolvent
    that evaluates Phi, obeys Y_k = delta_{k0} B* + sum_a D* P_a Y_{k-e_a},
    with P_a the selector of block a, and Phi_k = delta_{k0} A* +
    sum_a C* P_a Y_{k-e_a}.  The recurrence runs over the total degree, all
    indices of one degree at once.
    """
    m = len(r.partition)
    box = (cap + 1,) * m
    index = np.indices(box).reshape(m, -1)
    degree = index.sum(axis=0)
    strides = [(cap + 1) ** (m - 1 - a) for a in range(m)]
    blocks = block_slices(r.partition)
    d_adj = adj(r.d)
    y = np.zeros((index.shape[1], r.dim_f, r.dim_e), dtype=complex)
    y[0] = adj(r.b)
    for total in range(1, m * cap + 1):
        for a, sl in enumerate(blocks):
            rows = np.flatnonzero((degree == total) & (index[a] > 0))
            y[rows] += d_adj[:, sl] @ y[rows - strides[a], sl, :]
    y = y.reshape(box + y.shape[1:])
    phi = np.zeros(box + (r.dim_e, r.dim_e), dtype=complex)
    phi[(0,) * m] = adj(r.a)
    c_adj = adj(r.c)
    for a, sl in enumerate(blocks):
        up = (slice(None),) * a + (slice(1, None),)
        down = (slice(None),) * a + (slice(None, cap),)
        phi[up] += c_adj[:, sl] @ y[down][..., sl, :]
    return phi


def box_coefficients(t, out_map, cap):
    """The coefficients M T*^k of h -> sum_k z^k (M T*^k h) over the box
    [0, cap]^m, as an array of shape (cap+1,)*m + (out, d), built by one
    cumulative right-multiplication per axis: the box oracle for the Gram
    operator of ``hardy.CoefficientEmbedding``."""
    coeffs = matcore.as_matrix(out_map)
    for axis, op in enumerate(t.ops):
        op_adj = adj(op)
        pows = [coeffs]
        for _ in range(cap):
            pows.append(pows[-1] @ op_adj)
        coeffs = np.stack(pows, axis=axis)
    return coeffs


def box_isometry_defect(coeffs, h):
    """||Pi h||^2 - ||h||^2 summed over the coefficients of the box."""
    image = coeffs @ h
    return float(np.vdot(image, image).real - np.vdot(h, h).real)


def _box_data(t, cert, r, cap):
    hat_t = tuples.hat(t, t.n)
    pi = box_coefficients(hat_t, adj(cert.d_frame) @ cert.defect, cap)
    return hat_t, pi, transfer_taylor(r, cap)


def truncated_lifting(t, cert, r, cap):
    """Residual of the commutant lifting  M_Phi* Pi = Pi T_n*  over the box.

    For every k in the box the coefficient of Pi T_n* is compared against
    sum_j Phi_j* Pi_{k+j}, a correlation of the Taylor tensor of Phi with the
    coefficient tensor of Pi over the shifts j in the box.  Every pairing
    inside the box is present, so only the genuine infinite tail is dropped.
    A shift whose slice of Pi is exactly zero adds exact zeros and is skipped.
    """
    _, pi, phi = _box_data(t, cert, r, cap)
    rhs = np.zeros_like(pi)
    nonzero = pi.any(axis=(-2, -1))
    for j in np.ndindex(*phi.shape[:-2]):
        head = tuple(slice(0, cap + 1 - x) for x in j)
        tail = tuple(slice(x, cap + 1) for x in j)
        if nonzero[tail].any():
            rhs[head] += adj(phi[j]) @ pi[tail]
    lhs = pi @ adj(t.op(t.n))
    return matcore.max_operator_norm(lhs - rhs)


def truncated_strict_multiplier(t, cert, r, cap):
    """Residual of the strict-part multiplier identity over the box:
    sum_a T_a F_a* B*_a against sum_{k != 0} Pi_k* Phi_k, the gap being the
    multiplier's Taylor tail beyond the cap."""
    hat_t, pi, phi = _box_data(t, cert, r, cap)
    lhs = strict_feed(hat_t, cert, r)
    phi[(0,) * hat_t.n] = 0.0
    rhs = adj(pi.reshape(-1, hat_t.dim)) @ phi.reshape(-1, r.dim_e)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=0), initial=0.0))


def strict_feed(hat_t, cert, r):
    """sum_a T_a F_a* B*_a, the constant the strict-part row feeds through
    B*, summed block by block with F_a in its frame, Q_a* F_a."""
    b_adj = adj(r.b)
    blocks = zip(hat_t.ops, cert.f, cert.f_frames, block_slices(cert.ranks))
    return sum(op @ adj(adj(q) @ f) @ b_adj[sl] for op, f, q, sl in blocks)


def oracle_lifting_residuals(t, cert, r):
    """The strict-part and lifting rows of ``rz._lifting_residuals`` from
    the m Stein systems  Z_a - sum_b T_b Z_a D* P_b = M* C* P_a,  one right
    side per hat coordinate, summed as Y = sum_a T_a Z_a afterwards; the
    strict side sum_a T_a F_a* B*_a is summed block by block from the plain
    block column.  No commutation is used, so on a commuting tuple it is an
    independent route to the one-system solve."""
    hat_t = tuples.hat(t, t.n)
    dim, f, m = t.dim, r.dim_f, hat_t.n
    m_adj = adj(adj(cert.d_frame) @ cert.defect)
    d_adj, c_adj, b_adj = adj(r.d), adj(r.c), adj(r.b)
    blocks = block_slices(r.partition)
    system = np.eye(dim * f, dtype=complex)
    rhs = np.zeros((m, dim, f), dtype=complex)
    for a, (op, sl) in enumerate(zip(hat_t.ops, blocks)):
        block = np.zeros((f, f), dtype=complex)
        block[:, sl] = d_adj[:, sl]
        system -= np.kron(op, block.T)
        rhs[a][:, sl] = m_adj @ c_adj[:, sl]
    z = np.linalg.solve(system, rhs.reshape(m, dim * f).T).T.reshape(m, dim, f)
    strict = sum(op @ z_a @ b_adj for op, z_a in zip(hat_t.ops, z))
    fed = strict_feed(hat_t, cert, r)
    strict_res = float(np.max(np.linalg.norm(fed - strict, axis=0), initial=0.0))
    lifting = t.op(t.n) @ m_adj - m_adj @ adj(r.a) - strict
    return strict_res, matcore.operator_norm(lifting)


# ---------------------------------------------------------------------------
# certification oracles: every norm by its own SVD, every Hermitian test by
# two, every operator eigendecomposed where it is tested, the Szego defect
# built twice and the deleted-last tuple checked twice by the last-defect
# certificate


def _svd_norm(a) -> float:
    m = np.asarray(a, dtype=complex)
    return 0.0 if m.size == 0 else float(np.linalg.norm(m, 2))


def oracle_herm_eig(a, tol=matcore.EIG_TOL):
    m = matcore.as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("herm_eig needs a square matrix")
    scale = _svd_norm(m)
    herm_res = _svd_norm(m - adj(m))
    if herm_res > tol * max(1.0, scale):
        raise NotHermitian(f"||A - A*|| = {herm_res:.3e} exceeds tolerance")
    w, v = np.linalg.eigh((m + adj(m)) / 2.0)
    return matcore.HermEig(w, v)


def _oracle_psd_sqrt(a, tol):
    w, v = oracle_herm_eig(a)
    if w.size and w[0] < -tol:
        raise NotPsd(float(w[0]))
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ adj(v)
    return (r + adj(r)) / 2.0


def oracle_range_onb(a, tol):
    m = matcore.as_matrix(a)
    if m.shape[1] == 0 or m.shape[0] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : int(np.sum(s > tol * max(1.0, s[0])))]


def oracle_make_tuple(matrices):
    ops = tuple(matcore.as_matrix(m) for m in matrices)
    if not ops:
        raise DimensionMismatch("a tuple needs at least one operator")
    d = ops[0].shape[0]
    for m in ops:
        if m.shape != (d, d):
            raise DimensionMismatch(f"expected {d}x{d} blocks, got {m.shape}")
    for i, m in enumerate(ops):
        norm = _svd_norm(m)
        if norm > 1.0 + tuples.CONTRACT_TOL:
            raise NotContractive(i + 1, norm)
    for i, j in itertools.combinations(range(len(ops)), 2):
        res = _svd_norm(ops[i] @ ops[j] - ops[j] @ ops[i])
        if res > tuples.COMMUTE_TOL:
            raise NotCommuting(i + 1, j + 1, res)
    return tuples.OperatorTuple(ops=ops, dim=d)


def oracle_spectral_radius(m) -> float:
    b = matcore.as_matrix(m)
    if b.shape[0] == 0:
        return 0.0
    best = _svd_norm(b)
    for k in range(1, 9):
        b = b @ b
        norm = _svd_norm(b)
        if norm == 0.0:
            return 0.0
        best = min(best, norm ** (1.0 / 2.0**k))
    return best


def oracle_is_pure(t) -> bool:
    return all(oracle_spectral_radius(m) < 1.0 - tuples.PURE_TOL for m in t.ops)


def _oracle_min_eig(m) -> float:
    w, _ = oracle_herm_eig(m, 1e-8)
    return float(w[0]) if w.size else 0.0


def _oracle_is_szego(t, tol):
    min_eig = _oracle_min_eig(tuples.szego_defect(t))
    return tuples.SzegoCheck(min_eig >= -tol, min_eig)


def oracle_verify_certificate(t, g_list, tol=tuples.CERT_TOL):
    if t.n < 3:
        raise DimensionMismatch("membership certification needs n >= 3")
    if len(g_list) != t.n - 1:
        raise DimensionMismatch(f"expected {t.n - 1} operators G_i, got {len(g_list)}")
    g = tuple(matcore.as_matrix(m) for m in g_list)
    for m in g:
        if m.shape != (t.dim, t.dim):
            raise DimensionMismatch("G_i blocks must match the tuple dimension")
    hat_n = tuples.hat(t, t.n)
    szego = _oracle_is_szego(hat_n, tol)
    if not szego.ok:
        raise NotSzego(szego.min_eig)
    if not oracle_is_pure(hat_n):
        raise NotPure(max(oracle_spectral_radius(m) for m in hat_n.ops))
    g_margins = []
    for i, gi in enumerate(g):
        me = _oracle_min_eig(gi)
        if me < -tol:
            raise GNotPsd(i + 1, me)
        g_margins.append(me)
    t_n = t.op(t.n)
    sum_res = _svd_norm(np.eye(t.dim, dtype=complex) - t_n @ adj(t_n) - sum(g))
    if sum_res > tol:
        raise SumMismatch(sum_res)
    f, product_margins = [], []
    for i, gi in enumerate(g):
        prod = tuples.conjugacy_product([t.ops[j] for j in range(t.n - 1) if j != i], gi)
        me = _oracle_min_eig(prod)
        if me < -tol:
            raise ProductNotPsd(i + 1, me)
        product_margins.append(me)
        f.append(_oracle_psd_sqrt(prod, tol))
    defect = _oracle_psd_sqrt(tuples.szego_defect(hat_n), tol)
    return tuples.DilationCertificate(
        g=g,
        f=tuple(f),
        defect=defect,
        f_frames=tuple(oracle_range_onb(fi, tol) for fi in f),
        d_frame=oracle_range_onb(defect, tol),
        sum_residual=float(sum_res),
        g_margins=tuple(g_margins),
        product_margins=tuple(product_margins),
        szego_min_eig=szego.min_eig,
    )


def oracle_last_defect_certificate(t, tol=tuples.CERT_TOL):
    if t.n < 3:
        raise DimensionMismatch("membership certification needs n >= 3")
    chk_n = _oracle_is_szego(tuples.hat(t, t.n), tol)
    if not chk_n.ok:
        raise HypothesisFailed(f"deleted-last tuple is not Szego (min eig {chk_n.min_eig:.3e})")
    if not oracle_is_pure(tuples.hat(t, t.n)):
        raise HypothesisFailed("deleted-last tuple is not pure")
    chk_1 = _oracle_is_szego(tuples.hat(t, 1), tol)
    if not chk_1.ok:
        raise HypothesisFailed(f"deleted-first tuple is not Szego (min eig {chk_1.min_eig:.3e})")
    t_n = t.op(t.n)
    zeros = np.zeros((t.dim, t.dim), dtype=complex)
    g = [np.eye(t.dim, dtype=complex) - t_n @ adj(t_n)] + [zeros] * (t.n - 2)
    return oracle_verify_certificate(t, g, tol)


def stacked_cnu_h0(a):
    """H0 of ``rz.cnu_decomposition`` from the kernel of the (2 d^2) x d stack
    of I - A*^m A^m and I - A^m A*^m over m = 1..d."""
    m = matcore.as_matrix(a)
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    rows, power = [], eye
    for _ in range(d):
        power = power @ m
        rows += [eye - adj(power) @ power, eye - power @ adj(power)]
    stacked = np.vstack(rows) if rows else np.zeros((0, d), dtype=complex)
    return matcore.kernel_basis(stacked, 1e-9)


# ---------------------------------------------------------------------------
# polynomial parsing oracle

_ORACLE_RE_VAR = re.compile(r"^z(\d+)(?:\^(\d+))?$")


def _oracle_split_terms(text: str) -> list[str]:
    """Split at top-level +/-, keeping the sign with each term.

    Signs inside parentheses or in exponent notation (1e-3) do not split.
    """
    chunks: list[str] = []
    depth = 0
    current = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch in "+-" and depth == 0 and i > 0:
            prev = text[i - 1]
            if prev in "eE" and i >= 2 and (text[i - 2].isdigit() or text[i - 2] == "."):
                current += ch
                continue
            if prev in "+-*^(":
                current += ch
                continue
            chunks.append(current)
            current = ch
            continue
        current += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    chunks.append(current)
    return [c for c in chunks if c]


def oracle_parse_poly(text: str, nvars: int | None = None) -> vn.MultiPoly:
    """Parse the polynomial grammar: sums of `c * z1^a1 * ... * zn^an`.

    The two-pass parser (split the text into terms at top-level signs, then
    each term into factors at top-level stars): the differential oracle for
    ``vonneumann.parse_poly``.

    Coefficients are real or imaginary literals; a full complex coefficient
    is written in parentheses, e.g. ``(0.5+0.5i)*z1^2*z2``.  Every
    coefficient must be finite once like terms are combined.  Whitespace is
    ignored.  A bare ``a+bi`` without parentheses parses as two constant
    terms, which has the same value.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty polynomial")
    term_map: dict[vn.MultiIndex, complex] = {}
    max_var = 0
    parsed_terms = []
    for chunk in _oracle_split_terms(s):
        sign = 1.0
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ParseError("dangling sign")
        coeff = complex(sign)
        exps: dict[int, int] = {}
        # split factors at top-level '*'
        factors: list[str] = []
        depth = 0
        cur = ""
        for ch in chunk:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "*" and depth == 0:
                factors.append(cur)
                cur = ""
            else:
                cur += ch
        factors.append(cur)
        for factor in factors:
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            mv = _ORACLE_RE_VAR.match(factor)
            if mv:
                idx = int(mv.group(1))
                if idx < 1:
                    raise ParseError("variables are numbered from z1")
                exp = int(mv.group(2)) if mv.group(2) else 1
                exps[idx] = exps.get(idx, 0) + exp
                max_var = max(max_var, idx)
                continue
            if factor.startswith("(") and factor.endswith(")"):
                coeff *= vn._parse_complex(factor[1:-1])
                continue
            coeff *= vn._parse_complex(factor)
        parsed_terms.append((exps, coeff))
    if nvars is None:
        nvars = max_var
    elif max_var > nvars:
        raise ParseError(f"variable z{max_var} exceeds the declared arity {nvars}")
    if nvars == 0:
        raise ParseError("polynomial mentions no variables and no arity was declared")
    for exps, coeff in parsed_terms:
        k = tuple(exps.get(i, 0) for i in range(1, nvars + 1))
        term_map[k] = term_map.get(k, 0) + coeff
    return vn.multipoly(nvars, term_map)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def jordan22():
    return generators.jordan_pair(2, 2, 0.9, 0.9)


@pytest.fixture(scope="session")
def triple22(jordan22):
    return generators.product_triple(jordan22, 1, 1)


@pytest.fixture(scope="session")
def triple32():
    pair = generators.jordan_pair(3, 2, 1.0, 1.0)
    return generators.product_triple(pair, 2, 1)

"""Dense complex linear-algebra kernel.

Everything downstream manipulates operators as dense ``complex128`` numpy
arrays.  This module wraps the handful of decompositions the rest of the
package relies on, with explicit tolerance semantics:

* rank / kernel decisions use the hybrid threshold ``tol * max(1, scale)``
  so they behave sensibly for both tiny and O(1) matrices;
* the unitary completion follows a fixed, deterministic rule (modified
  Gram-Schmidt over the standard basis in index order) so repeated runs
  produce identical completions.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotIsometric,
    NotPsd,
)

EIG_TOL = 1e-10
PSD_CLAMP_TOL = 1e-9
ROOT_TOL = 1e-7


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix has non-finite entries")
    return m


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix for a stack (..., p, q)."""
    return np.swapaxes(a.conj(), -1, -2)


def operator_norm(a):
    """Largest singular value (sqrt of the top eigenvalue of A*A); for a
    stack (..., p, q), the array of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim > 2:
        return np.linalg.norm(m, 2, axis=(-2, -1))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


class HermEig(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns


def herm_eig(a, tol: float = EIG_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when ``||A - A*|| > tol * max(1, ||A||)`` and
    NoConvergence if the underlying iteration fails.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("herm_eig needs a square matrix")
    scale = operator_norm(m)
    herm_res = operator_norm(m - adj(m))
    if herm_res > tol * max(1.0, scale):
        raise NotHermitian(f"||A - A*|| = {herm_res:.3e} exceeds tolerance")
    try:
        w, v = np.linalg.eigh((m + adj(m)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NoConvergence(str(exc)) from exc
    return HermEig(w, v)


def psd_sqrt(a, tol: float = PSD_CLAMP_TOL, eig_tol: float = EIG_TOL) -> np.ndarray:
    """Hermitian psd square root.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below ``-tol``
    raises NotPsd.
    """
    w, v = herm_eig(a, eig_tol)
    if w.size and w[0] < -tol:
        raise NotPsd(float(w[0]))
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ adj(v)
    return (r + adj(r)) / 2.0


def kernel_basis(a, tol: float = EIG_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of A (columns)."""
    m = as_matrix(a)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if rows == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    scale = s[0] if s.size else 0.0
    thr = tol * max(1.0, scale)
    keep = [i for i in range(cols) if (s[i] if i < s.size else 0.0) <= thr]
    return adj(vh[keep, :]) if keep else np.zeros((cols, 0), dtype=complex)


def range_onb(vectors, tol: float = EIG_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical span of the given columns.

    ``vectors`` is a matrix whose columns generate the subspace (or a
    sequence of column vectors).  Rank is decided at ``tol * max(1, sigma_0)``.
    """
    if isinstance(vectors, (list, tuple)):
        cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if not cols:
            return np.zeros((0, 0), dtype=complex)
        m = np.column_stack(cols)
    else:
        m = as_matrix(vectors)
    if m.shape[1] == 0 or m.shape[0] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    thr = tol * max(1.0, s[0])
    rank = int(np.sum(s > thr))
    return u[:, :rank]


def _mgs_append(basis: list[np.ndarray], v: np.ndarray, thr: float) -> np.ndarray | None:
    """Orthogonalize v against ``basis`` (two passes) and normalize.

    Returns the new unit vector, or None when v is numerically dependent.
    Two projection passes keep the orthonormality error at machine level
    even when the accepted residual is small.
    """
    w = v.astype(complex, copy=True)
    for _ in range(2):
        for q in basis:
            w = w - np.vdot(q, w) * q
    r = float(np.linalg.norm(w))
    if r <= thr:
        return None
    return w / r


def unitary_completion(
    domain_frame,
    image_frame,
    ambient_dim: int,
    tol: float = 1e-8,
    completion_order: Sequence[int] | None = None,
) -> np.ndarray:
    """Extend the map domain column -> image column to a unitary on C^ambient.

    The columns need not be orthonormal; they only have to induce an isometry
    on their span, which is certified by comparing the two Gram matrices.
    The completion rule is deterministic: the domain columns are
    orthonormalized by modified Gram-Schmidt in order (the same coefficients
    are applied to the image columns), and both partial bases are completed
    with standard basis vectors tried in ``completion_order`` (index order by
    default), i-th completion vector mapping to i-th.
    """
    dom = as_matrix(domain_frame)
    img = as_matrix(image_frame)
    if dom.shape != img.shape:
        raise DimensionMismatch("domain and image frames must have equal shapes")
    if dom.shape[0] != ambient_dim:
        raise DimensionMismatch(
            f"frames live in dimension {dom.shape[0]}, ambient is {ambient_dim}"
        )
    gram_d = adj(dom) @ dom
    gram_i = adj(img) @ img
    gram_res = operator_norm(gram_d - gram_i)
    if gram_res > tol * max(1.0, operator_norm(gram_d)):
        raise NotIsometric(gram_res)

    col_scale = 1.0
    if dom.shape[1]:
        col_scale = max(1.0, float(np.max(np.linalg.norm(dom, axis=0))))
    thr = tol * col_scale

    q_dom: list[np.ndarray] = []
    q_img: list[np.ndarray] = []
    for j in range(dom.shape[1]):
        v = dom[:, j].copy()
        w = img[:, j].copy()
        # project with the domain-side coefficients so the pairing is preserved
        for _ in range(2):
            for qd, qi in zip(q_dom, q_img):
                c = np.vdot(qd, v)
                v = v - c * qd
                w = w - c * qi
        r = float(np.linalg.norm(v))
        if r <= thr:
            continue
        q_dom.append(v / r)
        q_img.append(w / r)

    order = list(range(ambient_dim)) if completion_order is None else list(completion_order)
    if sorted(order) != list(range(ambient_dim)):
        raise DimensionMismatch("completion_order must be a permutation of the ambient indices")

    dep_thr = 1e-10
    comp_dom = list(q_dom)
    comp_img = list(q_img)
    for idx in order:
        e = np.zeros(ambient_dim, dtype=complex)
        e[idx] = 1.0
        nd = _mgs_append(comp_dom, e, dep_thr)
        if nd is not None:
            comp_dom.append(nd)
    for idx in order:
        e = np.zeros(ambient_dim, dtype=complex)
        e[idx] = 1.0
        ni = _mgs_append(comp_img, e, dep_thr)
        if ni is not None:
            comp_img.append(ni)
    if len(comp_dom) != ambient_dim or len(comp_img) != ambient_dim:
        raise NotIsometric(gram_res)  # pragma: no cover - cannot happen for consistent frames

    # polish the image basis: the mapped part inherits the (tiny) Gram error
    polished: list[np.ndarray] = []
    for w in comp_img:
        nw = _mgs_append(polished, w, 0.5)
        if nw is None:  # pragma: no cover - only with a badly violated Gram test
            raise NotIsometric(gram_res)
        polished.append(nw)

    q_d = np.column_stack(comp_dom)
    q_i = np.column_stack(polished)
    u = q_i @ adj(q_d)

    unit_res = operator_norm(adj(u) @ u - np.eye(ambient_dim))
    ext_res = operator_norm(u @ dom - img)
    if unit_res > 1e-10 or ext_res > max(tol, 10 * gram_res) * max(1.0, col_scale):
        raise NotIsometric(max(unit_res, ext_res))
    return u


def poly_roots(coeffs, tol: float = ROOT_TOL) -> np.ndarray:
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


def eigvals(a) -> np.ndarray:
    """Eigenvalues of a square matrix, or of each matrix of a stack
    (..., n, n), from LAPACK; sorted per matrix by (real, imag) like the
    roots of :func:`poly_roots`."""
    w = np.linalg.eigvals(np.asarray(a, dtype=complex))
    return np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)


def det(a):
    """Determinant via pivoted LU elimination; for a stack (..., n, n), the
    array of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch("determinant needs a square matrix or a stack of them")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    d = np.linalg.det(m)
    return complex(d) if m.ndim == 2 else d


def inv_resolvent(d, zeta, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Solve (I - D diag(zeta_g)) X_g = I for every row zeta_g of a (G, n) array.

    Returns the (G, n, n) stack X and the (G,) mask of regular points: those
    whose system is not exactly singular and whose residual
    ||(I - D diag(zeta_g)) X_g - I|| is finite and at most ``tol``.  A
    singular system can only arise at boundary evaluation points; X is zero
    there.
    """
    dm = as_matrix(d)
    z = np.asarray(zeta, dtype=complex)
    n = dm.shape[0]
    if z.ndim != 2 or z.shape[1] != n:
        raise DimensionMismatch(f"expected a (G, {n}) array of diagonals, got {z.shape}")
    eye = np.eye(n, dtype=complex)
    m = eye - dm * z[:, None, :]
    rhs = np.broadcast_to(eye, m.shape)
    try:
        x, solved = np.linalg.solve(m, rhs), True
    except np.linalg.LinAlgError:
        # LAPACK rejects the whole stack for one exactly singular matrix; the
        # LU of slogdet finds the same zero pivots, so solve around those
        solved = np.linalg.slogdet(m).sign != 0
        x = np.linalg.solve(np.where(solved[:, None, None], m, eye), rhs)
    res = operator_norm(m @ x - eye)
    regular = solved & np.isfinite(res) & (res <= tol)
    x[~regular] = 0.0
    return x, regular

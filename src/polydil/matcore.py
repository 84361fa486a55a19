"""Dense complex linear-algebra kernel.

Everything downstream manipulates operators as dense ``complex128`` numpy
arrays.  This module wraps the handful of decompositions the rest of the
package relies on, with explicit tolerance semantics:

* rank / kernel decisions use the hybrid threshold ``tol * max(1, scale)``
  so they behave sensibly for both tiny and O(1) matrices;
* the unitary completion follows a fixed, deterministic rule (two
  classical Gram-Schmidt passes over the standard basis in index order) so
  repeated runs produce identical completions;
* a stack of operator norms that only feeds a maximum or a ``<= tol`` test
  is screened before any SVD runs (``max_operator_norm``,
  ``operator_norms_within``).  Every matrix satisfies L <= ||A|| <= F, with
  L its largest row or column norm and F its Frobenius norm, both from one
  pass of squared entries (``norm_bounds``).  A matrix whose F is below the
  largest L of the stack cannot attain the maximum, and one with
  F <= tol/2 is within tol; only the others get an SVD.  The sums of
  squares and the SVD's largest singular value are both accurate to a
  small multiple of n * 2^-53 relative, so a slack of 1e-8 relative on the
  first test and the factor 2 on the second can never drop a matrix the
  full pass would decide differently: the screened answer is the full
  pass's answer, bit for bit.  The screen is skipped when its threshold
  (the largest L, or tol/2) is NaN or outside [2^-450, 2^450], where
  squares could underflow or overflow, and a matrix with an infinite or
  NaN entry always gets its SVD;
* the same tol/2 rule settles the Hermitian test of ``herm_eigs`` and
  ``psd_sqrt`` without either of its two SVDs (the threshold
  ``tol * max(1, ||A||)`` is at least tol), and ``tuples.make_tuple``
  screens its commutators with ``operator_norms_within``; a single
  matrix's Frobenius norm is one BLAS dot, whose squares overflow to inf
  and so fail the screen;
* each decomposition has one path, for a stack: Hermitian
  eigendecompositions are ``herm_eigs`` (``herm_eig`` is its one-matrix
  case), range bases ``range_onbs``, and a stack of SVD norms is one
  ``operator_norm`` call.  numpy runs the same LAPACK routine on each
  matrix of a stack, so every matrix gets the bits of its own call, which
  the tests check; so the per-chunk eigenvalues and determinants over a
  transfer-function grid keep their bits on the threads of ``_chunk_map``.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotIsometric,
    NotPsd,
)

EIG_TOL = 1e-10
PSD_CLAMP_TOL = 1e-9
ROOT_TOL = 1e-7
RESOLVENT_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix for a stack (..., p, q)."""
    return np.swapaxes(a.conj(), -1, -2)


def operator_norm(a):
    """Largest singular value (sqrt of the top eigenvalue of A*A); for a
    stack (..., p, q), the array of them."""
    # np.linalg.norm(m, 2) computes exactly this, after argument checks
    norms = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).max(axis=-1, initial=0.0)
    return float(norms) if norms.ndim == 0 else norms


# Norms in this range have squares, and sums of squares, that neither
# underflow nor overflow, so the screening bounds carry only rounding error.
_SCREEN_RANGE = (2.0**-450, 2.0**450)
_SCREEN_SLACK = 1e-8


def norm_bounds(a) -> tuple[np.ndarray, np.ndarray]:
    """Bounds L <= ||A|| <= F of each matrix A of a stack (..., p, q), from
    one pass of squared entries: L is the largest row or column norm (0
    where those squares overflow), F the Frobenius norm (infinite where they
    overflow, and short by at most sqrt(p q) 2^-537 where they underflow)."""
    m = np.asarray(a, dtype=complex)
    with np.errstate(over="ignore", under="ignore"):
        sq = m.real**2
        sq += m.imag**2
    rows, cols = sq.sum(axis=-1), sq.sum(axis=-2)
    lower = np.maximum(rows.max(axis=-1, initial=0.0), cols.max(axis=-1, initial=0.0))
    return np.sqrt(np.where(np.isinf(lower), 0.0, lower)), np.sqrt(rows.sum(axis=-1))


def max_operator_norm(a, floor: float = 0.0) -> float:
    """``float(np.max(operator_norm(a), initial=0.0))`` for a stack
    (..., p, q), with an SVD only of the matrices that can attain it: those
    whose Frobenius norm reaches both the largest row or column norm of the
    stack and ``floor``.  So ``max(floor, max_operator_norm(a, floor))`` is
    ``max(floor, max_operator_norm(a))`` bit for bit.
    """
    m = np.asarray(a, dtype=complex)
    lower, upper = norm_bounds(m)
    screen = max(float(np.max(lower, initial=0.0)), floor) * (1.0 - _SCREEN_SLACK)
    if _SCREEN_RANGE[0] <= screen <= _SCREEN_RANGE[1]:  # NaN or inf: no screen
        m = m[upper >= screen]
    return float(np.max(operator_norm(m), initial=0.0))


def _frobenius_within(m: np.ndarray, tol: float) -> np.ndarray:
    """The mask ``||A_g||_F <= tol/2`` over a stack (..., p, q), all False
    when tol/2 is outside the screen's range; each matrix it passes has
    ``operator_norm(A_g) <= tol``."""
    if not _SCREEN_RANGE[0] <= 0.5 * tol <= _SCREEN_RANGE[1]:
        return np.zeros(m.shape[:-2], dtype=bool)
    if m.ndim == 2:  # one BLAS dot; its squares overflow to inf, not past it
        flat = m.reshape(-1)
        return np.sqrt(np.vdot(flat, flat).real) <= 0.5 * tol
    return norm_bounds(m)[1] <= 0.5 * tol


def operator_norms_within(a, tol: float) -> np.ndarray:
    """The mask ``operator_norm(A_g) <= tol`` over a stack (..., p, q), False
    where the norm is not finite; a matrix whose Frobenius norm is at most
    tol/2 passes without an SVD."""
    m = np.asarray(a, dtype=complex)
    within = _frobenius_within(m, tol)
    rest = ~within
    if rest.any():
        norms = operator_norm(m[rest])
        within[rest] = np.isfinite(norms) & (norms <= tol)
    return within


class HermEig(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    """Raise NotHermitian when ``||M - M*|| > tol * max(1, ||M||)``; both
    norms are skipped when ``||M - M*||_F <= tol/2`` already decides it."""
    skew = m - adj(m)
    if _frobenius_within(skew, tol):
        return
    herm_res = operator_norm(skew)
    if herm_res > tol * max(1.0, operator_norm(m)):
        raise NotHermitian(f"||A - A*|| = {herm_res:.3e} exceeds tolerance")


def herm_eig(a, tol: float = EIG_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix: the one-matrix case of
    ``herm_eigs``.

    Raises NotHermitian when ``||A - A*|| > tol * max(1, ||A||)`` and
    NoConvergence if the underlying iteration fails.
    """
    return next(herm_eigs(as_matrix(a)[None], tol))


def _eigh(sym: np.ndarray) -> HermEig:
    try:
        return HermEig(*np.linalg.eigh(sym))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NoConvergence(str(exc)) from exc


def herm_eigs(stack, tol: float = EIG_TOL):
    """The eigendecomposition of each matrix A of a stack (k, n, n), yielded
    in order, each after its own checks, so the first matrix that fails
    raises what it raises alone: ValueError for a non-finite entry, else
    NotHermitian when ``||A - A*|| > tol * max(1, ||A||)``.  The
    eigendecompositions are of the symmetrized (A + A*)/2, from one stacked
    LAPACK call when every one of them is finite, which gives each matrix
    the bits of its own call, and from one call per matrix otherwise."""
    m = np.asarray(stack, dtype=complex)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch("herm_eig needs a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is decided below
        sym = (m + adj(m)) / 2.0
    stacked = _eigh(sym) if np.isfinite(sym).all() else None
    for k, a in enumerate(m):
        _check_hermitian(as_matrix(a), tol)
        yield _eigh(sym[k]) if stacked is None else HermEig(stacked[0][k], stacked[1][k])


def psd_sqrt(a, tol: float = PSD_CLAMP_TOL, eig: HermEig | None = None) -> np.ndarray:
    """Hermitian psd square root.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below ``-tol``
    raises NotPsd.  ``eig``: ``herm_eig(a, t)`` for some t when the caller
    has it; A must still pass the Hermitian test at ``EIG_TOL``.
    """
    if eig is None:
        eig = herm_eig(a)
    else:
        _check_hermitian(as_matrix(a), EIG_TOL)
    w, v = eig
    if w.size and w[0] < -tol:
        raise NotPsd(float(w[0]))
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ adj(v)
    return (r + adj(r)) / 2.0


def kernel_basis(a, tol: float = EIG_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of A (columns); a tall A
    needs only its thin SVD."""
    m = as_matrix(a)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if rows == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    scale = s[0] if s.size else 0.0
    thr = tol * max(1.0, scale)
    keep = [i for i in range(cols) if (s[i] if i < s.size else 0.0) <= thr]
    return adj(vh[keep, :]) if keep else np.zeros((cols, 0), dtype=complex)


def range_onbs(stack, tol: float = EIG_TOL) -> list[np.ndarray]:
    """An orthonormal basis of the numerical range of each matrix of a stack
    (k, p, q), as the leading left singular vectors: the rank is decided at
    ``tol * max(1, sigma_0)``.  One stacked SVD gives each matrix the bits
    of its own SVD."""
    m = np.asarray(stack, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    k, p, q = m.shape
    if p == 0 or q == 0:
        return [np.zeros((p, 0), dtype=complex)] * k
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    ranks = np.sum(s > tol * np.maximum(1.0, s[:, :1]), axis=1)
    return [u[i, :, :rank] for i, rank in enumerate(ranks.tolist())]


def _orthogonalize(q: np.ndarray, v: np.ndarray, c: np.ndarray | None = None):
    """v minus its components along the orthonormal columns of q by two
    classical Gram-Schmidt passes, which keep it orthogonal to machine level
    however small it is ("twice is enough": Giraud, Langou & Rozloznik,
    2005); with the summed coefficients q* v and its norm.  ``c``: the first
    pass's coefficients when they are known."""
    if c is None:
        c = (v.conj() @ q).conj()
    v = v - q @ c
    c2 = (v.conj() @ q).conj()
    v = v - q @ c2
    return v, c + c2, float(np.vdot(v, v).real) ** 0.5


def _complete(q: np.ndarray, k: int, order: Sequence[int], thr: float = 1e-10) -> list[int]:
    """Extend the orthonormal columns q[:, :k] in place by each standard
    basis vector e_idx, idx in ``order``, whose residual off the columns so
    far has norm above ``thr`` (the first pass's coefficients are
    conj(q[idx, :k])); returns the indices taken."""
    eye, taken = np.eye(len(q), dtype=complex), []
    for idx in order:
        if k == q.shape[1]:
            break
        v, _, r = _orthogonalize(q[:, :k], eye[idx], q[idx, :k].conj())
        if r > thr:
            q[:, k] = v / r
            k += 1
            taken.append(idx)
    return taken


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
    orthonormalized in order by two classical Gram-Schmidt passes (the same
    coefficients are applied to the image columns), and both partial bases
    are completed with standard basis vectors tried in ``completion_order``
    (index order by default), i-th completion vector mapping to i-th.  The
    image basis is then polished by the same two passes, so U*U - I sits at
    rounding level and is not tested here; the suite's ``unitarity`` row and
    ``dilate``'s ``unitarity_residual`` report it.

    The Gram test and the extension test are each first screened by
    ``||gap||_F <= bound/2`` with a bound no larger than the test's own (the
    Gram threshold ``tol * max(1, ||gram_d||)`` is at least tol, the
    extension threshold at least ``tol * col_scale``), so a passing
    completion takes no SVD.  Where a screen cannot pass, the test runs in
    full on exact norms, so the verdict and the value ``NotIsometric``
    carries are the unscreened ones.
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
    gram_gap = gram_d - adj(img) @ img
    gram_res = None  # ||gram_gap||, once a test needs it
    if not _frobenius_within(gram_gap, tol):
        gram_res = operator_norm(gram_gap)
        if gram_res > tol * max(1.0, operator_norm(gram_d)):
            raise NotIsometric(gram_res)

    col_scale = max(1.0, float(np.max(np.linalg.norm(dom, axis=0), initial=0.0)))
    thr = tol * col_scale

    # accepted columns: q_d[:, :k] orthonormal, q_i[:, :k] their images
    q_d = np.zeros((ambient_dim, ambient_dim), dtype=complex)
    q_i = np.zeros_like(q_d)
    k = 0
    for j in range(dom.shape[1]):
        if k == ambient_dim:
            break
        v, c, r = _orthogonalize(q_d[:, :k], dom[:, j])
        if r > thr:
            # the domain-side coefficients keep the pairing
            q_d[:, k] = v / r
            q_i[:, k] = (img[:, j] - q_i[:, :k] @ c) / r
            k += 1

    order = list(range(ambient_dim)) if completion_order is None else list(completion_order)
    if sorted(order) != list(range(ambient_dim)):
        raise DimensionMismatch("completion_order must be a permutation of the ambient indices")
    taken = [_complete(q, k, order) for q in (q_d, q_i)]
    if any(k + len(t) != ambient_dim for t in taken):  # pragma: no cover - frames are consistent
        raise NotIsometric(operator_norm(gram_gap))

    # polish the image basis in place: the mapped part inherits the (tiny) Gram error
    for j in range(ambient_dim):
        w, _, r = _orthogonalize(q_i[:, :j], q_i[:, j])
        if r <= 0.5:  # pragma: no cover - only with a badly violated Gram test
            raise NotIsometric(operator_norm(gram_gap))
        q_i[:, j] = w / r
    u = q_i @ adj(q_d)

    ext_gap = u @ dom - img
    if _frobenius_within(ext_gap, thr):
        return u
    if gram_res is None:
        gram_res = operator_norm(gram_gap)
    ext_res = operator_norm(ext_gap)
    if ext_res > max(tol, 10 * gram_res) * col_scale:
        raise NotIsometric(ext_res)
    return u


def eigvals(a) -> np.ndarray:
    """Eigenvalues of a square matrix, or of each matrix of a stack
    (..., n, n), from LAPACK; sorted per matrix by (real, imag), so the
    multiset has a canonical order."""
    return _eigvals(np.asarray(a, dtype=complex))


def _eigvals(m: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvals(m)
    return np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)


def det(a):
    """Determinant via pivoted LU elimination; for a stack (..., n, n), the
    array of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch("determinant needs a square matrix or a stack of them")
    d = _det(m)
    return complex(d) if m.ndim == 2 else d


def _det(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.det(m)


# One worker per usable CPU (Linux only); the chunk map's pool is made on first use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_pool = None


def _spread(cpus, usable) -> None:
    """Move this worker thread to the next CPU, then let it run on any usable
    one: a kernel that does not balance load between CPUs (a cpuset with
    load balancing off) keeps a new thread on its creator's CPU."""
    os.sched_setaffinity(0, {next(cpus)})
    os.sched_setaffinity(0, usable)


def _chunk_map(fn, chunks):
    """``(chunk, fn(phi))`` for each ``(rows, phi, regular)`` chunk, in order,
    with ``fn`` on one thread per usable CPU and at most two chunks per
    thread in flight (in the caller with one usable CPU).  ``fn`` may call
    no public polydil function: a tracer times those on one stack."""
    global _pool
    if _WORKERS == 1:
        yield from ((chunk, fn(chunk[1])) for chunk in chunks)
        return
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        # a forked child has none of the threads, so it makes its own pool
        os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))
        usable = os.sched_getaffinity(0)
        cpus = itertools.cycle(sorted(usable))
        _pool = ThreadPoolExecutor(_WORKERS, initializer=_spread, initargs=(cpus, usable))
    pending = deque()
    try:
        for chunk in chunks:
            pending.append((chunk, _pool.submit(fn, chunk[1])))
            if len(pending) == 2 * _WORKERS:
                chunk, job = pending.popleft()
                yield chunk, job.result()
        while pending:
            chunk, job = pending.popleft()
            yield chunk, job.result()
    finally:  # the chunks not yet started, once the caller stops early
        for _, job in pending:
            job.cancel()


def solve_stack(m: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve M_g X_g = B_g over a stack of square matrices (..., n, n) and
    right sides (..., n, k) of the same leading shape.

    Returns X and the mask of the matrices whose LU found no zero pivot; at
    the others X is B.  LAPACK rejects the whole stack for one exactly
    singular matrix, and the LU of slogdet finds the same zero pivots, so the
    stack is solved around those.
    """
    try:
        return np.linalg.solve(m, b), np.ones(m.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        solved = np.linalg.slogdet(m)[0] != 0
        eye = np.eye(m.shape[-1], dtype=m.dtype)
        return np.linalg.solve(np.where(solved[..., None, None], m, eye), b), solved


def inv_resolvent(d, zeta, rhs, tol: float = RESOLVENT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Solve (I - D diag(zeta_g)) Y_g = R for every row zeta_g of a (G, n)
    array and one (n, k) right side R.

    Returns the (G, n, k) stack Y and the (G,) mask of regular points.  With
    M_g = I - D diag(zeta_g), a point is regular when

    * LU finds no zero pivot in M_g,
    * ||Y_g||_F <= 1/tol, and
    * the residual ||M_g Y_g - R|| is at most tol (``operator_norms_within``).

    The bound on Y_g is the conditioning test: a backward-stable solve passes
    the residual test however close M_g is to singular, but Y_g then grows
    like ||R|| / sigma_min(M_g).  Blind spot: a point where M_g is nearly
    singular only in directions that R never reaches keeps a bounded Y_g and
    counts as regular; if a value built from Y_g is inaccurate there, the
    check that uses it (for the transfer function, ``inner_deviation``)
    reports it.  The grid path ``realization.transfer_eval_grid`` builds
    Y_g from two smaller solves and applies the last two tests through
    upper bounds on ||Y_g||_F and on the full residual's Frobenius norm; it
    solves every point that fails them, or whose smaller solves met a zero
    pivot, again here, so its regular points pass this rule for its own Y_g,
    with the same blind spot.  Y is zero at every point that is not
    regular.  A singular system can only arise at boundary evaluation points.
    """
    dm = as_matrix(d)
    r = as_matrix(rhs)
    z = np.asarray(zeta, dtype=complex)
    n = dm.shape[0]
    if z.ndim != 2 or z.shape[1] != n or r.shape[0] != n:
        raise DimensionMismatch(
            f"expected (G, {n}) diagonals and {n} right-side rows, got {z.shape} and {r.shape}"
        )
    m = np.eye(n, dtype=complex) - dm * z[:, None, :]
    b = np.broadcast_to(r, (len(z),) + r.shape)  # numpy 1.x reads a 2-d b as vectors
    y, solved = solve_stack(m, b)
    bounded = solved & (norm_bounds(y)[1] <= 1.0 / tol)
    y[~bounded] = 0.0  # keeps the residual product finite
    regular = bounded & operator_norms_within(m @ y - r, tol)
    y[~regular] = 0.0
    return y, regular

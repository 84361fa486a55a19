"""Truncated vector-valued Hardy space over the polydisc, as dense tensors.

An element of H^2_{C^e}(D^m) truncated to the box [0, N]^m is an array of
shape (N+1,)*m + (e,) whose entry at the multi-index k is its k-th Taylor
coefficient.  A map h -> sum_k z^k (M T*^k h) into that space is held as its
coefficient tensor of shape (N+1,)*m + (out, d), so every basis vector is
handled at once: M_{z_i}* and the block shift E(z) are slices along axis i,
and the adjoint sends z^k c to T^k M* c, the conjugate transpose of the k-th
coefficient applied to c.  Multiplication operators drop anything pushed
past the cap while adjoints are exact on the box.  With that convention the
adjoint-side intertwining identities below hold exactly on the box, for any
pure tuple, and each is one array expression over the tensors.  What the box
drops of the dilation isometry's norm is known exactly too: ``box_gap``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import DimensionMismatch, NotPure
from .matcore import adj, operator_norm
from .tuples import OperatorTuple, DilationCertificate, is_pure, spectral_radius

DEFAULT_CAP = 12


def nilpotency_order(m) -> int | None:
    """Smallest p <= dim with ||M^p|| <= 1e-14, or None if M is not nilpotent."""
    m = matcore.as_matrix(m)
    p = np.eye(m.shape[0], dtype=complex)
    for order in range(1, m.shape[0] + 1):
        p = p @ m
        if operator_norm(p) <= 1e-14:
            return order
    return None


def effective_cap(t: OperatorTuple, cap: int) -> int:
    """Raise the cap to the tuple's nilpotency order when that is larger."""
    orders = [nilpotency_order(m) for m in t.ops]
    if any(o is None for o in orders):
        return cap
    return max(cap, max(orders))


# ---------------------------------------------------------------------------
# coefficient embeddings: the dilation isometry and the companion map J


class CoefficientEmbedding:
    """Map h -> sum_k z^k (M T*^k h) over the truncated multi-index box.

    ``coeffs`` has shape (cap+1,)*m + (out, d) and holds M T*^k at k, built
    by one cumulative product per axis.  With M = frame* D this is the
    canonical dilation isometry; with M = I it is the plain embedding J,
    whose coefficients are the powers T*^k.  The forward powers T^k M* that
    the adjoint needs are the conjugate transposes of the coefficients.
    """

    def __init__(self, t: OperatorTuple, out_map, cap: int):
        self.tuple = t
        self.cap = int(cap)
        coeffs = matcore.as_matrix(out_map)
        if coeffs.shape[1] != t.dim:
            raise DimensionMismatch("output map must act on the tuple's space")
        for axis, op in enumerate(t.ops):
            op_adj = adj(op)
            pows = [coeffs]
            for _ in range(self.cap):
                pows.append(pows[-1] @ op_adj)
            coeffs = np.stack(pows, axis=axis)
        self.coeffs = coeffs

    def apply(self, h) -> np.ndarray:
        """The coefficients of the image of h, shape (cap+1,)*m + (out,)."""
        h = np.asarray(h, dtype=complex).reshape(-1)
        if h.size != self.tuple.dim:
            raise DimensionMismatch("vector dimension mismatch")
        return self.coeffs @ h

    def isometry_defect(self, h) -> float:
        """||Pi h||^2 - ||h||^2; nonpositive, and zero once the cap swallows
        every nonzero coefficient."""
        h = np.asarray(h, dtype=complex).reshape(-1)
        image = self.apply(h)
        return float(np.vdot(image, image).real - np.vdot(h, h).real)


def canonical_isometry(t: OperatorTuple, defect, frame, cap: int) -> CoefficientEmbedding:
    """Dilation isometry h -> sum z^k (frame* D T*^k h) for a pure tuple."""
    if not is_pure(t):
        raise NotPure(max(spectral_radius(m) for m in t.ops))
    defect = matcore.as_matrix(defect)
    frame = matcore.as_matrix(frame)
    return CoefficientEmbedding(t, adj(frame) @ defect, cap)


def tuple_embedding(t: OperatorTuple, cap: int) -> CoefficientEmbedding:
    """The plain embedding h -> sum z^k (x) T*^k h (no defect weighting)."""
    if not is_pure(t):
        raise NotPure(max(spectral_radius(m) for m in t.ops))
    return CoefficientEmbedding(t, np.eye(t.dim, dtype=complex), cap)


def box_gap(t: OperatorTuple, cap: int) -> np.ndarray:
    """The part of the identity that the box [0, cap]^m misses:
    gap = I - sum_k T^k S T*^k over the box, with S the Szego defect.

    Summing each axis telescopes, so the box sum is
    prod_a (Id - C_{P_a}) applied to I, with P_a = T_a^(cap+1) and
    C_P(X) = P X P*; gap is the inclusion-exclusion sum over nonempty S of
    (-1)^(|S|+1) P_S P_S*.  It is accumulated one axis at a time as
    gap <- gap + P_a (I - gap) P_a*, which never subtracts from I the tiny
    numbers it is made of.  For the canonical isometry, whose M* M is S,
    ||Pi h||^2 - ||h||^2 = -<gap h, h>.
    """
    eye = np.eye(t.dim, dtype=complex)
    gap = np.zeros_like(eye)
    for op in t.ops:
        power = np.linalg.matrix_power(op, cap + 1)
        gap = gap + power @ (eye - gap) @ adj(power)
    return gap


# ---------------------------------------------------------------------------
# block maps attached to a certificate


def defect_block_maps(cert: DilationCertificate, t: OperatorTuple) -> tuple[np.ndarray, np.ndarray]:
    """The stacked block columns h -> (F_i h) and h -> (F_i T_i* h).

    Rows are expressed in the certificate frames, so the two matrices map C^d
    into the direct sum of the ran F_i coordinates.  Only the first n-1
    coordinates of ``t`` are used.
    """
    blocks_i = []
    blocks_y = []
    for i, (fi, qi) in enumerate(zip(cert.f, cert.f_frames)):
        proj = adj(qi) @ fi
        blocks_i.append(proj)
        blocks_y.append(proj @ adj(t.ops[i]))
    total = sum(b.shape[0] for b in blocks_i)
    if total == 0:
        d = cert.defect.shape[0]
        return np.zeros((0, d), dtype=complex), np.zeros((0, d), dtype=complex)
    return np.vstack(blocks_i), np.vstack(blocks_y)


def block_slices(partition: Sequence[int]) -> list[slice]:
    """The coordinate range of each block; block i is driven by variable i."""
    ends = np.cumsum(partition, dtype=int)
    return [slice(int(end) - int(size), int(end)) for size, end in zip(partition, ends)]


# ---------------------------------------------------------------------------
# identity residuals for the block maps (the realization module adds the ones
# that need transfer-function data).  Each compares two coefficient tensors:
# in the pullbacks row r at index p is the residual of the monomial
# z^p (x) e_r, in the embedding identities column r is that of the vector e_r.


def _lower(m: int, cap: int, axis: int | None = None) -> tuple[slice, ...]:
    """The indices p + e_axis (p when axis is None) for p in [0, cap-1]^m."""
    return tuple(slice(1, cap + 1) if b == axis else slice(0, cap) for b in range(m))


def _max_row_norm(diff: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(diff, axis=-1), initial=0.0))


def _shifted_coefficients(
    j_map: CoefficientEmbedding, left: np.ndarray, partition: Sequence[int], cap: int
) -> np.ndarray:
    """For p in [0, cap-1]^m, the conjugate transpose of the map
    xi -> J* (I (x) left*) E(z) (z^p (x) xi): block a of its rows is
    left_a T*^(p+e_a), because E(z) moves block a up variable a."""
    m = j_map.tuple.n
    return np.concatenate(
        [
            left[sl] @ j_map.coeffs[_lower(m, cap, a)]
            for a, sl in enumerate(block_slices(partition))
        ],
        axis=-2,
    )


def block_pullback_residuals(
    hat_t: OperatorTuple,
    cert: DilationCertificate,
    j_map: CoefficientEmbedding,
    cap: int,
) -> tuple[float, float]:
    """How well the embedding adjoint pulls block monomials back to the tuple.

    Pushing a monomial (optionally through the block shift) into the
    coefficientwise block-column adjoint and then through the embedding
    adjoint must land on T^p applied to the matching block map's adjoint.
    Returns (shifted residual, plain residual) over all monomials with shift
    room inside the cap.
    """
    col_plain, col_shift = defect_block_maps(cert, hat_t)
    powers = j_map.coeffs[_lower(hat_t.n, cap)]
    shifted = _shifted_coefficients(j_map, col_plain, cert.ranks, cap)
    res_shifted = _max_row_norm(shifted - col_shift @ powers)
    plain = CoefficientEmbedding(hat_t, col_plain, cap).coeffs[_lower(hat_t.n, cap)]
    return res_shifted, _max_row_norm(col_plain @ powers - plain)


def adjoint_monomial_residual(
    pi_map: CoefficientEmbedding, cert: DilationCertificate, cap: int
) -> float:
    """Residual of  Pi*(z^p (x) m) = T^p D* m  over the full box.

    Pi*(z^p (x) m) is the conjugate transpose of Pi's p-th coefficient
    applied to m, so the identity compares Pi with the embedding whose
    output map is (D* frame)*.
    """
    target = cert.defect @ cert.d_frame  # D* restricted to the frame coordinates
    box = (slice(0, cap + 1),) * pi_map.tuple.n
    other = CoefficientEmbedding(pi_map.tuple, adj(target), cap)
    return _max_row_norm(pi_map.coeffs[box] - other.coeffs)


def colligation_pullback_residual(
    hat_t: OperatorTuple,
    cert: DilationCertificate,
    pi_map: CoefficientEmbedding,
    j_map: CoefficientEmbedding,
    c_block: np.ndarray,
    d_block: np.ndarray,
    cap: int,
) -> float:
    """Pullback of one resolvent step through the colligation's lower row.

    The embedding-adjoint pullback of (identity minus block-shifted D*-block)
    must equal the dilation-isometry adjoint composed with the C*-block,
    coefficientwise on monomials.
    """
    col_plain, _ = defect_block_maps(cert, hat_t)
    lower = _lower(hat_t.n, cap)
    lhs = col_plain @ j_map.coeffs[lower] - d_block @ _shifted_coefficients(
        j_map, col_plain, cert.ranks, cap
    )
    return _max_row_norm(lhs - c_block @ pi_map.coeffs[lower])


def defect_embedding_residual(
    pi_map: CoefficientEmbedding, j_map: CoefficientEmbedding, cert: DilationCertificate
) -> float:
    """Residual of  (I (x) D) J = Pi, in the norm of the whole image of each
    basis vector."""
    proj = adj(cert.d_frame) @ cert.defect
    diff = proj @ j_map.coeffs - pi_map.coeffs
    d = pi_map.tuple.dim
    return float(np.max(np.linalg.norm(diff.reshape(-1, d), axis=0), initial=0.0))


def intertwine_mz_residual(pi_map: CoefficientEmbedding, hat_t: OperatorTuple) -> float:
    """Residual of  Pi T_i* = M_{z_i}* Pi  on comparable coefficients.

    Both sides' k-th coefficient equals frame* D T*^k T_i*; the comparison
    runs over k with k + e_i inside the cap, which is everything the
    truncated right-hand side determines.  Columns are basis vectors h.
    """
    m, cap = hat_t.n, pi_map.cap
    res = 0.0
    for a, op in enumerate(hat_t.ops):
        low = tuple(slice(0, cap) if b == a else slice(None) for b in range(m))
        high = tuple(slice(1, None) if b == a else slice(None) for b in range(m))
        diff = pi_map.coeffs[low] @ adj(op) - pi_map.coeffs[high]
        res = max(res, float(np.max(np.linalg.norm(diff, axis=-2), initial=0.0)))
    return res

"""Truncated vector-valued Hardy space over the polydisc, as dense tensors.

An element of H^2_{C^e}(D^m) truncated to the box [0, N]^m is an array of
shape (N+1,)*m + (e,) whose entry at the multi-index k is its k-th Taylor
coefficient.  The dilation isometry h -> sum_k z^k (frame* D T*^k h) is held
as its coefficient tensor of shape (N+1,)*m + (e, d), so every basis vector
is handled at once.  One row of the identity suite reads the box:
``pi_isometry_defect`` compares the norm the box loses with its exact value,
``box_gap``.  The other rows are finite identities with no box.  The box has
(cap+1)^m e d complex entries, at most ``MAX_BOX_ENTRIES``.

The defect block maps and block ranges of a certificate, from which the
generating unitary is built, live here too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import DimensionMismatch, NotPure
from .matcore import adj, operator_norm
from .tuples import OperatorTuple, DilationCertificate, is_pure, spectral_radius

DEFAULT_CAP = 12
# Largest coefficient tensor the identity suite builds: 2^25 complex entries
# are 512 MiB.
MAX_BOX_ENTRIES = 2**25


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
# coefficient embeddings and the dilation isometry


class CoefficientEmbedding:
    """Map h -> sum_k z^k (M T*^k h) over the truncated multi-index box.

    ``coeffs`` has shape (cap+1,)*m + (out, d) and holds M T*^k at k, built
    by one cumulative product per axis.  With M = frame* D this is the
    canonical dilation isometry; with M = I its coefficients are the powers
    T*^k.  The adjoint sends z^k c to T^k M* c, the conjugate transpose of
    the k-th coefficient applied to c.
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

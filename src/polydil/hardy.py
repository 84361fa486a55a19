"""The dilation isometry on the truncated polydisc box, and the defect
block maps of a certificate.

One row of the identity suite reads the dilation isometry
Pi h = sum_k z^k (frame* D T*^k h) on the box [0, cap]^m, and only through
||Pi h||^2: ``pi_isometry_defect`` compares the norm the box loses with its
exact value, ``box_gap``.  So the box is held as its d x d Gram operator,
built in O(log cap) products, and no coefficient is stored.  The defect
block maps and block ranges, from which the generating unitary is built,
live here too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import DimensionMismatch, NotPure
from .matcore import adj, operator_norm  # noqa: F401 (perfbench traces hardy.operator_norm)
from .tuples import OperatorTuple, DilationCertificate, is_pure, spectral_radius


# ---------------------------------------------------------------------------
# the dilation isometry on the box


def _power_sum(a: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    """sum_{j < count} A^j Y A*^j for count >= 1, by doubling over the
    binary digits of count: S_2c = S_c + A^c S_c A*^c and
    S_(c+1) = Y + A S_c A*, at most six products per digit."""
    total, power = y, a
    for bit in bin(count)[3:]:
        total = total + power @ total @ adj(power)
        power = power @ power
        if bit == "1":
            total = y + a @ total @ adj(a)
            power = a @ power
    return total


class CoefficientEmbedding:
    """Map h -> sum_k z^k (M T*^k h) over the box [0, cap]^m, held as its
    Gram operator ``gram`` = sum_k T^k M* M T*^k, summed one axis at a time.
    With M = frame* D this is the canonical dilation isometry.
    """

    def __init__(self, t: OperatorTuple, out_map, cap: int):
        out_map = matcore.as_matrix(out_map)
        if out_map.shape[1] != t.dim:
            raise DimensionMismatch("output map must act on the tuple's space")
        self.gram = adj(out_map) @ out_map
        for op in t.ops:
            self.gram = _power_sum(op, self.gram, int(cap) + 1)

    def isometry_defect(self, h) -> float:
        """||Pi h||^2 - ||h||^2 = <gram h, h> - <h, h>; nonpositive up to
        rounding, and zero once the cap swallows every nonzero coefficient."""
        h = np.asarray(h, dtype=complex).reshape(-1)
        if h.size != self.gram.shape[0]:
            raise DimensionMismatch("vector dimension mismatch")
        return float(np.vdot(h, self.gram @ h).real - np.vdot(h, h).real)


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

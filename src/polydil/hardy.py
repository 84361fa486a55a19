"""The dilation isometry on the truncated polydisc box.

One row of the identity suite reads the dilation isometry
Pi h = sum_k z^k (frame* D T*^k h) on the box [0, cap]^m, and only through
||Pi h||^2: ``pi_isometry_defect`` compares the norm the box loses with its
exact value, ``box_gap``.  So the box is held as its d x d Gram operator,
built in O(log cap) products, and no coefficient is stored.  The frame map
M = frame* D is built in ``realization``.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .errors import DimensionMismatch
from .matcore import adj, operator_norm  # noqa: F401 (perfbench traces hardy.operator_norm)
from .tuples import OperatorTuple, _conjugation_gap


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


def box_gap(t: OperatorTuple, cap: int) -> np.ndarray:
    """The part of the identity that the box [0, cap]^m misses:
    gap = I - sum_k T^k S T*^k over the box, with S the Szego defect.

    Summing each axis telescopes, so the box sum is
    prod_a (Id - C_{P_a}) applied to I, with P_a = T_a^(cap+1) and
    C_P(X) = P X P*, and gap is ``tuples._conjugation_gap`` of the P_a
    at I.  For the canonical isometry, whose M* M is S,
    ||Pi h||^2 - ||h||^2 = -<gap h, h>.
    """
    powers = [np.linalg.matrix_power(op, cap + 1) for op in t.ops]
    return _conjugation_gap(powers, np.eye(t.dim, dtype=complex))

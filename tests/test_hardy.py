import itertools

import numpy as np
import pytest

from polydil import generators, hardy, matcore, tuples
from polydil.matcore import adj

from conftest import (
    box_coefficients,
    box_isometry_defect,
    diagonal_triple,
    oracle_range_onb,
    random_complex,
    telescoping,
    w1_product_triple,
    w3_nonnormal,
)


def zero_pair(d=2):
    z = np.zeros((d, d))
    return tuples.make_tuple([z, z])


def support(coeffs):
    """The multi-indices of the nonzero coefficients of a dense element."""
    return {tuple(k) for k in np.argwhere(np.any(coeffs != 0, axis=-1))}


def kernel_tensor(w, cap):
    """Coefficients conj(w)^k of the truncated Szego kernel k_w on the box."""
    axes = [np.conj(wi) ** np.arange(cap + 1) for wi in w]
    return np.einsum("i,j->ij", *axes)


def adjoint_apply(coeffs, f):
    """Pi* f = sum_k T^k M* f_k for a coefficient array f on the box: the
    conjugate transposes of Pi's coefficients applied to f, exact on the box."""
    return np.tensordot(f, coeffs.conj(), axes=f.ndim)


def diag_pair(rng):
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    return tuples.make_tuple([0.6 * u, 0.5 * np.eye(3)])


# ---------------------------------------------------------------------------
# kernels and the adjoint pairing, on the box oracle


def test_kernel_at_origin(rng):
    # k_0 is the constant 1, so Pi* (k_0 (x) eta) = M* eta
    t = diag_pair(rng)
    m = random_complex(rng, 2, 3)
    coeffs = box_coefficients(t, m, 4)
    eta = random_complex(rng, 2)
    f = kernel_tensor((0.0, 0.0), 4)[..., None] * eta
    assert np.allclose(adjoint_apply(coeffs, f), adj(m) @ eta, atol=1e-14)


def test_kernel_single_variable_half():
    # for a scalar contraction t the embedding maps 1 to the Szego kernel
    # k_t, so (J 1)(t) = 1 / (1 - |t|^2), here 4/3 up to the tail 0.25^(N+1)
    cap = 30
    coeffs = box_coefficients(tuples.make_tuple([[[0.5]]]), np.eye(1), cap)[:, 0, 0]
    assert np.sum(coeffs * 0.5 ** np.arange(cap + 1)) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_reproducing_property_general_element(rng, jordan22):
    # <Pi h, k_w (x) eta> = <(Pi h)(w), eta>, and (Pi h)(w) is the resolvent
    # M (I - w_1 T_1*)^{-1} (I - w_2 T_2*)^{-1} h, whose series the box
    # holds exactly for a nilpotent pair
    cap = 6
    w = (0.3, 0.25j)
    m = random_complex(rng, 2, 4)
    coeffs = box_coefficients(jordan22, m, cap)
    h = random_complex(rng, 4)
    eta = random_complex(rng, 2)
    f = kernel_tensor(w, cap)[..., None] * eta
    value = m @ np.linalg.solve(
        np.eye(4) - w[1] * adj(jordan22.op(2)),
        np.linalg.solve(np.eye(4) - w[0] * adj(jordan22.op(1)), h),
    )
    assert np.vdot(f, coeffs @ h) == pytest.approx(np.vdot(eta, value), abs=1e-12)


def test_adjoint_pairing_exact_below_cap(rng):
    # <Pi h, f> = <h, Pi* f> for a dense f on a non-nilpotent pair
    cap = 5
    t = diag_pair(rng)
    coeffs = box_coefficients(t, random_complex(rng, 2, 3), cap)
    h = random_complex(rng, 3)
    f = random_complex(rng, cap + 1, cap + 1, 2)
    assert np.vdot(f, coeffs @ h) == pytest.approx(np.vdot(adjoint_apply(coeffs, f), h), abs=1e-12)


def test_coefficients_match_matrix_powers(rng):
    # coeffs[k] = M T_1*^k1 T_2*^k2 on a commuting non-normal pair
    t1 = 0.5 * np.eye(3) + 0.5 * generators.lower_shift(3)
    t = tuples.make_tuple([t1, 0.3 * t1 @ t1])
    m = random_complex(rng, 2, 3)
    cap = 3
    coeffs = box_coefficients(t, m, cap)
    assert coeffs.shape == (cap + 1, cap + 1, 2, 3)
    for k in itertools.product(range(cap + 1), repeat=2):
        expected = m
        for op, power in zip(t.ops, k):
            expected = expected @ np.linalg.matrix_power(adj(op), power)
        assert np.allclose(coeffs[k], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# canonical isometry


def test_canonical_isometry_zero_tuple(rng):
    t = zero_pair(3)
    defect = matcore.psd_sqrt(tuples.szego_defect(t))
    frame = oracle_range_onb(defect, matcore.EIG_TOL)
    pi = hardy.CoefficientEmbedding(t, adj(frame) @ defect, 4)
    h = random_complex(rng, 3)
    assert support(box_coefficients(t, adj(frame) @ defect, 4) @ h) == {(0, 0)}
    assert pi.isometry_defect(h) == pytest.approx(0.0, abs=1e-14)


def test_canonical_isometry_nilpotent_exact(jordan22):
    defect = matcore.psd_sqrt(tuples.szego_defect(jordan22))
    frame = oracle_range_onb(defect, matcore.EIG_TOL)
    pi = hardy.CoefficientEmbedding(jordan22, adj(frame) @ defect, 2)
    for idx in range(jordan22.dim):
        h = np.zeros(jordan22.dim)
        h[idx] = 1.0
        assert abs(pi.isometry_defect(h)) < 1e-12


def test_canonical_isometry_defect_below_tail(rng):
    # non-nilpotent pure pair: the truncation loss is exactly -<gap h, h>
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    t = tuples.make_tuple([0.6 * u, 0.5 * np.eye(3)])
    defect = matcore.psd_sqrt(tuples.szego_defect(t))
    frame = oracle_range_onb(defect, matcore.EIG_TOL)
    cap = 12
    pi = hardy.CoefficientEmbedding(t, adj(frame) @ defect, cap)
    gap = hardy.box_gap(t, cap)
    h = random_complex(rng, 3)
    h /= np.linalg.norm(h)
    predicted = -np.vdot(h, gap @ h).real
    assert predicted < -1e-8  # the box visibly misses part of the norm
    assert pi.isometry_defect(h) == pytest.approx(predicted, abs=1e-14)
    assert pi.isometry_defect(h) <= 1e-15  # never exceeds the true norm


# the Gram operator against the box oracle, at caps whose binary digits
# take every branch of the doubling; W2's box at cap 60 has 61^3 e d
# entries, too many for the oracle
GRAM_CASES = {
    "W1": lambda rng: w1_product_triple(),
    "W2": lambda rng: telescoping(4),
    "W3": lambda rng: w3_nonnormal(),
    "diagonal_triple": diagonal_triple,
    "jordan_pair r=1": lambda rng: generators.product_triple(
        generators.jordan_pair(3, 2, 1.0, 1.0), 2, 1
    ),
}


@pytest.mark.parametrize(
    "name, cap",
    [(name, cap) for name in GRAM_CASES for cap in (1, 8, 12, 60) if (name, cap) != ("W2", 60)],
)
def test_gram_row_matches_the_box_row(name, cap, rng):
    t, cert = GRAM_CASES[name](rng)
    hat_t = tuples.hat(t, t.n)
    m = adj(cert.d_frame) @ cert.defect
    pi = hardy.CoefficientEmbedding(hat_t, m, cap)
    coeffs = box_coefficients(hat_t, m, cap)
    gap = hardy.box_gap(hat_t, cap).diagonal().real
    basis = np.eye(t.dim)
    gram = np.array([pi.isometry_defect(h) for h in basis])
    box = np.array([box_isometry_defect(coeffs, h) for h in basis])
    assert np.max(np.abs(gram - box)) <= 2e-15
    # the pi_isometry_defect row of the identity suite, from each
    assert abs(np.max(np.abs(gram + gap)) - np.max(np.abs(box + gap))) <= 2e-15


def test_gram_sum_has_cap_plus_one_terms_per_axis():
    # a scalar coordinate a sums 1 + a^2 + ... + a^(2 cap) on its axis
    t = tuples.make_tuple([[[0.5]], [[0.25]]])
    for cap in (1, 2, 7, 12, 1000):
        gram = hardy.CoefficientEmbedding(t, np.eye(1), cap).gram[0, 0]
        expected = np.prod([(1 - a ** (2 * cap + 2)) / (1 - a**2) for a in (0.5, 0.25)])
        assert gram == pytest.approx(expected, rel=1e-15, abs=0), cap


def test_box_gap_is_the_inclusion_exclusion_sum(rng):
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    t = tuples.make_tuple([0.6 * u, 0.5 * np.eye(3), 0.7 * u @ u])
    cap = 2
    expected = np.zeros((3, 3), dtype=complex)
    for size in (1, 2, 3):
        for subset in itertools.combinations(t.ops, size):
            p = np.linalg.matrix_power(np.linalg.multi_dot([np.eye(3), *subset]), cap + 1)
            expected += (-1) ** (size + 1) * p @ adj(p)
    assert np.allclose(hardy.box_gap(t, cap), expected, rtol=0, atol=1e-15)
    assert np.array_equal(hardy.box_gap(zero_pair(), cap), np.zeros((2, 2)))


def test_intertwining_exact(jordan22):
    # Pi T_i* = M_{z_i}* Pi: the coefficient at k + e_i is the one at k times T_i*
    defect = matcore.psd_sqrt(tuples.szego_defect(jordan22))
    coeffs = box_coefficients(jordan22, adj(oracle_range_onb(defect, matcore.EIG_TOL)) @ defect, 3)
    for i, op in enumerate(jordan22.ops):
        low = np.take(coeffs, range(3), axis=i)
        high = np.take(coeffs, range(1, 4), axis=i)
        assert np.array_equal(low @ adj(op), high)


# ---------------------------------------------------------------------------
# the tuple embedding J, the box oracle with M = I


def test_tuple_embedding_zero_tuple(rng):
    t = zero_pair(2)
    h = random_complex(rng, 2)
    out = box_coefficients(t, np.eye(2), 3) @ h
    assert support(out) == {(0, 0)}
    assert np.allclose(out[0, 0], h)


def test_tuple_embedding_finite_support(jordan22):
    j = box_coefficients(jordan22, np.eye(jordan22.dim), 6)
    h = np.ones(jordan22.dim)
    assert support(j @ h) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_id4_identity(triple22):
    # (I (x) frame* D) J = Pi
    t, cert = triple22
    hat_t = tuples.hat(t, 3)
    m = adj(cert.d_frame) @ cert.defect
    diff = m @ box_coefficients(hat_t, np.eye(hat_t.dim), 4) - box_coefficients(hat_t, m, 4)
    # the norm of the whole image of each basis vector
    assert np.max(np.linalg.norm(diff.reshape(-1, t.dim), axis=0)) < 1e-12


# ---------------------------------------------------------------------------
# the block shift


def test_block_shift_constant_block(rng):
    # E(z) moves block a of a constant up variable a, so the J-pullback of the
    # shifted constants is F_a T_a* on the rows of block a: J's coefficient at e_a
    t = diag_pair(rng)
    left = random_complex(rng, 3, 3)
    j = box_coefficients(t, np.eye(3), 2)
    assert np.allclose(left[:2] @ j[1, 0], left[:2] @ adj(t.op(1)), atol=1e-15)
    assert np.allclose(left[2:] @ j[0, 1], left[2:] @ adj(t.op(2)), atol=1e-15)


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polydil import matcore
from polydil.errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    NotHermitian,
    NotIsometric,
    NotPsd,
)
from polydil.matcore import adj

from conftest import random_complex, random_unitary


# ---------------------------------------------------------------------------
# oracles


def eig2x2_hermitian(a):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix."""
    tr = (a[0, 0] + a[1, 1]).real
    disc = np.sqrt(((a[0, 0] - a[1, 1]).real / 2) ** 2 + abs(a[0, 1]) ** 2)
    return sorted([tr / 2 - disc, tr / 2 + disc])


def power_iteration_norm(a, iters=500):
    """Top singular value via power iteration on A*A."""
    m = adj(a) @ a
    v = np.ones(m.shape[0], dtype=complex)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = m @ v
        lam = np.linalg.norm(w)
        if lam == 0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def cofactor_det(a):
    """Determinant by cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def vieta_coeffs(roots):
    """Monic coefficients (highest first) reconstructed from roots."""
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -r], dtype=complex))
    return coeffs


# ---------------------------------------------------------------------------
# herm_eig


def test_herm_eig_identity():
    res = matcore.herm_eig(np.eye(2))
    assert np.allclose(res.eigenvalues, [1.0, 1.0])
    assert matcore.operator_norm(adj(res.eigenvectors) @ res.eigenvectors - np.eye(2)) < 1e-12


def test_herm_eig_diagonal_sorted():
    res = matcore.herm_eig(np.diag([3.0, -1.0]))
    assert np.allclose(res.eigenvalues, [-1.0, 3.0])


def test_herm_eig_2x2_against_closed_form():
    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    expected = eig2x2_hermitian(a)
    res = matcore.herm_eig(a)
    assert np.allclose(res.eigenvalues, expected)
    assert np.allclose(res.eigenvalues, [1.0, 3.0])


def test_herm_eig_reconstruction_random(rng):
    a = random_complex(rng, 6, 6)
    a = a + adj(a)
    w, v = matcore.herm_eig(a)
    assert matcore.operator_norm(a - (v * w) @ adj(v)) < 1e-10 * max(1, matcore.operator_norm(a))
    assert matcore.operator_norm(adj(v) @ v - np.eye(6)) < 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        matcore.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# psd_sqrt


def test_psd_sqrt_diagonal():
    assert np.allclose(matcore.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_identity():
    assert np.allclose(matcore.psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_square_back():
    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    r = matcore.psd_sqrt(a)
    assert matcore.operator_norm(r @ r - a) < 1e-12
    assert matcore.operator_norm(r - adj(r)) < 1e-13


def test_psd_sqrt_clamps_boundary_noise():
    eps = 1e-12
    a = np.diag([1.0, -eps])
    r = matcore.psd_sqrt(a, tol=1e-9)
    assert r[1, 1].real >= 0.0


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsd):
        matcore.psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_idempotent_eigenvalues(rng):
    a = random_complex(rng, 4, 4)
    r0 = matcore.psd_sqrt(a @ adj(a))
    again = matcore.psd_sqrt(r0 @ r0)
    w1 = matcore.herm_eig(r0).eigenvalues
    w2 = matcore.herm_eig(again).eigenvalues
    assert np.max(np.abs(w1 - w2)) < 1e-10


# ---------------------------------------------------------------------------
# operator_norm


def test_operator_norm_diagonal():
    assert matcore.operator_norm(np.diag([0.5, 1 / 3])) == pytest.approx(0.5)


def test_operator_norm_shift():
    assert matcore.operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def test_operator_norm_against_power_iteration(rng):
    a = random_complex(rng, 3, 3)
    assert matcore.operator_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-10)


def test_operator_norm_submultiplicative(rng):
    for _ in range(25):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        assert matcore.operator_norm(a @ b) <= (
            matcore.operator_norm(a) * matcore.operator_norm(b) + 1e-12
        )


# ---------------------------------------------------------------------------
# kernel_basis / range_onb


def test_kernel_basis_zero_matrix():
    k = matcore.kernel_basis(np.zeros((2, 2)))
    assert k.shape == (2, 2)
    assert matcore.operator_norm(adj(k) @ k - np.eye(2)) < 1e-12


def test_kernel_basis_identity_empty():
    assert matcore.kernel_basis(np.eye(2)).shape == (2, 0)


def test_kernel_basis_coordinate():
    k = matcore.kernel_basis(np.diag([0.0, 1.0]))
    assert k.shape == (2, 1)
    assert abs(abs(k[0, 0]) - 1.0) < 1e-12


def test_kernel_basis_annihilates(rng):
    a = random_complex(rng, 4, 6)
    a[:, 3] = a[:, 0] + a[:, 1]
    a[:, 4] = a[:, 2]
    k = matcore.kernel_basis(a, 1e-10)
    assert k.shape[1] >= 2
    for col in k.T:
        assert np.linalg.norm(a @ col) < 1e-9 * max(1, matcore.operator_norm(a))


def test_range_onb_duplicate_collapse():
    e1 = np.array([1.0, 0.0], dtype=complex)
    q = matcore.range_onb([e1, e1])
    assert q.shape == (2, 1)


def test_range_onb_orthonormal_inputs():
    q = matcore.range_onb(np.eye(2))
    assert q.shape == (2, 2)


def test_range_onb_full_space():
    vecs = [
        np.array([1.0, 1.0]) / np.sqrt(2),
        np.array([1.0, -1.0]) / np.sqrt(2),
        np.array([1.0, 0.0]),
    ]
    assert matcore.range_onb(vecs).shape == (2, 2)


# ---------------------------------------------------------------------------
# unitary_completion


def test_unitary_completion_forced_on_span():
    dom = np.array([[1.0], [0.0]], dtype=complex)
    img = np.array([[0.0], [1.0]], dtype=complex)
    u = matcore.unitary_completion(dom, img, 2)
    assert np.allclose(u @ dom, img)
    assert matcore.operator_norm(adj(u) @ u - np.eye(2)) < 1e-12


def test_unitary_completion_identity():
    u = matcore.unitary_completion(np.eye(3), np.eye(3), 3)
    assert np.allclose(u, np.eye(3))


def test_unitary_completion_random_subspace(rng):
    q_dom, _ = np.linalg.qr(random_complex(rng, 4, 2))
    q_img, _ = np.linalg.qr(random_complex(rng, 4, 2))
    u = matcore.unitary_completion(q_dom, q_img, 4)
    assert matcore.operator_norm(adj(u) @ u - np.eye(4)) < 1e-12
    assert matcore.operator_norm(u @ q_dom - q_img) < 1e-12


def test_unitary_completion_rank_deficient_frames(rng):
    base = random_complex(rng, 5, 2)
    dom = np.column_stack([base[:, 0], base[:, 1], base[:, 0] + base[:, 1]])
    v = random_unitary(rng, 5)
    img = v @ dom
    u = matcore.unitary_completion(dom, img, 5)
    assert matcore.operator_norm(u @ dom - img) < 1e-8 * matcore.operator_norm(dom)
    assert matcore.operator_norm(adj(u) @ u - np.eye(5)) < 1e-12


def test_unitary_completion_deterministic(rng):
    q_dom, _ = np.linalg.qr(random_complex(rng, 4, 2))
    q_img, _ = np.linalg.qr(random_complex(rng, 4, 2))
    u1 = matcore.unitary_completion(q_dom, q_img, 4)
    u2 = matcore.unitary_completion(q_dom, q_img, 4)
    assert np.array_equal(u1, u2)


def test_unitary_completion_permuted_order_still_extends(rng):
    q_dom, _ = np.linalg.qr(random_complex(rng, 4, 2))
    q_img, _ = np.linalg.qr(random_complex(rng, 4, 2))
    u = matcore.unitary_completion(q_dom, q_img, 4, completion_order=[3, 2, 1, 0])
    assert matcore.operator_norm(u @ q_dom - q_img) < 1e-12
    assert matcore.operator_norm(adj(u) @ u - np.eye(4)) < 1e-12


def test_unitary_completion_rejects_gram_mismatch():
    dom = np.array([[1.0], [0.0]], dtype=complex)
    img = np.array([[0.0], [2.0]], dtype=complex)
    with pytest.raises(NotIsometric):
        matcore.unitary_completion(dom, img, 2)


def test_unitary_completion_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        matcore.unitary_completion(np.eye(2), np.eye(2), 3)


# ---------------------------------------------------------------------------
# poly_roots / det / eigvals


def test_poly_roots_factorable():
    roots = matcore.poly_roots([1.0, 0.0, -1.0])
    assert np.allclose(roots, [-1.0, 1.0])


def test_poly_roots_repeated():
    roots = matcore.poly_roots([1.0, 0.0, 0.0])
    assert np.allclose(roots, [0.0, 0.0])


def test_poly_roots_vieta_cubic(rng):
    coeffs = np.concatenate([[1.0], random_complex(rng, 3)])
    roots = matcore.poly_roots(coeffs)
    assert np.max(np.abs(vieta_coeffs(roots) - coeffs)) < 1e-8


def test_poly_roots_degenerate_leading():
    with pytest.raises(DegenerateLeadingCoefficient):
        matcore.poly_roots([0.0, 1.0, 2.0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False)
)
def test_poly_roots_scale_invariant(scale):
    coeffs = np.array([1.0, -2.0, 0.5, 1.0 + 1.0j])
    r1 = matcore.poly_roots(coeffs)
    r2 = matcore.poly_roots(scale * coeffs)
    assert np.max(np.abs(r1 - r2)) < 1e-7


def test_det_identity():
    assert matcore.det(np.eye(3)) == pytest.approx(1.0)


def test_det_diagonal():
    assert matcore.det(np.diag([2.0, 3.0j])) == pytest.approx(6.0j)


def test_det_against_cofactors(rng):
    a = random_complex(rng, 4, 4)
    assert abs(matcore.det(a) - cofactor_det(a)) < 1e-10 * max(1, abs(cofactor_det(a)))


def test_det_stack_matches_single(rng):
    stack = random_complex(rng, 5, 3, 3)
    dets = matcore.det(stack)
    assert dets.shape == (5,)
    assert all(dets[g] == matcore.det(stack[g]) for g in range(5))
    assert matcore.det(np.zeros((0, 0))) == 1.0


def test_char_poly_roots_match_diag():
    a = np.diag([0.5, -0.25 + 0.1j, 0.3j])
    roots = matcore.eigvals(a)
    expected = sorted([0.5, -0.25 + 0.1j, 0.3j], key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(roots - np.array(expected))) < 1e-10
    # a stack is sorted per matrix, like the roots of its characteristic polynomials
    stack = np.stack([a, np.diag([0.1 + 0.2j, -0.2, 0.05 - 0.3j])])
    roots = matcore.eigvals(stack)
    assert np.max(np.abs(roots[0] - np.array(expected))) < 1e-10
    assert np.max(np.abs(roots[1] - np.array([-0.2, 0.05 - 0.3j, 0.1 + 0.2j]))) < 1e-10
    for m in stack:
        char = np.poly(np.diag(m))  # built from the known roots, not from eigenvalues
        assert np.max(np.abs(matcore.eigvals(m) - matcore.poly_roots(char))) < 1e-8


# ---------------------------------------------------------------------------
# inv_resolvent: one row of diagonals per point


def test_inv_resolvent_zero():
    x, regular = matcore.inv_resolvent(np.zeros((2, 2)), np.ones((3, 2)))
    assert x.shape == (3, 2, 2) and regular.all()
    assert np.allclose(x, np.eye(2))


def test_inv_resolvent_scalar_geometric():
    x, regular = matcore.inv_resolvent(np.array([[0.5]]), np.array([[0.5], [-1.0]]))
    assert regular.all()
    assert np.allclose(x[:, 0, 0], [4.0 / 3.0, 2.0 / 3.0])


def test_inv_resolvent_random_contractions(rng):
    d = random_complex(rng, 4, 4)
    d *= 0.6 / matcore.operator_norm(d)
    zeta = 0.9 * np.exp(2j * np.pi * rng.uniform(size=(5, 4)))
    x, regular = matcore.inv_resolvent(d, zeta)
    assert regular.all()
    for g in range(5):
        res = matcore.operator_norm((np.eye(4) - d @ np.diag(zeta[g])) @ x[g] - np.eye(4))
        assert res < 1e-12


def test_inv_resolvent_singular():
    # the exactly singular point does not stop the others from being solved
    zeta = np.array([[0.5, 0.5], [1.0, 1.0], [0.0, 0.0]])
    x, regular = matcore.inv_resolvent(np.eye(2), zeta)
    assert regular.tolist() == [True, False, True]
    assert np.allclose(x[0], 2.0 * np.eye(2))
    assert np.allclose(x[2], np.eye(2))
    assert not x[1].any()

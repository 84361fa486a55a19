import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polydil import generators, matcore, realization as rz
from polydil.errors import (
    DimensionMismatch,
    NotHermitian,
    NotIsometric,
    NotPsd,
)
from polydil.matcore import adj

from conftest import (
    DegenerateLeadingCoefficient,
    mgs_unitary_completion,
    poly_roots,
    random_complex,
    random_unitary,
    resolvent_solve,
    w2_tensor_jordan,
    w3_nonnormal,
)


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


def test_herm_eigs_goes_one_by_one_past_a_non_finite_matrix(rng):
    # an inf makes the symmetrized stack non-finite: no stacked call, each
    # matrix gets its own, and the second raises what herm_eig raises alone
    first = random_complex(rng, 3, 3)
    first = first + adj(first)
    second = np.eye(3, dtype=complex)
    second[0, 1] = np.inf
    eigs = matcore.herm_eigs(np.stack([first, second]))
    w, v = next(eigs)
    alone = matcore.herm_eig(first)
    assert w.tobytes() == alone.eigenvalues.tobytes()
    assert v.tobytes() == alone.eigenvectors.tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        next(eigs)
    with pytest.raises(ValueError, match="non-finite"):
        matcore.herm_eig(second)


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


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_psd_clamp_flips_at_its_threshold(tol, side):
    # an eigenvalue at -tol (1 - 1e-6) is clamped to 0, one at -tol (1 + 1e-6)
    # is refused with its value
    low = -tol * (1.0 + side * 1e-6)
    if side > 0:
        with pytest.raises(NotPsd) as refused:
            matcore.psd_sqrt(np.diag([1.0, low]), tol)
        assert refused.value.min_eig == low
    else:
        assert np.array_equal(matcore.psd_sqrt(np.diag([1.0, low]), tol), np.diag([1.0, 0.0]))


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
# kernel_basis / range_onbs


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


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("sigma0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_rank_cut_flips_at_its_threshold(tol, sigma0, side):
    # a singular value just above tol * max(1, sigma_0) is in the range, one
    # just below it in the kernel; sigma_0 = 0.25 pins the floor at 1
    sigma = tol * max(1.0, sigma0) * (1.0 + side * 1e-6)
    a = np.diag([sigma0, sigma, 0.0])
    rank = 1 + (side > 0)
    assert matcore.range_onbs(a[None], tol)[0].shape == (3, rank)
    assert matcore.kernel_basis(a, tol).shape == (3, 3 - rank)


def test_range_onb_duplicate_collapse():
    e1 = np.array([1.0, 0.0], dtype=complex)
    (q,) = matcore.range_onbs(np.column_stack([e1, e1])[None])
    assert q.shape == (2, 1)


def test_range_onb_orthonormal_inputs():
    (q,) = matcore.range_onbs(np.eye(2)[None])
    assert q.shape == (2, 2)


def test_range_onb_full_space():
    vecs = [
        np.array([1.0, 1.0]) / np.sqrt(2),
        np.array([1.0, -1.0]) / np.sqrt(2),
        np.array([1.0, 0.0]),
    ]
    assert matcore.range_onbs(np.column_stack(vecs)[None])[0].shape == (2, 2)


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


def completion_frame(name):
    """(domain, image) frames: the generating frames of W1-W3, a random
    full-rank pair, a rank-deficient pair, and a pair whose first standard
    basis vector is taken with a residual of about 1e-9, which one
    classical Gram-Schmidt pass loses to cancellation."""
    rng = np.random.default_rng(20240811)
    if name in ("W1", "W2", "W3"):
        pair = generators.jordan_pair(3, 3, 0.9, 0.9)
        t, cert = {
            "W1": lambda: generators.product_triple(pair, 2, 3),
            "W2": w2_tensor_jordan,
            "W3": w3_nonnormal,
        }[name]()
        return rz._domain_image_frames(t, cert)[:2]
    dom = {
        "full-rank": lambda: random_complex(rng, 7, 4),
        "rank-deficient": lambda: random_complex(rng, 7, 3) @ random_complex(rng, 3, 5),
        "near-threshold": lambda: np.array([[1.0], [1e-9], [0.0]]),
    }[name]()
    return dom, random_unitary(rng, len(dom)) @ dom


@pytest.mark.parametrize("reverse", [False, True], ids=["index-order", "reversed"])
@pytest.mark.parametrize(
    "name", ["W1", "W2", "W3", "full-rank", "rank-deficient", "near-threshold"]
)
def test_unitary_completion_matches_the_mgs_oracle(name, reverse, monkeypatch):
    dom, img = completion_frame(name)
    order = list(range(len(dom)))[::-1] if reverse else None
    taken = []
    complete = matcore._complete
    monkeypatch.setattr(matcore, "_complete", lambda *a: taken.append(complete(*a)) or taken[-1])
    u = matcore.unitary_completion(dom, img, len(dom), completion_order=order)
    u_mgs, taken_dom, taken_img = mgs_unitary_completion(dom, img, len(dom), completion_order=order)
    assert taken == [taken_dom, taken_img]
    assert matcore.operator_norm(u - u_mgs) <= 1e-13


TOL = 1e-8


def screen_frame(gram, ext, scale=1.0):
    """(domain, image) frames in C^4: the domain column scale*e_1 maps to
    sqrt(scale^2 + gram)*e_2, a Gram mismatch of ``gram`` against
    ||gram_d|| = scale^2, and a zero domain column maps to ext*e_4, an
    extension residual of ``ext`` that the Gram test sees only as ext^2."""
    dom, img = np.zeros((4, 2)), np.zeros((4, 2))
    dom[0, 0] = scale
    img[1, 0] = np.sqrt(scale**2 + gram)
    img[3, 1] = ext
    return dom, img


# name -> (frame parameters at a threshold-relative position s, whether the
# completion passes just above its threshold); each threshold is approached
# from both sides, and so is each screen's edge (half the smallest threshold)
SCREEN_CASES = {
    "gram-screen-edge": (lambda s: (0.5 * TOL * s, 0.0, 1.0), True),
    "gram": (lambda s: (TOL * s, 0.0, 1.0), False),
    "gram-scaled": (lambda s: (9 * TOL * s, 0.0, 3.0), False),
    "ext-screen-edge": (lambda s: (0.0, 0.5 * TOL * s, 1.0), True),
    "ext": (lambda s: (0.0, TOL * s, 1.0), False),
    "ext-scaled": (lambda s: (0.0, 3 * TOL * s, 3.0), False),
    "ext-raised-by-gram": (lambda s: (0.8 * TOL, 8 * TOL * s, 1.0), False),
}


def _completion_outcome(dom, img):
    try:
        return matcore.unitary_completion(dom, img, len(dom)).tobytes()
    except NotIsometric as exc:
        return NotIsometric, exc.residual


@pytest.mark.parametrize("side", ["inside", "outside"])
@pytest.mark.parametrize("name", list(SCREEN_CASES))
def test_completion_screen_matches_the_full_svd_oracle(name, side, monkeypatch):
    frame, outside_passes = SCREEN_CASES[name]
    dom, img = screen_frame(*frame(1 - 1e-3 if side == "inside" else 1 + 1e-3))
    screened = _completion_outcome(dom, img)
    # the oracle: every test on exact SVD norms, as before the screen
    monkeypatch.setattr(matcore, "_frobenius_within", lambda m, tol: False)
    oracle = _completion_outcome(dom, img)
    assert screened == oracle
    assert isinstance(oracle, bytes) == (side == "inside" or outside_passes)


def test_passing_completion_takes_no_svd(monkeypatch):
    dom, img = completion_frame("W1")
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    u = matcore.unitary_completion(dom, img, len(dom))
    assert calls == []
    monkeypatch.setattr(matcore, "_frobenius_within", lambda m, tol: False)
    assert matcore.unitary_completion(dom, img, len(dom)).tobytes() == u.tobytes()
    assert len(calls) == 3  # the full pass: Gram, its scale, extension


# ---------------------------------------------------------------------------
# poly_roots / det / eigvals


def test_poly_roots_factorable():
    roots = poly_roots([1.0, 0.0, -1.0])
    assert np.allclose(roots, [-1.0, 1.0])


def test_poly_roots_repeated():
    roots = poly_roots([1.0, 0.0, 0.0])
    assert np.allclose(roots, [0.0, 0.0])


def test_poly_roots_vieta_cubic(rng):
    coeffs = np.concatenate([[1.0], random_complex(rng, 3)])
    roots = poly_roots(coeffs)
    assert np.max(np.abs(vieta_coeffs(roots) - coeffs)) < 1e-8


def test_poly_roots_degenerate_leading():
    with pytest.raises(DegenerateLeadingCoefficient):
        poly_roots([0.0, 1.0, 2.0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False)
)
def test_poly_roots_scale_invariant(scale):
    coeffs = np.array([1.0, -2.0, 0.5, 1.0 + 1.0j])
    r1 = poly_roots(coeffs)
    r2 = poly_roots(scale * coeffs)
    assert np.max(np.abs(r1 - r2)) < 1e-7


def test_det_identity():
    assert matcore._det(np.eye(3, dtype=complex)) == pytest.approx(1.0)


def test_det_diagonal():
    assert matcore._det(np.diag([2.0, 3.0j])) == pytest.approx(6.0j)


def test_det_against_cofactors(rng):
    a = random_complex(rng, 4, 4)
    assert abs(matcore._det(a) - cofactor_det(a)) < 1e-10 * max(1, abs(cofactor_det(a)))


def test_det_stack_matches_single(rng):
    # the chunk map's workers take a stack's determinants with each matrix's own bits
    stack = random_complex(rng, 5, 3, 3)
    dets = matcore._det(stack)
    assert dets.shape == (5,)
    assert all(dets[g] == matcore._det(stack[g]) for g in range(5))
    assert matcore._det(np.zeros((0, 0), dtype=complex)) == 1.0
    with pytest.raises(ValueError):
        matcore._det(np.full((2, 2), np.nan, dtype=complex))


def test_char_poly_roots_match_diag():
    a = np.diag([0.5, -0.25 + 0.1j, 0.3j])
    roots = matcore._eigvals(a)
    expected = sorted([0.5, -0.25 + 0.1j, 0.3j], key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(roots - np.array(expected))) < 1e-10
    # a stack is sorted per matrix, like the roots of its characteristic polynomials
    stack = np.stack([a, np.diag([0.1 + 0.2j, -0.2, 0.05 - 0.3j])])
    roots = matcore._eigvals(stack)
    assert np.max(np.abs(roots[0] - np.array(expected))) < 1e-10
    assert np.max(np.abs(roots[1] - np.array([-0.2, 0.05 - 0.3j, 0.1 + 0.2j]))) < 1e-10
    for m in stack:
        char = np.poly(np.diag(m))  # built from the known roots, not from eigenvalues
        assert np.max(np.abs(matcore._eigvals(m) - poly_roots(char))) < 1e-8
    # each matrix of a stack keeps the bits of its own call
    assert all(np.array_equal(roots[g], matcore._eigvals(stack[g])) for g in range(2))


# ---------------------------------------------------------------------------
# the regular-point rule of the scattered Phi solve, rz._transfer_solve, on
# the realization with A = 0, C = 0, D* = d and B* = rhs (resolvent_solve):
# one row of diagonals per point, one shared right side


def test_inv_resolvent_zero(rng):
    rhs = random_complex(rng, 2, 3)
    y, regular = resolvent_solve(np.zeros((2, 2)), np.ones((3, 2)), rhs)
    assert y.shape == (3, 2, 3) and regular.all()
    assert np.allclose(y, rhs)


def test_inv_resolvent_scalar_geometric():
    y, regular = resolvent_solve([[0.5]], [[0.5], [-1.0]], [[1.0, 2j]])
    assert regular.all()
    assert np.allclose(y[:, 0], [[4.0 / 3.0, 8j / 3.0], [2.0 / 3.0, 4j / 3.0]])


def test_inv_resolvent_random_contractions(rng):
    d = random_complex(rng, 4, 4)
    d *= 0.6 / matcore.operator_norm(d)
    rhs = random_complex(rng, 4, 3)
    zeta = np.exp(2j * np.pi * rng.uniform(size=(6, 4)))
    zeta[:3] *= 0.9
    y, regular = resolvent_solve(d, zeta, rhs)
    assert y.shape == (6, 4, 3) and regular.all()
    for g in range(6):
        m = np.eye(4) - d @ np.diag(zeta[g])
        assert np.max(np.abs(y[g] - np.linalg.inv(m) @ rhs)) < 1e-13
        assert matcore.operator_norm(m @ y[g] - rhs) < 1e-12


def test_inv_resolvent_singular():
    # the exactly singular point does not stop the others from being solved
    zeta = np.array([[0.5, 0.5], [1.0, 1.0], [0.0, 0.0]])
    rhs = np.array([[1.0], [2j]])
    y, regular = resolvent_solve(np.eye(2), zeta, rhs)
    assert regular.tolist() == [True, False, True]
    assert np.allclose(y[0], 2.0 * rhs)
    assert np.allclose(y[2], rhs)
    assert not y[1].any()


@pytest.mark.parametrize("tol", [1e-8, 1e-4])
def test_inv_resolvent_solution_bound_at_threshold(tol, monkeypatch):
    # ||Y||_F = (1/tol)(1 -+ 1e-6) with an exact solve: only the bound decides
    monkeypatch.setattr(rz, "RESOLVENT_TOL", tol)
    for d, zeta in (([[0.0]], [[1.0]]), ([[0.5]], [[1.0]]), ([[0.5]], [[-1j]])):
        m = 1.0 - d[0][0] * zeta[0][0]
        for scale, expected in ((1 - 1e-6, True), (1 + 1e-6, False)):
            y, regular = resolvent_solve(d, zeta, [[m * scale / tol]])
            assert regular.tolist() == [expected], (d, zeta, scale)
            if expected:
                assert abs(y[0, 0, 0]) == pytest.approx(scale / tol, rel=1e-12)
            else:
                assert not y.any()


@pytest.mark.parametrize("rhs", [1.0, 2.0**26])
def test_inv_resolvent_residual_at_threshold(rhs, monkeypatch):
    # 1 - (-48) * 1 = 49 exactly, and 49 * fl(1/49) != 1: the narrow residual
    # is one rounding of the right side; 2^26 puts it at 7.5e-9, near the
    # default tol
    d, zeta = [[-48.0]], [[1.0]]
    monkeypatch.setattr(rz, "RESOLVENT_TOL", 1e-7)
    y, regular = resolvent_solve(d, zeta, [[rhs]])
    res = abs(49.0 * y[0, 0, 0] - rhs)
    assert regular.all() and res > 0.0
    for scale, expected in ((1 + 1e-6, True), (1 - 1e-6, False)):
        monkeypatch.setattr(rz, "RESOLVENT_TOL", res * scale)
        _, regular = resolvent_solve(d, zeta, [[rhs]])
        assert regular.tolist() == [expected], scale


def test_inv_resolvent_residual_norm_is_frobenius(monkeypatch):
    # two copies of the residual case above: the residual diag(res, res) has
    # operator norm res and Frobenius norm sqrt(2) res, and the rule reads
    # the Frobenius norm
    d, zeta, rhs = np.diag([-48.0, -48.0]), [[1.0, 1.0]], np.diag([2.0**26, 2.0**26])
    monkeypatch.setattr(rz, "RESOLVENT_TOL", 1e-7)
    y, regular = resolvent_solve(d, zeta, rhs)
    res = abs(49.0 * y[0, 0, 0] - 2.0**26)
    assert regular.all() and res > 0.0 and not y[0, 0, 1] and not y[0, 1, 0]
    for tol, expected in ((1.001 * res, False), (1.001 * np.sqrt(2.0) * res, True)):
        monkeypatch.setattr(rz, "RESOLVENT_TOL", tol)
        assert resolvent_solve(d, zeta, rhs)[1].tolist() == [expected], tol


def test_inv_resolvent_ill_conditioned_point_is_singular():
    # I - c D with c = 2 + 1e-15 has condition number 5e38; its solve is
    # exact to rounding, so only the bound on Y catches it
    d = 0.5 * np.array([[1.0, 1e4], [0.0, 1.0]])
    zeta = np.full((1, 2), 2.0 + 1e-15)
    m = np.eye(2) - d * zeta
    x = np.linalg.solve(m, np.eye(2))
    assert np.linalg.norm(m @ x - np.eye(2)) <= 1e-8 < 1e34 < np.linalg.norm(x)
    for rhs in (np.eye(2), np.eye(2)[:, :1], np.eye(2)[:, 1:]):
        y, regular = resolvent_solve(d, zeta, rhs)
        assert not regular[0] and not y.any()


def test_inv_resolvent_blind_spot():
    # the documented blind spot: M = diag(1 - c/2, 1) is nearly singular only
    # along e1, which the right side e2 never reaches, so Y stays bounded
    d = np.diag([0.5, 0.0])
    zeta = np.full((1, 2), 2.0 + 1e-15)
    y, regular = resolvent_solve(d, zeta, [[0.0], [1.0]])
    assert regular[0] and np.array_equal(y[0], [[0.0], [1.0]])
    _, regular = resolvent_solve(d, zeta, [[1.0], [0.0]])
    assert not regular[0]


def test_inv_resolvent_mask_matches_plain_numpy(monkeypatch):
    # I - c D is exactly singular at c = 2; next to it ||Y||_F runs from 4e6
    # to 4e20 and the residual from 6e-12 to 9e-5.  At tol = 1e-8 the bound
    # on Y decides (points pass the residual test and fail the bound), at
    # tol = 1e-10 the residual test does (bounded points fail it)
    d = 0.5 * np.array([[1.0, 1e4], [0.0, 1.0]])
    steps = np.logspace(-1, -8, 57)
    c = 2.0 + np.concatenate([-steps, [0.0], steps[::-1]])
    zeta = np.repeat(c[:, None], 2, axis=1)
    rhs = np.eye(2)
    m = np.eye(2) - d * zeta[:, None, :]
    solved = np.linalg.det(m) != 0
    m_solvable = np.where(solved[:, None, None], m, np.eye(2))
    y_ref = np.linalg.solve(m_solvable, np.broadcast_to(rhs, m.shape))
    frob = np.linalg.norm(y_ref, axis=(1, 2))
    res = np.linalg.norm(m @ y_ref - rhs, axis=(1, 2))
    for tol in (1e-8, 1e-10):
        monkeypatch.setattr(rz, "RESOLVENT_TOL", tol)
        y, regular = resolvent_solve(d, zeta, rhs)
        assert np.array_equal(regular, solved & (frob <= 1.0 / tol) & (res <= tol))
        assert np.array_equal(y[regular], y_ref[regular]) and not y[~regular].any()
        assert not regular[57]
        assert 1 < np.count_nonzero(regular[:57]) and 1 < np.count_nonzero(regular[58:])
    assert np.count_nonzero(solved & (res <= 1e-8) & ~(frob <= 1e8)) > 10
    assert np.count_nonzero(solved & (frob <= 1e10) & ~(res <= 1e-10)) > 10


# ---------------------------------------------------------------------------
# screened stack norms against a full SVD pass


def full_max_norm(a):
    return float(np.max(matcore.operator_norm(a), initial=0.0))


def full_within(a, tol):
    norms = matcore.operator_norm(a)
    return np.isfinite(norms) & (norms <= tol)


def same_float(x, y):
    return np.array(x).tobytes() == np.array(y).tobytes()


def rank_one_stack(rng, g, p, q):
    return random_complex(rng, g, p, 1) @ random_complex(rng, g, 1, q)


def screened_stacks(rng):
    one_big = 1e-3 * random_complex(rng, 50, 6, 6)
    one_big[17] *= 1e3
    diag = np.zeros((4, 3, 3), dtype=complex)
    diag[:, 0, 0] = 1.0
    diag[:, 1, 1] = [0.5, 1.0, 0.25, 1.0]  # a two-way tie on top, L = ||A|| everywhere
    row = np.zeros((3, 1, 4), dtype=complex)
    row[:, 0] = [0.6, 0.8, 0.0, 0.0]  # F = L = ||A|| exactly
    return {
        "random": random_complex(rng, 40, 5, 7),
        "random_nested": random_complex(rng, 3, 4, 7, 2),
        "rank_one": rank_one_stack(rng, 30, 4, 5),
        "one_big": one_big,
        "tied_copies": np.broadcast_to(random_complex(rng, 5, 5), (6, 5, 5)).copy(),
        "tied_unitary": np.stack([u @ np.diag([2.0, 1.0, 0.5]) for u in
                                  (random_unitary(rng, 3) for _ in range(5))]),
        "tied_diagonal": diag,
        "single_row": row,
        "zeros": np.zeros((7, 3, 3), dtype=complex),
        "empty": np.zeros((0, 4, 4), dtype=complex),
        "empty_matrices": np.zeros((3, 0, 4), dtype=complex),
        "tiny": 1e-200 * random_complex(rng, 8, 3, 3),
        "huge": 1e200 * random_complex(rng, 8, 3, 3),
    }


def test_max_operator_norm_matches_full_svd(rng):
    for name, stack in screened_stacks(rng).items():
        assert same_float(matcore.max_operator_norm(stack), full_max_norm(stack)), name


def test_max_operator_norm_skips_dominated_matrices(rng, monkeypatch):
    stack = screened_stacks(rng)["one_big"]
    seen = []
    full = matcore.operator_norm
    monkeypatch.setattr(matcore, "operator_norm", lambda a: seen.append(len(a)) or full(a))
    assert matcore.max_operator_norm(stack) == full(stack[17])
    assert seen == [1]


def test_max_operator_norm_non_finite(rng):
    stack = random_complex(rng, 6, 3, 3)
    stack[2, 1, 1] = np.inf
    assert np.isnan(matcore.max_operator_norm(stack)) and np.isnan(full_max_norm(stack))
    stack[4, 0, 2] = np.nan
    for norm in (matcore.max_operator_norm, full_max_norm):
        with pytest.raises(np.linalg.LinAlgError):
            norm(stack)


def norm_bound_oracle(a):
    """L and F of each matrix of a stack from ``np.linalg.norm``: the largest
    row or column norm and the Frobenius norm."""
    rows, cols = np.linalg.norm(a, axis=-1), np.linalg.norm(a, axis=-2)
    lower = np.maximum(rows.max(axis=-1, initial=0.0), cols.max(axis=-1, initial=0.0))
    return lower, np.linalg.norm(a, axis=(-2, -1))


def test_norm_bounds_bracket_the_operator_norm(rng):
    # the bounds are exact up to rounding on a single row (L = ||A||) and on
    # rank one (F = ||A||), so both sides get a slack of 1e-14 relative
    for name, stack in screened_stacks(rng).items():
        if name in ("tiny", "huge"):
            continue  # squares underflow or overflow: see the tests below
        lower, upper = matcore.norm_bounds(stack)
        norms = matcore.operator_norm(stack)
        assert lower.shape == upper.shape == stack.shape[:-2], name
        assert np.all(lower <= norms * (1 + 1e-14)) and np.all(norms <= upper * (1 + 1e-14)), name
        lower_ref, upper_ref = norm_bound_oracle(stack)
        np.testing.assert_allclose(lower, lower_ref, rtol=1e-14, atol=0, err_msg=name)
        np.testing.assert_allclose(upper, upper_ref, rtol=1e-14, atol=0, err_msg=name)


def test_norm_bounds_ignore_the_layout(rng):
    # transposed, strided and Fortran-ordered stacks give the bits of their
    # contiguous copies
    stack = random_complex(rng, 6, 5, 7)
    views = {
        "transposed": stack.swapaxes(-1, -2),
        "adjoint": adj(stack),
        "strided": stack[::2, 1::2, ::3],
        "fortran": np.asfortranarray(stack),
        "real_part": stack.real,
    }
    for name, view in views.items():
        assert not view.flags.c_contiguous, name
        copy = np.ascontiguousarray(view, dtype=complex)
        for got, want in zip(matcore.norm_bounds(view), matcore.norm_bounds(copy)):
            assert same_float(got, want), name


@pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (2, 3, 0, 5)])
def test_norm_bounds_of_empty_stacks(shape):
    lower, upper = matcore.norm_bounds(np.zeros(shape, dtype=complex))
    assert lower.shape == upper.shape == shape[:-2]
    assert not lower.any() and not upper.any()


def test_norm_bounds_where_squares_overflow(rng):
    # [0] each square is finite and re^2 + im^2 overflows; [1] a single
    # square overflows; [2] a column whose real and imaginary sums are each
    # finite while their pair overflows, with no row sum overflowing; [3] finite
    stack = np.zeros((4, 2, 2), dtype=complex)
    stack[0] = 1.2e154 * (1 + 1j)
    stack[1, 0, 1] = 1e200
    stack[2, :, 0] = [1.2e154, 1.2e154j]
    stack[3] = random_complex(rng, 2, 2)
    assert np.isfinite(1.2e154**2) and np.isinf(2 * 1.2e154**2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        lower, upper = matcore.norm_bounds(stack)
    assert lower[:3].tolist() == [0.0, 0.0, 0.0] and np.isinf(upper[:3]).all()
    assert same_float(lower[3], matcore.norm_bounds(stack[3])[0])
    assert same_float(upper[3], matcore.norm_bounds(stack[3])[1])
    assert np.all(lower <= matcore.operator_norm(stack))


def test_norm_bounds_where_squares_underflow(rng):
    # entries of 1e-170 and below square to 0 or to subnormals: L and F stay
    # bounds, F short of ||A|| by at most sqrt(p q) 2^-537
    p, q = 4, 3
    stack = np.concatenate([s * random_complex(rng, 5, p, q) for s in (1e-170, 1e-160, 1e-155)])
    stack[0] = 1e-320
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        lower, upper = matcore.norm_bounds(stack)
    norms = matcore.operator_norm(stack)
    assert np.all(lower <= norms) and np.all(upper >= norms - np.sqrt(p * q) * 2.0**-537)
    assert upper[0] == 0.0 and np.all(upper[5:] > 0.0)


def test_norm_bounds_with_nan_entries(rng):
    stack = random_complex(rng, 4, 3, 3)
    stack[1, 2, 0] = np.nan
    stack[2, 0, 1] = complex(0.0, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower, upper = matcore.norm_bounds(stack)
    assert np.isnan(lower[1:3]).all() and np.isnan(upper[1:3]).all()
    for k in (0, 3):
        assert same_float([lower[k], upper[k]], matcore.norm_bounds(stack[k]))


def inner_deviation_stack():
    """Phi* Phi - I over W2's 32^3 torus grid, the stack behind its
    ``inner_deviation``."""
    r = rz.build_generating_unitary(*w2_tensor_jordan())
    phi = np.concatenate([phi for _, phi, _ in rz.transfer_eval_grid(r, rz.unit_circle(32))])
    return adj(phi) @ phi - np.eye(r.dim_e)


def test_max_operator_norm_floor_keeps_the_running_maximum(rng):
    # a floor at the true maximum, one ulp and far on either side of it, and
    # at 0 and inf: taking the floor into the maximum gives the unscreened
    # maximum with the floor, bit for bit
    stacks = screened_stacks(rng)
    stacks["w2_inner"] = inner_deviation_stack()
    for name, stack in stacks.items():
        top = full_max_norm(stack)
        floors = [0.0, 0.5 * top, np.nextafter(top, 0.0), top, np.nextafter(top, np.inf),
                  2.0 * top, np.inf]
        for floor in floors:
            screened = max(floor, matcore.max_operator_norm(stack, floor))
            assert screened.hex() == max(floor, top).hex(), (name, floor)


def test_operator_norms_within_at_the_threshold(rng):
    # norms at tol (the SVD decides) and rank one at tol/2 (F = ||A|| sits on
    # the screen's own threshold), each at (1 - 1e-12, 1, 1 + 1e-12)
    tol = 1e-8
    spectra = [[s * tol, 0.3 * tol, 0.1 * tol, 0.0] for s in (1 - 1e-12, 1.0, 1 + 1e-12, 2.0)]
    spectra += [[s * tol, 0.0, 0.0, 0.0] for s in (0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.1)]
    stack = np.stack([random_unitary(rng, 4) @ np.diag(s) @ random_unitary(rng, 4) for s in spectra])
    stack = np.concatenate([stack, tol * rank_one_stack(rng, 20, 4, 4) / 4.0])
    for t in (tol, tol * (1 + 1e-12), tol * (1 - 1e-12), 2 * tol, tol / 2):
        assert np.array_equal(matcore.operator_norms_within(stack, t), full_within(stack, t))


def test_operator_norms_within_exact_rank_one():
    # e1 e1* and the single rows have norm exactly 1 = tol, the last F exactly 1/2
    stack = np.zeros((4, 2, 2), dtype=complex)
    stack[0, 0, 0] = 1.0
    stack[1, 0] = [0.6, 0.8]
    stack[2, :, 1] = [0.8j, -0.6]
    stack[3, 0, 0] = 0.5
    for tol in (1.0, 1.0 - 2**-52, 1.0 + 2**-52):
        assert np.array_equal(matcore.operator_norms_within(stack, tol), full_within(stack, tol))
    assert matcore.operator_norms_within(stack, 1.0).all()


def test_operator_norms_within_non_finite(rng):
    stack = 1e-3 * random_complex(rng, 5, 3, 3)
    stack[1, 2, 0] = np.inf
    stack[3, 0, 0] = -np.inf * 1j
    within = matcore.operator_norms_within(stack, 1.0)
    assert within.tolist() == [True, False, True, False, True]
    for tol in (0.0, -1.0, 1e-300, np.inf, np.nan):
        assert np.array_equal(matcore.operator_norms_within(stack, tol), full_within(stack, tol))
    stack[2, 1, 1] = np.nan
    for within in (matcore.operator_norms_within, full_within):
        with pytest.raises(np.linalg.LinAlgError):
            within(stack, 1.0)

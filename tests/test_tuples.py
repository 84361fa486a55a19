import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polydil import generators, matcore, tuples
from polydil.errors import (
    GNotPsd,
    IndexOutOfRange,
    NotCommuting,
    NotContractive,
    NotSzego,
    SumMismatch,
)
from polydil.matcore import adj

from conftest import (
    oracle_conjugacy_product,
    oracle_szego_defect,
    random_complex,
    random_unitary,
)


def commuting_family(rng, d, n):
    """Polynomials in one triangular matrix: commutators vanish to rounding."""
    return generators.random_candidate(int(rng.integers(0, 2**32)), d, n).ops


# ---------------------------------------------------------------------------
# make_tuple / hat


def test_make_tuple_zero_pair():
    z = np.zeros((2, 2))
    t = tuples.make_tuple([z, z])
    assert t.n == 2 and t.dim == 2


def test_make_tuple_rejects_expansion():
    with pytest.raises(NotContractive) as exc:
        tuples.make_tuple([np.eye(2), 2.0 * np.eye(2)])
    assert exc.value.i == 2
    assert exc.value.norm == pytest.approx(2.0)


def test_make_tuple_rejects_noncommuting():
    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    down = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotCommuting):
        tuples.make_tuple([up, down])


def test_hat_drops_requested_index(rng):
    fam = commuting_family(rng, 3, 3)
    t = tuples.make_tuple(fam)
    assert all(np.array_equal(a, b) for a, b in zip(tuples.hat(t, 3).ops, fam[:2]))
    assert all(np.array_equal(a, b) for a, b in zip(tuples.hat(t, 1).ops, fam[1:]))


def test_hat_composition_matches_double_deletion(rng):
    fam = commuting_family(rng, 3, 4)
    t = tuples.make_tuple(fam)
    inner = tuples.hat(tuples.hat(t, 4), 3)
    assert inner.n == 2
    assert all(np.array_equal(a, b) for a, b in zip(inner.ops, fam[:2]))


def test_hat_out_of_range(rng):
    t = tuples.make_tuple(commuting_family(rng, 2, 2))
    with pytest.raises(IndexOutOfRange):
        tuples.hat(t, 3)


# ---------------------------------------------------------------------------
# szego_defect


def test_szego_defect_zero_tuple():
    z = np.zeros((2, 2))
    t = tuples.make_tuple([z, z])
    assert np.allclose(tuples.szego_defect(t), np.eye(2))


def test_szego_defect_single_contraction():
    t = tuples.make_tuple([np.array([[0.5]])])
    assert np.allclose(tuples.szego_defect(t), [[0.75]])


def test_szego_defect_jordan_tensor_factorization():
    # hand expansion: I - T1 T1* - T2 T2* + T1 T2 T2* T1* with
    # T1 = J (x) I, T2 = I (x) J factorizes into a tensor product
    j2 = generators.lower_shift(2)
    pair = generators.jordan_pair(2, 2, 1.0, 1.0)
    defect = tuples.szego_defect(pair)
    factor = np.eye(2) - j2 @ adj(j2)
    assert np.allclose(defect, np.kron(factor, factor), atol=1e-12)


def test_szego_defect_scaled_jordan_factorization():
    r1, r2 = 0.9, 0.7
    pair = generators.jordan_pair(3, 2, r1, r2)
    j3, j2 = generators.lower_shift(3), generators.lower_shift(2)
    expected = np.kron(
        np.eye(3) - r1**2 * j3 @ adj(j3),
        np.eye(2) - r2**2 * j2 @ adj(j2),
    )
    assert np.allclose(tuples.szego_defect(pair), expected, atol=1e-12)


def test_szego_defect_hermitian(rng):
    t = tuples.make_tuple(commuting_family(rng, 4, 3))
    s = tuples.szego_defect(t)
    assert matcore.operator_norm(s - adj(s)) <= 1e-12


def test_szego_defect_permutation_invariant(rng):
    fam = list(commuting_family(rng, 4, 3))
    t = tuples.make_tuple(fam)
    ref = tuples.szego_defect(t)
    for perm in itertools.permutations(range(3)):
        tp = tuples.make_tuple([fam[i] for i in perm])
        assert matcore.operator_norm(tuples.szego_defect(tp) - ref) <= 1e-12


# ---------------------------------------------------------------------------
# conjugacy_product


def test_conjugacy_product_empty_ops(rng):
    x = random_complex(rng, 3, 3)
    assert np.array_equal(tuples.conjugacy_product([], x), x)


def test_conjugacy_product_zero_op(rng):
    x = random_complex(rng, 2, 2)
    assert np.allclose(tuples.conjugacy_product([np.zeros((2, 2))], x), x)


def test_conjugacy_product_four_term_expansion(rng):
    # the displayed n = 4 instance: G - T1 G T1* - T2 G T2* + T1 T2 G T1* T2*
    t1, t2 = commuting_family(rng, 4, 2)
    g = random_complex(rng, 4, 4)
    g = g + adj(g)
    expected = (
        g
        - t1 @ g @ adj(t1)
        - t2 @ g @ adj(t2)
        + t1 @ t2 @ g @ adj(t1) @ adj(t2)
    )
    got = tuples.conjugacy_product([t1, t2], g)
    assert matcore.operator_norm(got - expected) < 1e-12


def test_conjugacy_product_full_set_equals_szego_defect(rng):
    for n in (2, 3, 4):
        t = tuples.make_tuple(commuting_family(rng, 4, n))
        via_product = tuples.conjugacy_product(t.ops, np.eye(4))
        assert matcore.operator_norm(via_product - tuples.szego_defect(t)) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_conjugation_accumulator_matches_the_expansion(seed, n):
    t = generators.random_candidate(seed, 4, n)
    g = random_complex(np.random.default_rng(seed), 4, 4)
    g = g @ adj(g) / matcore.operator_norm(g) ** 2
    assert matcore.operator_norm(tuples.szego_defect(t) - oracle_szego_defect(t)) <= 1e-12
    got = tuples.conjugacy_product(t.ops, g)
    assert matcore.operator_norm(got - oracle_conjugacy_product(t.ops, g)) <= 1e-12


# ---------------------------------------------------------------------------
# is_szego / is_pure / spectral_radius


def test_is_szego_zero_tuple():
    z = np.zeros((2, 2))
    chk = tuples.is_szego(tuples.make_tuple([z, z]))
    assert chk.ok and chk.min_eig == pytest.approx(1.0)


def test_is_szego_jordan_pair(jordan22):
    chk = tuples.is_szego(jordan22)
    assert chk.ok
    assert chk.min_eig >= -1e-12


def test_is_szego_single_contraction(rng):
    a = random_complex(rng, 3, 3)
    a *= 0.99 / matcore.operator_norm(a)
    assert tuples.is_szego(tuples.make_tuple([a])).ok


def test_is_pure_nilpotent(jordan22):
    assert tuples.is_pure(jordan22)


def test_is_pure_rejects_identity():
    t = tuples.make_tuple([np.eye(2), np.zeros((2, 2))])
    assert not tuples.is_pure(t)


def test_spectral_radius_scaled_unitary(rng):
    u = 0.99 * random_unitary(rng, 4)
    rho = tuples.spectral_radius(u)
    assert rho == pytest.approx(0.99, abs=1e-6)
    assert tuples.is_pure(tuples.make_tuple([u]))


def test_spectral_radius_nilpotent():
    assert tuples.spectral_radius(generators.lower_shift(4)) == 0.0


# ---------------------------------------------------------------------------
# verify_certificate


def test_verify_certificate_degenerate_unitary_last(rng):
    d = 3
    zero = np.zeros((d, d))
    w = random_unitary(rng, d)
    t = tuples.make_tuple([zero, zero, w])
    cert = tuples.verify_certificate(t, [zero, zero])
    assert all(matcore.operator_norm(f) < 1e-12 for f in cert.f)
    assert cert.ranks == (0, 0)


def test_verify_certificate_product_triple_fixture(jordan22):
    t1, t2 = jordan22.ops
    t3 = t1 @ t2
    eye = np.eye(jordan22.dim)
    g1 = eye - t1 @ adj(t1)
    g2 = t1 @ (eye - t2 @ adj(t2)) @ adj(t1)
    t = tuples.make_tuple([t1, t2, t3])
    cert = tuples.verify_certificate(t, [g1, g2])
    # the two positivity statements the certificate relies on, checked numerically
    for g, other in ((g1, t2), (g2, t1)):
        w = matcore.herm_eig(g - other @ g @ adj(other), 1e-8).eigenvalues
        assert w[0] >= -1e-10
    assert cert.sum_residual <= 1e-12


def test_verify_certificate_sum_mismatch(jordan22):
    t1, t2 = jordan22.ops
    t = tuples.make_tuple([t1, t2, t1 @ t2])
    eye = np.eye(jordan22.dim)
    with pytest.raises(SumMismatch):
        tuples.verify_certificate(t, [eye, eye])


def test_verify_certificate_rejects_nonpsd_g(jordan22):
    t1, t2 = jordan22.ops
    t = tuples.make_tuple([t1, t2, t1 @ t2])
    eye = np.eye(jordan22.dim)
    g1 = eye - (t1 @ t2) @ adj(t1 @ t2) + np.diag([1.0, -1.0, 0.0, 0.0])
    g2 = -np.diag([1.0, -1.0, 0.0, 0.0])
    with pytest.raises(GNotPsd):
        tuples.verify_certificate(t, [g1, g2])


def test_verify_certificate_rejects_nonszego_hat():
    # a commuting pair violating Szego positivity: scaled 2x2 "sum" pair
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 0.0], [0.0, 0.0]], dtype=complex)
    t1 = 0.8 * (a + np.eye(2) * 0.6)
    t1 *= 0.999 / matcore.operator_norm(t1)
    t2 = t1.copy()
    s = tuples.szego_defect(tuples.make_tuple([t1, t2]))
    if matcore.herm_eig(s, 1e-8).eigenvalues[0] >= 0:
        pytest.skip("fixture did not violate positivity")
    t = tuples.make_tuple([t1, t2, np.zeros((2, 2))])
    with pytest.raises(NotSzego):
        tuples.verify_certificate(t, [np.eye(2) / 2, np.eye(2) / 2])


def test_verify_certificate_reconstruction_identity(triple22):
    # D^2 - T_n D^2 T_n* = sum_i (F_i^2 - T_i F_i^2 T_i*)
    t, cert = triple22
    t_n = t.op(t.n)
    d2 = cert.defect @ cert.defect
    lhs = d2 - t_n @ d2 @ adj(t_n)
    rhs = np.zeros_like(lhs)
    for fi, ti in zip(cert.f, t.ops):
        f2 = fi @ fi
        rhs = rhs + f2 - ti @ f2 @ adj(ti)
    assert matcore.operator_norm(lhs - rhs) <= 1e-8


# ---------------------------------------------------------------------------
# last_defect_certificate


def test_last_defect_zero_triple():
    z = np.zeros((2, 2))
    t = tuples.make_tuple([z, z, z])
    cert = tuples.last_defect_certificate(t)
    assert np.allclose(cert.g[0], np.eye(2))
    assert np.allclose(cert.g[1], 0.0)


def test_last_defect_pair_extended_by_zero(jordan22):
    t1, t2 = jordan22.ops
    t = tuples.make_tuple([t1, t2, np.zeros_like(t1)])
    cert = tuples.last_defect_certificate(t)
    assert np.allclose(cert.g[0], np.eye(jordan22.dim))


def test_last_defect_hypothesis_failure_detected(jordan22):
    # (T2, T1 T2) violates Szego positivity for the 2x2 Jordan pair, so the
    # zero-padded certificate is correctly refused even though the
    # product-route certificate for the same triple is accepted
    t1, t2 = jordan22.ops
    t3 = t1 @ t2
    t = tuples.make_tuple([t1, t2, t3])
    with pytest.raises(tuples.HypothesisFailed):
        tuples.last_defect_certificate(t)
    eye = np.eye(jordan22.dim)
    g1 = eye - t1 @ adj(t1)
    g2 = t1 @ (eye - t2 @ adj(t2)) @ adj(t1)
    assert tuples.verify_certificate(t, [g1, g2]).sum_residual <= 1e-12


def test_last_defect_and_product_certificates_coexist():
    # with a trivial second coordinate both sufficient conditions hold and the
    # two certifiers accept the same triple with different G families
    pair = generators.jordan_pair(2, 1, 0.9, 1.0)
    t1, t2 = pair.ops
    t3 = t1 @ t2
    t = tuples.make_tuple([t1, t2, t3])
    lumped = tuples.last_defect_certificate(t)
    eye = np.eye(pair.dim)
    g1 = eye - t1 @ adj(t1)
    g2 = t1 @ (eye - t2 @ adj(t2)) @ adj(t1)
    direct = tuples.verify_certificate(t, [g1, g2])
    assert matcore.operator_norm(lumped.defect - direct.defect) < 1e-12
    assert not np.allclose(lumped.g[0], direct.g[0])

import numpy as np
import pytest

from polydil import generators, matcore, tuples
from polydil.errors import HypothesisFailed, NotPure, NotSzego
from polydil.matcore import adj


# ---------------------------------------------------------------------------
# jordan_pair


def test_jordan_pair_degenerate():
    pair = generators.jordan_pair(1, 1)
    assert pair.dim == 1
    assert np.allclose(pair.ops[0], 0.0) and np.allclose(pair.ops[1], 0.0)


def test_jordan_pair_defect_psd_min_zero():
    pair = generators.jordan_pair(2, 2, 1.0, 1.0)
    w = matcore.herm_eig(tuples.szego_defect(pair)).eigenvalues
    assert w[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d1,d2,r1,r2", [(1, 1, 1.0, 1.0), (2, 3, 0.9, 0.8), (3, 3, 1.0, 0.5)])
def test_jordan_pair_always_pure_szego(d1, d2, r1, r2):
    pair = generators.jordan_pair(d1, d2, r1, r2)
    assert tuples.is_szego(pair).ok
    assert tuples.is_pure(pair)


def test_jordan_pair_defect_factorizes():
    for d1, d2, r1, r2 in [(2, 2, 1.0, 1.0), (3, 2, 0.9, 0.9), (3, 3, 0.7, 0.9)]:
        pair = generators.jordan_pair(d1, d2, r1, r2)
        j1, j2 = generators.lower_shift(d1), generators.lower_shift(d2)
        expected = np.kron(
            np.eye(d1) - r1**2 * j1 @ adj(j1), np.eye(d2) - r2**2 * j2 @ adj(j2)
        )
        assert matcore.operator_norm(tuples.szego_defect(pair) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# product_triple


def test_product_triple_zero_pair():
    pair = generators.jordan_pair(1, 1)
    triple, cert = generators.product_triple(pair, 1, 1)
    assert np.allclose(triple.ops[2], 0.0)
    assert np.allclose(cert.g[0], np.eye(1))
    assert np.allclose(cert.g[1], 0.0)


def test_product_triple_sum_identity():
    pair = generators.jordan_pair(2, 2, 0.9, 0.9)
    triple, cert = generators.product_triple(pair, 1, 1)
    t3 = triple.ops[2]
    residual = matcore.operator_norm(
        np.eye(triple.dim) - t3 @ adj(t3) - (cert.g[0] + cert.g[1])
    )
    assert residual < 1e-12


def test_product_triple_nilpotent_exact():
    pair = generators.jordan_pair(3, 2, 1.0, 1.0)
    triple, cert = generators.product_triple(pair, 2, 1)
    assert cert.sum_residual < 1e-12
    assert min(cert.product_margins) >= -1e-10


@pytest.mark.parametrize("j,k", [(1, 1), (2, 1), (2, 3)])
def test_product_triple_always_accepted(j, k):
    pair = generators.jordan_pair(3, 3, 0.9, 0.9)
    triple, cert = generators.product_triple(pair, j, k)
    assert triple.n == 3
    assert cert.sum_residual < 1e-12


@pytest.mark.parametrize(
    "pair, error, field, value",
    [
        # (J, J): the Szego defect I - 2 J J* = diag(1, -1)
        ([generators.lower_shift(2)] * 2, NotSzego, "min_eig", -1.0),
        ([np.eye(2), np.zeros((2, 2))], NotPure, "rho", 1.0),
    ],
    ids=["not-szego", "not-pure"],
)
def test_product_triple_refuses_the_pair_unwrapped(pair, error, field, value):
    with pytest.raises(error) as info:
        generators.product_triple(tuples.make_tuple(pair), 1, 1)
    assert type(info.value) is error and getattr(info.value, field) == value


def test_product_triple_rejects_exponents():
    pair = generators.jordan_pair(2, 2)
    with pytest.raises(ValueError):
        generators.product_triple(pair, 0, 1)


# ---------------------------------------------------------------------------
# last_defect_tuple


def test_last_defect_tuple_zero_extension():
    pair = generators.jordan_pair(2, 2, 0.9, 0.9)
    triple, cert = generators.last_defect_tuple(pair, np.zeros((4, 4)))
    assert np.allclose(cert.g[0], np.eye(4))


def test_last_defect_tuple_by_identity_accepts_but_not_pure_tn():
    # T_n = I keeps both hypotheses (hat tuples unchanged in the relevant
    # coordinates) while making the last coordinate non-pure
    pair = generators.jordan_pair(2, 2, 0.9, 0.9)
    triple, cert = generators.last_defect_tuple(pair, np.eye(4))
    assert matcore.operator_norm(cert.g[0]) < 1e-12
    assert not tuples.is_pure(triple)


def test_last_defect_tuple_rejects_bad_hat():
    pair = generators.jordan_pair(2, 2, 0.9, 0.9)
    t1, t2 = pair.ops
    with pytest.raises(HypothesisFailed):
        generators.last_defect_tuple(pair, t1 @ t2)  # (T2, T1T2) is not Szego


# ---------------------------------------------------------------------------
# random_candidate


def test_random_candidate_deterministic():
    a = generators.random_candidate(7, 4, 3)
    b = generators.random_candidate(7, 4, 3)
    for ma, mb in zip(a.ops, b.ops):
        assert np.array_equal(ma, mb)


def test_random_candidate_different_seeds_differ():
    a = generators.random_candidate(1, 4, 3)
    b = generators.random_candidate(2, 4, 3)
    assert not np.allclose(a.ops[0], b.ops[0])


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_random_candidate_valid_tuple(seed):
    t = generators.random_candidate(seed, 5, 4)
    # make_tuple ran inside; double-check the invariants directly
    for i, m in enumerate(t.ops):
        assert matcore.operator_norm(m) <= 1.0 + 1e-10
        for other in t.ops[i + 1 :]:
            assert matcore.operator_norm(m @ other - other @ m) < 1e-12


def test_random_candidate_margin_controls_purity():
    t = generators.random_candidate(3, 4, 3, spectral_margin=0.1)
    assert tuples.is_pure(t)
    assert all(tuples.spectral_radius(m) <= 0.9 + 1e-9 for m in t.ops)

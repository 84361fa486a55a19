import dataclasses
import itertools

import numpy as np
import pytest

from polydil import generators, hardy, matcore, realization as rz, tuples
from polydil.errors import IsometryDefect, NotContraction
from polydil.matcore import adj

from conftest import (
    constant_realization,
    random_complex,
    random_unitary,
    w2_tensor_jordan,
    zero_triple,
)


# ---------------------------------------------------------------------------
# generating unitary


def test_zero_triple_swap_completion():
    t, cert = zero_triple(1)
    r = rz.build_generating_unitary(t, cert)
    u = r.unitary_matrix()
    assert np.allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rz.generating_residual(t, cert, r) == pytest.approx(0.0, abs=1e-14)


def test_generating_identity_product_triple(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    assert rz.generating_residual(t, cert, r) < 1e-10
    assert rz.unitarity_residual(r) < 1e-10


def test_generating_identity_coordinates(triple32):
    # the two block rows of the generating identity in frame coordinates
    t, cert = triple32
    r = rz.build_generating_unitary(t, cert)
    dc = adj(cert.d_frame) @ cert.defect
    col_plain, col_shift = hardy.defect_block_maps(cert, t)
    t_n = t.op(3)
    assert matcore.operator_norm(dc @ adj(t_n) - (r.a @ dc + r.b @ col_shift)) < 1e-10
    assert matcore.operator_norm(col_plain - (r.c @ dc + r.d @ col_shift)) < 1e-10


def test_corrupted_certificate_detected(triple22):
    t, cert = triple22
    bad = dataclasses.replace(
        cert,
        g=tuple(1.1 * g for g in cert.g),
        f=tuple(np.sqrt(1.1) * f for f in cert.f),
    )
    with pytest.raises(IsometryDefect):
        rz.build_generating_unitary(t, bad)


def test_completion_order_changes_unitary_not_identity(triple22):
    t, cert = triple22
    r1 = rz.build_generating_unitary(t, cert)
    order = list(reversed(range(r1.dim_e + r1.dim_f)))
    r2 = rz.build_generating_unitary(t, cert, completion_order=order)
    assert rz.generating_residual(t, cert, r2) < 1e-10
    assert rz.unitarity_residual(r2) < 1e-10


# ---------------------------------------------------------------------------
# transfer evaluation


def test_transfer_at_origin_is_a_star(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    assert np.allclose(rz.transfer_eval(r, (0.0, 0.0)), adj(r.a))


def test_transfer_constant_for_decoupled(rng):
    u = random_unitary(rng, 3)
    r = constant_realization(u)
    for z in [(0.0, 0.0), (0.5, -0.2j), (0.9, 0.9)]:
        assert np.allclose(rz.transfer_eval(r, z), adj(u))


def test_transfer_neumann_series_oracle(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    z = (0.3, 0.3)
    e_z = np.diag(
        np.concatenate([np.full(size, zi, dtype=complex) for zi, size in zip(z, r.partition)])
    )
    acc = adj(r.a)
    term = adj(r.c) @ e_z
    for _ in range(80):
        acc = acc + term @ adj(r.b)
        term = term @ adj(r.d) @ e_z
    assert matcore.operator_norm(rz.transfer_eval(r, z) - acc) < 1e-10


def test_transfer_contractive_interior(triple32, rng):
    t, cert = triple32
    r = rz.build_generating_unitary(t, cert)
    for _ in range(1000):
        z = tuple(0.999 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2))
        assert matcore.operator_norm(rz.transfer_eval(r, z)) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Schur identity


def test_schur_identity_at_origin(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    assert rz.schur_identity_residual(r, (0.0, 0.0)) < 1e-12


def test_schur_identity_interior(triple22, rng):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    for _ in range(25):
        z = tuple(0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2))
        assert rz.schur_identity_residual(r, z) < 1e-9


def test_schur_identity_decoupled(rng):
    r = constant_realization(random_unitary(rng, 2))
    assert rz.schur_identity_residual(r, (0.4, -0.3)) < 1e-12


# ---------------------------------------------------------------------------
# innerness


def test_inner_constant_unitary(rng):
    r = constant_realization(random_unitary(rng, 3))
    report = rz.inner_check(r, 8)
    assert report.max_deviation < 1e-12
    assert report.singular_points == 0


def test_inner_scalar_moebius(rng):
    u = random_unitary(rng, 2)
    r = rz.TransferRealization(
        a=u[:1, :1], b=u[:1, 1:], c=u[1:, :1], d=u[1:, 1:], partition=(1,)
    )
    report = rz.inner_check(r, 64)
    assert report.max_deviation < 1e-10


def test_inner_product_triple(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    report = rz.inner_check(r, 32)
    assert report.max_deviation < 1e-8
    assert report.singular_points <= report.grid_points // 100


def test_inner_check_matches_full_svd_oracle(monkeypatch):
    # 32^3 torus points: the screened maximum and regular mask against an SVD
    # of every deviation and every resolvent residual
    t, cert = w2_tensor_jordan()
    r = rz.build_generating_unitary(t, cert)
    report = rz.inner_check(r, 32)

    def full_max(a):
        return float(np.max(matcore.operator_norm(a), initial=0.0))

    def full_within(a, tol):
        norms = matcore.operator_norm(a)
        return np.isfinite(norms) & (norms <= tol)

    monkeypatch.setattr(matcore, "max_operator_norm", full_max)
    monkeypatch.setattr(matcore, "operator_norms_within", full_within)
    oracle = rz.inner_check(r, 32)
    assert report.max_deviation.hex() == oracle.max_deviation.hex()
    assert report == oracle
    assert report.grid_points == 32**3 and 0.0 < report.max_deviation < 1e-12


# ---------------------------------------------------------------------------
# canonical decomposition


def cnu_oracle_frame(a, powers):
    """Independent kernel-intersection: stack I - A*^m A^m and I - A^m A*^m
    computed by repeated multiplication, then a dense SVD nullspace."""
    d = a.shape[0]
    rows = []
    p = np.eye(d, dtype=complex)
    for _ in range(powers):
        p = p @ a
        rows.append(np.eye(d) - adj(p) @ p)
        rows.append(np.eye(d) - p @ adj(p))
    stacked = np.vstack(rows)
    _, s, vh = np.linalg.svd(stacked)
    keep = [i for i in range(d) if (s[i] if i < len(s) else 0.0) <= 1e-9]
    return adj(vh[keep, :]) if keep else np.zeros((d, 0), dtype=complex)


def test_cnu_diagonal_example():
    res = rz.cnu_decomposition(np.diag([1.0, 0.5]))
    assert res.h0_dim == 1
    assert abs(abs(res.h0_frame[0, 0]) - 1.0) < 1e-12
    assert np.allclose(np.abs(res.unitary_block), [[1.0]])
    assert np.allclose(np.abs(res.cnu_block), [[0.5]])


def test_cnu_strict_contraction(rng):
    a = random_complex(rng, 3, 3)
    a *= 0.8 / matcore.operator_norm(a)
    res = rz.cnu_decomposition(a)
    assert res.h0_dim == 0
    assert res.cnu_spectral_bound < 1.0


def test_cnu_rotation_plus_nilpotent():
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    nil = np.array([[0.0, 0.0], [0.5, 0.0]], dtype=complex)
    a = np.block([[rot, np.zeros((2, 2))], [np.zeros((2, 2)), nil]])
    res = rz.cnu_decomposition(a)
    oracle = cnu_oracle_frame(a, 4)
    assert res.h0_dim == 2 == oracle.shape[1]
    # same projection, first block
    proj = res.h0_frame @ adj(res.h0_frame)
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-9)
    assert np.allclose(oracle @ adj(oracle), proj, atol=1e-9)
    assert res.unitary_residual < 1e-10
    assert res.offdiag_residual < 1e-10
    assert res.cnu_spectral_bound < 1e-8  # nilpotent block


def test_cnu_rejects_expansion():
    with pytest.raises(NotContraction):
        rz.cnu_decomposition(2.0 * np.eye(2))


# ---------------------------------------------------------------------------
# Taylor expansion


def taylor_series_oracle(r, degree):
    """Taylor coefficients of Phi up to total degree ``degree`` as a dict,
    expanding A* + sum_n C* E(z) (D* E(z))^n B* monomial by monomial."""
    m = len(r.partition)
    starts = np.cumsum((0,) + tuple(r.partition))
    units = [tuple(int(i == a) for i in range(m)) for a in range(m)]

    def select(left, a):
        out = np.zeros_like(left)
        out[:, starts[a] : starts[a + 1]] = left[:, starts[a] : starts[a + 1]]
        return out

    zero = (0,) * m
    power = {zero: np.eye(r.dim_f, dtype=complex)}  # (D* E)^n
    geom = dict(power)
    for _ in range(degree):
        nxt = {}
        for k, v in power.items():
            for a, unit in enumerate(units):
                kk = tuple(x + y for x, y in zip(k, unit))
                if sum(kk) <= degree:
                    nxt[kk] = nxt.get(kk, 0) + select(adj(r.d), a) @ v
        power = nxt
        for k, v in power.items():
            geom[k] = geom.get(k, 0) + v
    series = {zero: adj(r.a)}
    for k, v in geom.items():
        for a, unit in enumerate(units):
            kk = tuple(x + y for x, y in zip(k, unit))
            if sum(kk) <= degree:
                series[kk] = series.get(kk, 0) + select(adj(r.c), a) @ v @ adj(r.b)
    return series


def taylor_consistency_residual(r, z, cap):
    """|transfer_eval - sum_k z^k Phi_k| over the box at an interior point."""
    phi = rz.transfer_taylor(r, cap)
    acc = np.zeros((r.dim_e, r.dim_e), dtype=complex)
    for k in itertools.product(range(cap + 1), repeat=len(z)):
        acc = acc + np.prod(np.power(z, k)) * phi[k]
    return matcore.operator_norm(rz.transfer_eval(r, z) - acc)


def test_transfer_taylor_constant(rng):
    u = random_unitary(rng, 2)
    r = constant_realization(u)
    series = rz.transfer_taylor(r, 5)
    assert series.shape == (6, 6, 2, 2)
    assert np.argwhere(np.any(series != 0, axis=(-2, -1))).tolist() == [[0, 0]]
    assert np.allclose(series[0, 0], adj(u))


def test_transfer_taylor_scalar_geometric(rng):
    u = random_unitary(rng, 2)
    a, b, c, d = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    r = rz.TransferRealization(
        a=u[:1, :1], b=u[:1, 1:], c=u[1:, :1], d=u[1:, 1:], partition=(1,)
    )
    series = rz.transfer_taylor(r, 6)
    assert series[0][0, 0] == pytest.approx(np.conj(a))
    for m in range(6):
        expected = np.conj(c) * np.conj(d) ** m * np.conj(b)
        assert series[m + 1][0, 0] == pytest.approx(expected, abs=1e-12)


def test_transfer_taylor_eval_consistency(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    assert taylor_consistency_residual(r, (0.2, 0.1), 20) < 1e-8


@pytest.mark.parametrize("partition", [(2, 1), (1, 0, 2)])
def test_transfer_taylor_matches_series_oracle(rng, partition):
    # a random unitary colligation with a zero-size block; the box [0, 3]^m
    # holds every coefficient of total degree <= 3
    e = 2
    u = random_unitary(rng, e + sum(partition))
    r = rz.TransferRealization(
        a=u[:e, :e], b=u[:e, e:], c=u[e:, :e], d=u[e:, e:], partition=partition
    )
    series = rz.transfer_taylor(r, 3)
    oracle = taylor_series_oracle(r, 3)
    for k in itertools.product(range(4), repeat=len(partition)):
        if sum(k) <= 3:
            assert np.allclose(series[k], oracle.get(k, 0), atol=1e-14), k


# ---------------------------------------------------------------------------
# lifting and the strict-part multiplier identity


def test_lifting_nilpotent_exact(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    res, bound = rz.lifting_residual(t, cert, r, cap=4)
    assert res < 1e-9
    assert bound >= res


def test_lifting_stable_under_permuted_completion(triple22):
    t, cert = triple22
    r1 = rz.build_generating_unitary(t, cert)
    order = list(reversed(range(r1.dim_e + r1.dim_f)))
    r2 = rz.build_generating_unitary(t, cert, completion_order=order)
    res1, _ = rz.lifting_residual(t, cert, r1, cap=4)
    res2, _ = rz.lifting_residual(t, cert, r2, cap=4)
    assert abs(res1 - res2) <= 1e-9


def test_strict_multiplier_nilpotent(triple32):
    t, cert = triple32
    r = rz.build_generating_unitary(t, cert)
    res, bound = rz.strict_multiplier_residual(t, cert, r, cap=5)
    assert res < 1e-10
    assert bound >= res


def diagonal_triple(rng):
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    t = tuples.make_tuple([0.5 * u, 0.4 * u @ u, 0.35 * u])
    return t, tuples.last_defect_certificate(t)


def test_lifting_matches_double_loop_oracle(rng):
    # max_k || Pi_k T_3* - sum_{j : k+j in box} Phi_j* Pi_{k+j} ||, looping
    # over k and j, with Pi_k from matrix powers and Phi_j from the series
    # oracle; the triple is not nilpotent, so every shift contributes
    t, cert = diagonal_triple(rng)
    r = rz.build_generating_unitary(t, cert)
    cap = 4
    out_map = adj(cert.d_frame) @ cert.defect
    box = list(itertools.product(range(cap + 1), repeat=2))
    pi = {
        k: out_map
        @ np.linalg.matrix_power(adj(t.op(1)), k[0])
        @ np.linalg.matrix_power(adj(t.op(2)), k[1])
        for k in box
    }
    phi = taylor_series_oracle(r, 2 * cap)
    worst = 0.0
    for k in box:
        rhs = np.zeros_like(pi[k])
        for j in box:
            kj = (k[0] + j[0], k[1] + j[1])
            if max(kj) <= cap:
                rhs = rhs + adj(phi[j]) @ pi[kj]
        worst = max(worst, matcore.operator_norm(pi[k] @ adj(t.op(3)) - rhs))
    res, _ = rz.lifting_residual(t, cert, r, cap)
    assert worst > 1e-3
    assert res == pytest.approx(worst, abs=1e-13)


def w3_nonnormal():
    """(0.5 I + 0.5 J_9, 0, 0.3 T_1) with the last-defect certificate."""
    t1 = 0.5 * np.eye(9) + 0.5 * generators.lower_shift(9)
    pair = tuples.make_tuple([t1, np.zeros((9, 9))])
    return generators.last_defect_tuple(pair, 0.3 * t1)


# The tail rows of the non-normal triple; their bounds are not pinned.
W3_TAIL_ROWS = {
    8: {
        "pi_isometry_defect": 0.18546676635742176,
        "strict_multiplier": 0.1075311191836215,
        "lifting": 0.1982829474299466,
    },
    12: {
        "pi_isometry_defect": 0.14605112373828877,
        "strict_multiplier": 0.07478459242909627,
        "lifting": 0.18026244509350983,
    },
}


@pytest.mark.parametrize("cap", sorted(W3_TAIL_ROWS))
def test_non_normal_tail_rows_pinned(cap):
    t, cert = w3_nonnormal()
    report = rz.run_identity_suite(t, cert, cap=cap, schur_points=4, inner_grid=8)
    for name, value in W3_TAIL_ROWS[cap].items():
        assert report.row(name).residual == pytest.approx(value, abs=1e-12), name


# ---------------------------------------------------------------------------
# the whole suite


def test_identity_suite_nilpotent(triple32):
    t, cert = triple32
    report = rz.run_identity_suite(t, cert, cap=6, schur_points=25, inner_grid=16)
    assert report.ok, [(r.name, r.residual, r.bound) for r in report.rows if not r.ok]
    for row in report.rows:
        if row.name not in ("inner_singular_fraction",):
            assert row.residual < 1e-10


def test_identity_suite_non_nilpotent(rng):
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    t1 = 0.5 * u
    t2 = 0.4 * u @ u
    t3 = 0.35 * u
    t = tuples.make_tuple([t1, t2, t3])
    cert = tuples.last_defect_certificate(t)
    report = rz.run_identity_suite(t, cert, cap=10, schur_points=25, inner_grid=16)
    assert report.ok, [(r.name, r.residual, r.bound) for r in report.rows if not r.ok]
    assert report.rho > 0.0


def test_identity_suite_tiny_cap_loose_bounds(rng):
    # a deliberately small cap keeps the tail bounds loose but satisfied
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    t = tuples.make_tuple([0.5 * u, 0.4 * u @ u, 0.35 * u])
    cert = tuples.last_defect_certificate(t)
    report = rz.run_identity_suite(t, cert, cap=1, schur_points=10, inner_grid=8)
    assert report.cap == 1
    assert report.ok, [(r.name, r.residual, r.bound) for r in report.rows if not r.ok]
    assert report.row("lifting").bound > 0.1  # visibly loose

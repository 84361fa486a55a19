import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from polydil import generators, hardy, matcore, realization as rz, tuples
from polydil.errors import NotCommuting, NotContractive, NotIsometric, NotPure
from polydil.matcore import adj

from conftest import (
    box_coefficients,
    box_isometry_defect,
    constant_realization,
    diagonal_triple,
    oracle_lifting_residuals,
    random_complex,
    random_unitary,
    telescoping,
    transfer_eval_many,
    transfer_taylor,
    truncated_lifting,
    truncated_strict_multiplier,
    w1_product_triple,
    w2_tensor_jordan,
    w3_nonnormal,
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
    dc, col_plain, col_shift = rz._frame_maps(cert, t)
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
    with pytest.raises(NotIsometric):
        rz.build_generating_unitary(t, bad)


def test_completion_order_changes_unitary_not_identity(triple22):
    t, cert = triple22
    r1 = rz.build_generating_unitary(t, cert)
    order = list(reversed(range(r1.dim_e + r1.dim_f)))
    r2 = rz.build_generating_unitary(t, cert, completion_order=order)
    assert rz.generating_residual(t, cert, r2) < 1e-10
    assert rz.unitarity_residual(r2) < 1e-10


# ---------------------------------------------------------------------------
# the frame maps of a certificate


def test_block_maps_zero_when_f_zero(rng):
    d = 3
    zero = np.zeros((d, d))
    w = np.diag(np.exp(2j * np.pi * rng.uniform(size=d)))
    t = tuples.make_tuple([zero, zero, w])
    cert = tuples.verify_certificate(t, [zero, zero])
    _, col_plain, col_shift = rz._frame_maps(cert, t)
    assert col_plain.shape == (0, d) and col_shift.shape == (0, d)


def test_shifted_block_map_zero_for_zero_tuple():
    z = np.zeros((3, 3))
    t = tuples.make_tuple([z, z, z])
    cert = tuples.last_defect_certificate(t)
    _, col_plain, col_shift = rz._frame_maps(cert, t)
    assert matcore.operator_norm(col_shift) < 1e-14
    assert col_plain.shape[0] == cert.ranks[0]


def test_block_map_norm_identity(triple22):
    t, cert = triple22
    _, col_plain, _ = rz._frame_maps(cert, t)
    for idx in range(t.dim):
        h = np.zeros(t.dim)
        h[idx] = 1.0
        direct = sum(float(np.vdot(f @ h, f @ h).real) for f in cert.f)
        assert np.vdot(col_plain @ h, col_plain @ h).real == pytest.approx(direct, abs=1e-12)


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


# The forward error allowed to either evaluation path of Phi, in the matrix
# 1-norm: about a hundred times the largest measured on W1, W2 and W3
# (1.0e-15, at a torus point of W1).  Phi is a contraction on the closed
# polydisc, so the bound is relative as well.
PHI_REFERENCE_BOUND = 1e-13


@pytest.mark.parametrize("workload", [w1_product_triple, w2_tensor_jordan, w3_nonnormal])
def test_phi_against_a_40_digit_reference(workload):
    # seeded interior points through transfer_eval, and five rows of a torus
    # and an interior product grid through both transfer_eval_grid and
    # transfer_eval, against mpmath, which shares no code with either path
    pytest.importorskip("mpmath")
    from mpref import forward_error, mp_transfer

    r = rz.build_generating_unitary(*workload())
    m = len(r.partition)
    draws = np.random.default_rng(16).uniform(size=(2, 3, m))
    for z in 0.9 * np.sqrt(draws[0]) * np.exp(2j * np.pi * draws[1]):
        assert forward_error(rz.transfer_eval(r, z), mp_transfer(r, z)) <= PHI_REFERENCE_BOUND
    for axis in (rz.unit_circle(8), 0.6 * rz.unit_circle(5)):
        chunks = list(rz.transfer_eval_grid(r, axis))
        phi = np.concatenate([phi for _, phi, _ in chunks])
        assert all(regular.all() for _, _, regular in chunks)
        points = rz.grid_points(axis, m)
        for row in np.linspace(0, len(points) - 1, 5).astype(int):
            reference = mp_transfer(r, points[row])
            assert forward_error(phi[row], reference) <= PHI_REFERENCE_BOUND
            assert forward_error(rz.transfer_eval(r, points[row]), reference) <= PHI_REFERENCE_BOUND


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
    # 32^3 torus points: the screened maximum against an SVD of every
    # deviation, and the grid path's regular mask against the direct path's
    t, cert = w2_tensor_jordan()
    r = rz.build_generating_unitary(t, cert)
    report = rz.inner_check(r, 32)
    axis = rz.unit_circle(32)
    grid_regular = np.concatenate([regular for _, _, regular in rz.transfer_eval_grid(r, axis)])

    def full_max(a, floor=0.0):
        return float(np.max(matcore.operator_norm(a), initial=0.0))

    monkeypatch.setattr(matcore, "max_operator_norm", full_max)
    oracle = rz.inner_check(r, 32)
    assert report.max_deviation.hex() == oracle.max_deviation.hex()
    assert report == oracle
    assert report.grid_points == 32**3 and 0.0 < report.max_deviation < 1e-12
    points = rz.grid_points(axis, len(r.partition))
    direct_regular = np.concatenate([regular for _, _, regular in transfer_eval_many(r, points)])
    assert np.array_equal(grid_regular, direct_regular) and grid_regular.all()


def test_inner_check_peak_memory_on_w2():
    # one W2 inner_check at grid 32 reads 64 chunks of 512 points and peaks
    # at 2.64 MB traced (1.42 MB at 256 points); a larger chunk or another
    # Phi-sized temporary per chunk goes over 3 MB
    r = rz.build_generating_unitary(*w2_tensor_jordan())
    tracemalloc.start()
    try:
        report = rz.inner_check(r, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.grid_points == 32**3 and report.singular_points == 0
    assert peak < 3.0e6


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
    assert np.max(np.abs(np.linalg.eigvals(res.cnu_block))) < 1.0


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
    w, h0, h1 = res.unitary_block, res.h0_frame, res.h1_frame
    assert matcore.operator_norm(adj(w) @ w - np.eye(2)) < 1e-10
    assert matcore.operator_norm(adj(h0) @ a @ h1) < 1e-10
    assert matcore.operator_norm(adj(h1) @ a @ h0) < 1e-10
    assert np.max(np.abs(np.linalg.eigvals(res.cnu_block))) < 1e-8  # nilpotent block


def test_cnu_rejects_expansion():
    with pytest.raises(NotContractive):
        rz.cnu_decomposition(2.0 * np.eye(2))


# ---------------------------------------------------------------------------
# Taylor expansion (the oracle behind the truncated lifting rows)


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
    phi = transfer_taylor(r, cap)
    acc = np.zeros((r.dim_e, r.dim_e), dtype=complex)
    for k in itertools.product(range(cap + 1), repeat=len(z)):
        acc = acc + np.prod(np.power(z, k)) * phi[k]
    return matcore.operator_norm(rz.transfer_eval(r, z) - acc)


def test_transfer_taylor_constant(rng):
    u = random_unitary(rng, 2)
    r = constant_realization(u)
    series = transfer_taylor(r, 5)
    assert series.shape == (6, 6, 2, 2)
    assert np.argwhere(np.any(series != 0, axis=(-2, -1))).tolist() == [[0, 0]]
    assert np.allclose(series[0, 0], adj(u))


def test_transfer_taylor_scalar_geometric(rng):
    u = random_unitary(rng, 2)
    a, b, c, d = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    r = rz.TransferRealization(
        a=u[:1, :1], b=u[:1, 1:], c=u[1:, :1], d=u[1:, 1:], partition=(1,)
    )
    series = transfer_taylor(r, 6)
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
    series = transfer_taylor(r, 3)
    oracle = taylor_series_oracle(r, 3)
    for k in itertools.product(range(4), repeat=len(partition)):
        if sum(k) <= 3:
            assert np.allclose(series[k], oracle.get(k, 0), atol=1e-14), k


# ---------------------------------------------------------------------------
# lifting and the strict-part multiplier identity


def suite_row(t, cert, r, cap, name):
    """One row of the identity suite at ``cap``; the Schur sample and the
    torus grid, which neither lifting row reads, are kept small."""
    return rz.run_identity_suite(t, cert, r, cap=cap, schur_points=1, inner_grid=4).row(name)


def test_lifting_nilpotent_exact(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    row = suite_row(t, cert, r, 4, "lifting")
    assert row.residual < 1e-9
    assert row.bound >= row.residual


def test_lifting_stable_under_permuted_completion(triple22):
    t, cert = triple22
    r1 = rz.build_generating_unitary(t, cert)
    order = list(reversed(range(r1.dim_e + r1.dim_f)))
    r2 = rz.build_generating_unitary(t, cert, completion_order=order)
    res1 = suite_row(t, cert, r1, 4, "lifting").residual
    res2 = suite_row(t, cert, r2, 4, "lifting").residual
    assert abs(res1 - res2) <= 1e-9


def test_strict_multiplier_nilpotent(triple32):
    t, cert = triple32
    r = rz.build_generating_unitary(t, cert)
    row = suite_row(t, cert, r, 5, "strict_multiplier")
    assert row.residual < 1e-10
    assert row.bound >= row.residual


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
    res = truncated_lifting(t, cert, r, cap)
    assert worst > 1e-3
    assert res == pytest.approx(worst, abs=1e-13)


# The truncated rows of the non-normal triple W3, from the box oracles: the
# residuals that the suite reported before its rows were closed
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
    r = rz.build_generating_unitary(t, cert)
    coeffs = box_coefficients(tuples.hat(t, t.n), adj(cert.d_frame) @ cert.defect, cap)
    truncated = {
        "pi_isometry_defect": max(abs(box_isometry_defect(coeffs, h)) for h in np.eye(t.dim)),
        "strict_multiplier": truncated_strict_multiplier(t, cert, r, cap),
        "lifting": truncated_lifting(t, cert, r, cap),
    }
    for name, value in W3_TAIL_ROWS[cap].items():
        assert truncated[name] == pytest.approx(value, abs=1e-12), name


def test_truncated_lifting_converges_to_the_closed_row():
    # M_Phi is a contraction, so the box misses at most sqrt(||gap_N||) of
    # the lifting; as N grows the truncated residual falls to the closed one
    t, cert = w3_nonnormal()
    r = rz.build_generating_unitary(t, cert)
    closed = suite_row(t, cert, r, 12, "lifting").residual
    assert closed < 1e-13
    hat_t = tuples.hat(t, t.n)
    previous = np.inf
    for cap in (12, 30, 40, 60):
        truncated = truncated_lifting(t, cert, r, cap)
        assert truncated <= np.sqrt(matcore.operator_norm(hardy.box_gap(hat_t, cap))), cap
        assert abs(truncated - closed) < previous, cap
        previous = abs(truncated - closed)
    assert previous < 1e-9


# commuting tuples with one to five hat coordinates, nilpotent or not, and
# the norm-1 (3,2) product triple
STEIN_CASES = {
    "W1": w1_product_triple,
    "W2": w2_tensor_jordan,
    "W3": w3_nonnormal,
    "diagonal": lambda: diagonal_triple(np.random.default_rng(20240811)),
    "product32": lambda: generators.product_triple(generators.jordan_pair(3, 2, 1.0, 1.0), 2, 1),
    "telescoping6": lambda: telescoping(6),
}


@pytest.mark.parametrize("case", list(STEIN_CASES))
def test_one_stein_system_matches_the_m_system_oracle(case):
    # Y = sum_a T_a Z_a from one right side against the m Stein systems
    t, cert = STEIN_CASES[case]()
    r = rz.build_generating_unitary(t, cert)
    strict, lifting = rz._lifting_residuals(t, cert, r)
    oracle_strict, oracle_lifting = oracle_lifting_residuals(t, cert, r)
    assert abs(strict - oracle_strict) <= 1e-15
    assert abs(lifting - oracle_lifting) <= 1e-15


def perturbed(r, block, eps=1e-6):
    """r with eps times a fixed unit-entry matrix added to one block of U."""
    bump = getattr(r, block)
    return dataclasses.replace(r, **{block: bump + eps * np.ones_like(bump)})


@pytest.mark.parametrize("block", ["a", "b", "c", "d"])
def test_lifting_sees_every_block_of_u(block):
    t, cert = w3_nonnormal()
    r = rz.build_generating_unitary(t, cert)
    assert suite_row(t, cert, r, 8, "lifting").residual < 1e-13
    assert suite_row(t, cert, perturbed(r, block), 8, "lifting").residual > 1e-8


@pytest.mark.parametrize("block, moves", [("a", False), ("b", False), ("c", True), ("d", True)])
def test_strict_multiplier_blind_to_a_and_b(block, moves):
    # the row reads only the lower colligation row [C, D]
    t, cert = w3_nonnormal()
    r = rz.build_generating_unitary(t, cert)
    res = suite_row(t, cert, perturbed(r, block), 8, "strict_multiplier").residual
    assert (res > 1e-8) if moves else (res < 1e-13), res


# The rows of the identity suite's report; a corrupted certificate must fail
# one of them.
KEPT_ROWS = {
    "generating_identity",
    "unitarity",
    "pi_isometry_defect",
    "strict_multiplier",
    "lifting",
    "schur_identity",
    "inner_deviation",
    "inner_singular_fraction",
}
# (tuple and certificate, cap).  The suite reads F_i and its frame only
# through the frame's coordinates Q_i* F_i, so the mutations skip W3's
# second block, whose frame has rank 0.
CERT_FIXTURES = {
    "w1": (lambda: generators.product_triple(generators.jordan_pair(3, 3, 0.9, 0.9), 2, 3), 12),
    "w2": (w2_tensor_jordan, 8),
    "w3": (w3_nonnormal, 12),
}
CERT_MUTATIONS = [
    (name, field, index)
    for name, blocks in (("w1", 2), ("w2", 3), ("w3", 1))
    for field, index in [("defect", "hermitian"), ("defect", None), ("d_frame", None)]
    + [(field, i) for field in ("f", "f_frames") for i in range(blocks)]
]


def noise(shape):
    rng = np.random.default_rng(15)
    return 1e-6 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("name, field, index", CERT_MUTATIONS)
def test_suite_sees_certificate_noise(name, field, index):
    # U is built from the clean certificate; 1e-6 noise on one certificate
    # block must fail a row of the suite
    build, cap = CERT_FIXTURES[name]
    t, cert = build()
    r = rz.build_generating_unitary(t, cert)
    value = getattr(cert, field)
    if field == "defect":
        bump = noise(value.shape)
        value = value + (bump + adj(bump) if index == "hermitian" else bump)
    elif index is None:
        value = value + noise(value.shape)
    else:
        assert cert.ranks[index] > 0
        value = tuple(v + noise(v.shape) if i == index else v for i, v in enumerate(value))
    bad = dataclasses.replace(cert, **{field: value})
    report = rz.run_identity_suite(t, bad, r, cap=cap, schur_points=4, inner_grid=8)
    failed = {row.name for row in report.rows if not row.ok}
    assert failed & KEPT_ROWS, failed


def test_noise_on_a_zero_coordinate_breaks_commutativity():
    # W3's T_2 = 0 enters no row of the suite; the same noise there makes the
    # tuple fail make_tuple's commutator check
    t, _ = w3_nonnormal()
    ops = list(t.ops)
    ops[1] = ops[1] + noise(ops[1].shape)
    with pytest.raises(NotCommuting):
        tuples.make_tuple(ops)


def test_lifting_rows_fail_on_a_zero_pivot(monkeypatch):
    # the Stein system is the only unstacked solve of the suite; a zero pivot
    # there makes both closed rows read inf instead of raising
    t, cert = w3_nonnormal()
    r = rz.build_generating_unitary(t, cert)
    solve = matcore.solve_stack

    def singular_system(m, b):
        return solve(m, b) if m.ndim > 2 else (b, np.zeros((), dtype=bool))

    monkeypatch.setattr(matcore, "solve_stack", singular_system)
    report = rz.run_identity_suite(t, cert, r, cap=4, schur_points=1, inner_grid=4)
    for name in ("lifting", "strict_multiplier"):
        assert report.row(name).residual == np.inf and not report.row(name).ok
    assert not report.ok


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
    t, cert = diagonal_triple(rng)
    report = rz.run_identity_suite(t, cert, cap=10, schur_points=25, inner_grid=16)
    assert report.ok, [(r.name, r.residual, r.bound) for r in report.rows if not r.ok]
    assert report.rho > 0.0


def test_identity_suite_tiny_cap_exact_bounds(rng):
    # a cap of 1 leaves most of the norm outside the box, and no bound widens
    t, cert = diagonal_triple(rng)
    report = rz.run_identity_suite(t, cert, cap=1, schur_points=10, inner_grid=8)
    assert report.cap == 1
    assert report.ok, [(r.name, r.residual, r.bound) for r in report.rows if not r.ok]
    for row in report.rows:
        if row.name not in ("schur_identity", "inner_deviation", "inner_singular_fraction"):
            assert row.bound <= 1e-9, row


@pytest.mark.parametrize("cap", [8, 12])
def test_identity_suite_non_normal_ok(cap):
    t, cert = w3_nonnormal()
    report = rz.run_identity_suite(t, cert, cap=cap, schur_points=4, inner_grid=8)
    assert report.ok, [(r.name, r.residual, r.bound) for r in report.rows if not r.ok]
    assert report.cap == cap and report.taylor_cap == 2 * cap
    # |box defect + <gap h, h>|; a gap of the wrong sign would leave twice
    # the box defect, 0.29 at cap 12
    assert report.row("pi_isometry_defect").residual < 1e-14


LIMIT = 1.0 - tuples.PURE_TOL


# T_1 = a I + s J_2 beside T_2 = I / 2, at the purity threshold: a normal
# T_1 is judged by its norm, a non-normal one by radius iterates that stay
# near a + s/2, above its spectral radius a
@pytest.mark.parametrize(
    "a, s, pure",
    [
        (LIMIT - 1e-9, 0.0, True),
        (LIMIT, 0.0, False),
        (LIMIT + 1e-9, 0.0, False),
        (LIMIT - 1e-8, 1e-9, True),
        (LIMIT - 1e-9, 1e-8, False),
    ],
    ids=["normal-below", "normal-at", "normal-above", "non-normal-below", "estimate-above"],
)
def test_suite_purity_verdict_is_is_pure(a, s, pure):
    pair = tuples.make_tuple([a * np.eye(2) + s * generators.lower_shift(2), 0.5 * np.eye(2)])
    t = tuples.make_tuple([*pair.ops, pair.op(1) @ pair.op(2)])
    hat_t = tuples.hat(t, 3)
    rho = max(tuples.spectral_radius(m) for m in hat_t.ops)
    assert tuples.is_pure(hat_t) is pure
    if pure:
        _, cert = generators.product_triple(pair, 1, 1)
        report = rz.run_identity_suite(t, cert, schur_points=4, inner_grid=4)
        assert report.rho == rho
        return
    # no certificate validates t, so the suite is handed another tuple's:
    # it reads purity from t before anything else
    t0, cert0 = zero_triple(2)
    with pytest.raises(NotPure) as info:
        rz.run_identity_suite(t, cert0, rz.build_generating_unitary(t0, cert0))
    assert info.value.rho == rho

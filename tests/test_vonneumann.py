import itertools

import numpy as np
import pytest

from polydil import matcore, realization as rz, tuples, vonneumann as vn
from polydil.errors import ArityMismatch, ParseError
from polydil.matcore import adj

from conftest import (
    constant_realization,
    random_complex,
    random_unitary,
    w2_tensor_jordan,
    zero_triple,
)


# ---------------------------------------------------------------------------
# polynomial parsing


def test_parse_simple_sum():
    p = vn.parse_poly("z1*z2 + z3")
    assert p.nvars == 3
    assert p.terms == {(1, 1, 0): 1.0, (0, 0, 1): 1.0}


def test_parse_constant_needs_arity():
    p = vn.parse_poly("1", nvars=3)
    assert p.terms == {(0, 0, 0): 1.0}
    with pytest.raises(ParseError):
        vn.parse_poly("1")


def test_parse_signs_and_powers():
    p = vn.parse_poly("-z1^2 + 2*z1 - 3")
    assert p.terms == {(2,): -1.0, (1,): 2.0, (0,): -3.0}


def test_parse_imaginary_and_paren_coefficients():
    p = vn.parse_poly("2i*z1 + (0.5+0.5i)*z1^2*z2")
    assert p.terms[(1, 0)] == pytest.approx(2j)
    assert p.terms[(2, 1)] == pytest.approx(0.5 + 0.5j)


def test_parse_bare_complex_sum_is_two_terms():
    p = vn.parse_poly("1+2i", nvars=1)
    assert p.terms == {(0,): 1 + 2j}


def test_parse_scientific_notation():
    p = vn.parse_poly("1e-3*z2", nvars=2)
    assert p.terms[(0, 1)] == pytest.approx(1e-3)


def test_parse_whitespace_insensitive():
    a = vn.parse_poly(" z1 * z2\n+  0.25 * z3 ")
    b = vn.parse_poly("z1*z2+0.25*z3")
    assert a.terms == b.terms


def test_parse_rejects_garbage():
    for bad in ("z0", "z1**2", "(1+2i", "q1", "", "z1^-1"):
        with pytest.raises(ParseError):
            vn.parse_poly(bad, nvars=2)


def test_parse_rejects_arity_overflow():
    with pytest.raises(ParseError):
        vn.parse_poly("z4", nvars=3)


def test_multipoly_drops_zero_terms():
    p = vn.multipoly(2, {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 1.0 - 1.0})
    assert p.terms == {(1, 0): 1.0}


# ---------------------------------------------------------------------------
# functional calculus


def test_eval_constant_poly(triple22):
    t, _ = triple22
    p = vn.multipoly(3, {(0, 0, 0): 1.0})
    assert np.allclose(vn.eval_poly_tuple(p, t), np.eye(t.dim))


def test_eval_single_variable(triple22):
    t, _ = triple22
    p = vn.multipoly(3, {(1, 0, 0): 1.0})
    assert np.allclose(vn.eval_poly_tuple(p, t), t.ops[0])


def test_eval_zero_tuple():
    t, _ = zero_triple()
    p = vn.multipoly(3, {(1, 1, 0): 1.0, (0, 0, 1): 1.0})
    assert matcore.operator_norm(vn.eval_poly_tuple(p, t)) == 0.0


def test_eval_monomial_against_direct_product(triple22, rng):
    t, _ = triple22
    p = vn.multipoly(3, {(2, 1, 1): 0.5 - 0.25j})
    direct = (0.5 - 0.25j) * t.ops[0] @ t.ops[0] @ t.ops[1] @ t.ops[2]
    assert np.allclose(vn.eval_poly_tuple(p, t), direct)


def test_eval_arity_mismatch(triple22):
    t, _ = triple22
    with pytest.raises(ArityMismatch):
        vn.eval_poly_tuple(vn.multipoly(2, {(1, 0): 1.0}), t)


# ---------------------------------------------------------------------------
# torus scans


def test_torus_sup_first_variable(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    p = vn.multipoly(3, {(1, 0, 0): 1.0})
    scan = vn.torus_sup(p, r, 8)
    assert scan.sup == pytest.approx(1.0, abs=1e-12)


def test_torus_sup_constant(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    p = vn.multipoly(3, {(0, 0, 0): 0.5 - 0.5j})
    scan = vn.torus_sup(p, r, 8)
    assert scan.sup == pytest.approx(abs(0.5 - 0.5j), abs=1e-12)


def test_torus_sup_last_variable_constant_unitary(rng):
    r = constant_realization(random_unitary(rng, 3))
    p = vn.multipoly(3, {(0, 0, 1): 1.0})
    scan = vn.torus_sup(p, r, 8)
    assert scan.sup == pytest.approx(1.0, abs=1e-12)


def test_polydisc_grid_sup_bounded_by_coefficient_sum(rng):
    p = vn.multipoly(3, {(1, 0, 0): 1.0, (0, 1, 1): -2.0})
    sup = vn.polydisc_grid_sup(p, 16)
    assert sup <= 3.0 + 1e-12
    assert sup >= 2.0  # attained on the grid at aligned phases


# ---------------------------------------------------------------------------
# split_transfer


def test_split_constant_unitary(rng):
    u = random_unitary(rng, 3)
    split = vn.split_transfer(constant_realization(u))
    assert split.h0_dim == 3
    assert split.cnu_part is None
    # the unitary block is A* expressed in the H0 frame
    frame = split.h0_frame
    assert matcore.operator_norm(split.unitary_block - adj(frame) @ adj(u) @ frame) < 1e-12


def test_split_strict_contraction(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    split = vn.split_transfer(r)
    assert split.h0_dim == 0
    assert split.cnu_part is not None
    assert split.cnu_part.dim_e == r.dim_e


def mixed_block_realization(rng):
    """Unitary U assembled from two decoupled unitaries: a 2x2 rotation acting
    on its own summand of the E-space (giving Phi a genuine unitary part) and
    a 2x2 scrambler tying the remaining E-direction to the 1-dim F-space."""
    theta = 0.9
    w = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    v = random_unitary(rng, 2)
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = w
    a[2, 2] = v[0, 0]
    b = np.zeros((3, 1), dtype=complex)
    b[2, 0] = v[0, 1]
    c = np.zeros((1, 3), dtype=complex)
    c[0, 2] = v[1, 0]
    d = v[1:, 1:]
    return rz.TransferRealization(a=a, b=b, c=c, d=d, partition=(1, 0))


def test_split_mixed_blocks(rng):
    r = mixed_block_realization(rng)
    assert rz.unitarity_residual(r) < 1e-12
    split = vn.split_transfer(r)
    assert split.h0_dim == 2
    assert split.cnu_part is not None and split.cnu_part.dim_e == 1
    assert split.offdiag_max < 1e-10
    # block reading: W* is the rotation adjoint up to the frame
    frame = split.h0_frame
    expected = adj(frame) @ adj(r.a) @ frame
    assert matcore.operator_norm(split.unitary_block - expected) < 1e-10


def test_split_block_diagonality_random_points(rng):
    r = mixed_block_realization(rng)
    split = vn.split_transfer(r)
    h0, h1 = split.h0_frame, split.h1_frame
    for _ in range(100):
        z = tuple(np.sqrt(rng.uniform(0, 0.9)) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2))
        phi = rz.transfer_eval(r, z)
        assert matcore.operator_norm(adj(h0) @ phi @ h1) <= 1e-8
        assert matcore.operator_norm(adj(h1) @ phi @ h0) <= 1e-8


# ---------------------------------------------------------------------------
# the batched evaluation of Phi


def one_point_phi(r, z):
    """Phi(z) from a dense E(z) and a direct inverse, one point at a time."""
    e_z = np.diag(np.repeat(np.asarray(z, dtype=complex), r.partition))
    x = np.linalg.inv(np.eye(r.dim_f) - adj(r.d) @ e_z)
    return adj(r.a) + adj(r.c) @ e_z @ x @ adj(r.b)


@pytest.mark.parametrize("which", ["triple22", "mixed"])
def test_transfer_eval_many_matches_one_point(which, triple22, rng):
    if which == "mixed":
        r = mixed_block_realization(rng)  # partition (1, 0): a zero-size block
    else:
        r = rz.build_generating_unitary(*triple22)
    count = 2 * rz.CHUNK + 17
    radii = 0.95 * np.sqrt(rng.uniform(size=(count, 2)))
    points = radii * np.exp(2j * np.pi * rng.uniform(size=(count, 2)))
    covered = 0
    for rows, phi, regular in rz.transfer_eval_many(r, points):
        assert rows.start == covered and regular.all()
        for z, value in zip(points[rows], phi):
            assert matcore.operator_norm(value - one_point_phi(r, z)) < 1e-14
            assert matcore.operator_norm(value - rz.transfer_eval(r, tuple(z))) < 1e-14
        covered += len(phi)
    assert covered == count


@pytest.mark.parametrize("grid", [8, rz.CHUNK + 8])
def test_exactly_singular_point_is_skipped_alone(grid):
    # Phi is constantly 1 and I - D* E(z) = 1 - z vanishes exactly at z = 1,
    # the first grid point, which shares its chunk with regular points
    one = np.ones((1, 1), dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    r = rz.TransferRealization(a=one, b=zero, c=zero, d=one, partition=(1,))
    inner = rz.inner_check(r, grid)
    assert (inner.singular_points, inner.grid_points) == (1, grid)
    assert inner.max_deviation < 1e-15
    cache = vn.precompute_torus(r, grid)
    assert cache.singular_points == 1
    assert cache.points.shape == (grid - 1, 1)
    assert np.all(cache.points[:, 0] != 1.0)
    assert np.allclose(cache.phi, 1.0) and np.allclose(cache.eigs, 1.0)


# ---------------------------------------------------------------------------
# variety sampling


def variety_oracle(r, grid_per_axis, radius):
    """The sample point by point: itertools.product over the disc points,
    then Phi_1, its eigenvalues and the determinants at each base point."""
    split = vn.split_transfer(r)
    coords = np.linspace(-radius, radius, grid_per_axis)
    disc = [complex(x, y) for x in coords for y in coords if abs(complex(x, y)) <= radius]
    w = split.unitary_block
    v0 = [(lam, "V0", np.abs(matcore.det(lam * np.eye(len(w)) - w))) for lam in matcore.eigvals(w)]
    rows = []
    for base in itertools.product(disc, repeat=len(r.partition)):
        fibers = []
        if split.cnu_part is not None:
            phi = rz.transfer_eval(split.cnu_part, base)
            eye = np.eye(len(phi))
            fibers = [(lam, "V1", np.abs(matcore.det(lam * eye - phi))) for lam in matcore.eigvals(phi)]
        rows += [(base, lam, comp, res, abs(lam) < 1.0) for lam, comp, res in fibers + v0]
    return rows


def direct_sum_constant(r, u):
    """r with the 1x1 unimodular constant u added to its E-space: Phi (+) conj(u)."""
    e, f = r.dim_e, r.dim_f
    a = np.zeros((e + 1, e + 1), dtype=complex)
    a[:e, :e], a[e, e] = r.a, u
    return rz.TransferRealization(
        a=a,
        b=np.vstack([r.b, np.zeros((1, f))]),
        c=np.hstack([r.c, np.zeros((f, 1))]),
        d=r.d,
        partition=r.partition,
    )


@pytest.mark.parametrize(
    "which, grid, count",
    [("triple22", 5, 13**2 * 4), ("m3", 4, 4**3 * 8), ("mixed", 5, 13**2 * 2), ("triple22", 2, 0)],
)
def test_variety_sample_matches_point_oracle(which, grid, count, triple22):
    if which == "m3":
        r = rz.build_generating_unitary(*w2_tensor_jordan())
    elif which == "mixed":
        # np.abs puts this V0 fiber at |lambda| < 1, Python's abs at exactly 1
        r = direct_sum_constant(rz.build_generating_unitary(*zero_triple(1)), np.exp(0.2j))
    else:
        r = rz.build_generating_unitary(*triple22)
    sample = vn.variety_sample(r, grid_per_axis=grid, radius=0.95)
    points = sample.points
    expected = np.array(variety_oracle(r, grid, 0.95), dtype=points.dtype)
    assert points.shape == expected.shape == (count,)
    for name in points.dtype.names:
        assert points[name].tobytes() == expected[name].tobytes(), name
    assert sample.max_residual == max([0.0] + points["residual"].tolist())
    assert sample.residual_ok and sample.singular_points == 0
    assert sample.h0_dim == (which == "mixed")


def test_variety_max_residual_skips_nan(triple22, monkeypatch):
    r = rz.build_generating_unitary(*triple22)
    det = matcore.det

    def nan_det(a):
        d = det(a)
        if np.ndim(d) == 2:  # the (G, e) residual stack of the V1 fibers
            d[0, 1] = np.nan
        return d

    monkeypatch.setattr(matcore, "det", nan_det)
    sample = vn.variety_sample(r, grid_per_axis=5, radius=0.95)
    residuals = sample.points["residual"]
    assert np.isnan(residuals[1]) and np.count_nonzero(np.isnan(residuals)) == 1
    old = 0.0
    for res in residuals.tolist():  # the per-point running maximum
        old = max(old, res)
    assert sample.max_residual == old == np.nanmax(residuals) > 0.0
    assert sample.residual_ok


def test_variety_constant_unitary_fibers():
    lam = np.exp(0.7j)
    r = constant_realization(np.array([[np.conj(lam)]], dtype=complex))
    sample = vn.variety_sample(r, grid_per_axis=3, radius=0.9)
    assert sample.h0_dim == 1
    points = sample.points
    assert len(points) == 5**2
    assert np.all(points["component"] == "V0")
    assert np.allclose(points["fiber"], lam, rtol=0.0, atol=1e-12)
    assert not np.any(points["interior"])


def test_variety_zero_triple_flip():
    t, cert = zero_triple(1)
    r = rz.build_generating_unitary(t, cert)
    sample = vn.variety_sample(r, grid_per_axis=5, radius=0.9)
    assert sample.h0_dim == 0
    points = sample.points
    assert len(points) and np.all(points["component"] == "V1")
    assert np.allclose(points["fiber"], points["base"][:, 0], rtol=0.0, atol=1e-10)


def test_fiber_bound_matches_exact_rule(rng):
    # residuals on, just inside and just outside the exact bound and the two
    # screening bounds; rank-one matrices have L < F = ||Phi||
    phi = random_complex(rng, 12, 4, 4)
    phi[6:] = random_complex(rng, 6, 4, 1) @ random_complex(rng, 6, 1, 4)
    phi /= 1.5 * matcore.operator_norm(phi)[:, None, None]
    root_tol = 1e-7
    lower, upper = matcore.norm_bounds(phi)
    exact = root_tol * (1.0 + matcore.operator_norm(phi)) ** 4
    edges = [exact, root_tol * (1.0 + lower) ** 4, root_tol * (1.0 + upper) ** 4]
    for edge in edges:
        for factor in (0.0, 1 - 1e-7, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 1 + 1e-7, np.nan):
            worst = edge * factor
            assert np.array_equal(vn._fiber_bound_fails(worst, phi, root_tol), worst > exact)


def test_variety_strict_contraction_interior(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    sample = vn.variety_sample(r, grid_per_axis=5, radius=0.9)
    assert sample.residual_ok
    assert len(sample.points) and np.all(sample.points["interior"])
    assert sample.max_residual <= 1e-7


# ---------------------------------------------------------------------------
# the inequality


def test_vn_check_product_triple_monomial(triple22):
    t, cert = triple22
    p = vn.multipoly(3, {(0, 0, 1): 1.0})
    report = vn.vn_check(p, t, cert, grid=16)
    t3 = t.ops[2]
    assert report.lhs == pytest.approx(matcore.operator_norm(t3))
    assert report.lhs <= report.rhs + 1e-9
    assert report.rhs <= 1.0 + 1e-9


def test_vn_check_constant_margin_zero(triple22):
    t, cert = triple22
    p = vn.multipoly(3, {(0, 0, 0): 1.0})
    report = vn.vn_check(p, t, cert, grid=8)
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_vn_check_zero_triple():
    t, cert = zero_triple()
    p = vn.multipoly(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0})
    report = vn.vn_check(p, t, cert, grid=8)
    assert report.lhs == 0.0
    assert report.rhs == pytest.approx(2.0, abs=1e-12)


def test_vn_grid_monotone(triple22, rng):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    p = vn.multipoly(
        3,
        {
            (1, 0, 0): complex(rng.standard_normal(), rng.standard_normal()),
            (0, 1, 1): complex(rng.standard_normal(), rng.standard_normal()),
            (1, 1, 1): complex(rng.standard_normal(), rng.standard_normal()),
        },
    )
    sups = [vn.torus_sup(p, r, grid).sup for grid in (4, 8, 16, 32)]
    for small, big in zip(sups, sups[1:]):
        assert big >= small - 1e-12


def test_vn_sharpness_ordering_random(triple22, rng):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    cache = vn.precompute_torus(r, 16)
    split = vn.split_transfer(r)
    for _ in range(40):
        terms = {}
        for _ in range(4):
            k = tuple(int(x) for x in rng.integers(0, 2, size=3))
            terms[k] = complex(rng.standard_normal(), rng.standard_normal())
        p = vn.multipoly(3, terms)
        if not p.terms:
            continue
        report = vn.vn_check(p, t, cert, grid=16, realization=r, cache=cache, split=split)
        assert report.margin >= -1e-7
        assert report.rhs <= report.polydisc_sup + 1e-9


def test_pure_tn_refinement_product_triple(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    assert vn.pure_tn_refinement(t, cert, r)
    assert vn.split_transfer(r).h0_dim == 0


def test_pure_tn_refinement_vacuous_for_unitary_tn(rng):
    d = 3
    zero = np.zeros((d, d))
    w = random_unitary(rng, d)
    t = tuples.make_tuple([zero, zero, w])
    cert = tuples.verify_certificate(t, [zero, zero])
    r = rz.build_generating_unitary(t, cert)
    assert vn.pure_tn_refinement(t, cert, r)  # vacuously: T_n is not pure


def test_vn_check_unitary_tn_still_valid(rng):
    # h0_dim may be positive here, but the inequality itself must hold
    d = 2
    zero = np.zeros((d, d))
    w = random_unitary(rng, d)
    t = tuples.make_tuple([zero, zero, w])
    cert = tuples.verify_certificate(t, [zero, zero])
    p = vn.multipoly(3, {(0, 0, 1): 1.0, (0, 0, 0): 0.5})
    report = vn.vn_check(p, t, cert, grid=8)
    assert report.margin >= -1e-7

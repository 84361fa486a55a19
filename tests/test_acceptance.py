"""Acceptance gate: one test per criterion, each printing a pass line.

The fixture family is the product-triple grid over Jordan pairs
(d1, d2) in {(2,2), (3,2), (3,3)}, scales r in {1, 0.9} and exponents
(j, k) in {(1,1), (2,1), (2,3)}; everything heavier than certification is
computed once per fixture and shared.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from polydil import generators, hardy, matcore, realization as rz, tuples, vonneumann as vn

from conftest import box_coefficients, diagonal_triple, poly_roots, svd_torus_sup, w3_nonnormal

DIMS = [(2, 2), (3, 2), (3, 3)]
SCALES = [1.0, 0.9]
EXPONENTS = [(1, 1), (2, 1), (2, 3)]

CAP = 12
GRID = 32
VN_POLYS = 100
VN_SEED = 90210
# every ORACLE_STRIDE-th polynomial is checked against the SVD torus norm
ORACLE_STRIDE = 10


@dataclass
class Fixture:
    label: str
    r_scale: float
    t: tuples.OperatorTuple
    cert: tuples.DilationCertificate
    realization: rz.TransferRealization
    report: rz.VerificationReport


def _passline(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def fixtures() -> list[Fixture]:
    out = []
    for (d1, d2), r_scale, (j, k) in itertools.product(DIMS, SCALES, EXPONENTS):
        pair = generators.jordan_pair(d1, d2, r_scale, r_scale)
        t, cert = generators.product_triple(pair, j, k)
        real = rz.build_generating_unitary(t, cert)
        report = rz.run_identity_suite(
            t, cert, real, cap=CAP, schur_points=100, inner_grid=GRID, seed=7
        )
        out.append(
            Fixture(
                label=f"d=({d1},{d2}) r={r_scale} (j,k)=({j},{k})",
                r_scale=r_scale,
                t=t,
                cert=cert,
                realization=real,
                report=report,
            )
        )
    return out


def test_criterion_01_certification_soundness():
    started = time.perf_counter()
    count = 0
    for (d1, d2), r_scale, (j, k) in itertools.product(DIMS, SCALES, EXPONENTS):
        pair = generators.jordan_pair(d1, d2, r_scale, r_scale)
        t, cert = generators.product_triple(pair, j, k)
        assert cert.sum_residual <= 1e-12, (d1, d2, r_scale, j, k, cert.sum_residual)
        assert min(cert.g_margins) >= -1e-10
        assert min(cert.product_margins) >= -1e-10
        assert cert.szego_min_eig >= -1e-10
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"certification took {elapsed:.2f}s"
    _passline(
        "criterion 1 (certification soundness)",
        f"{count} product-triple certificates accepted in {elapsed:.2f}s",
    )


def test_criterion_02_generating_identity(fixtures):
    worst_gen = worst_unit = 0.0
    for fx in fixtures:
        gen = fx.report.row("generating_identity")
        unit = fx.report.row("unitarity")
        assert gen.residual <= 1e-9, (fx.label, gen.residual)
        assert unit.residual <= 1e-10, (fx.label, unit.residual)
        worst_gen = max(worst_gen, gen.residual)
        worst_unit = max(worst_unit, unit.residual)
    _passline(
        "criterion 2 (generating identity)",
        f"max residual {worst_gen:.2e}, max unitarity defect {worst_unit:.2e}",
    )


def test_criterion_03_dilation_identities(fixtures):
    def nilpotency_order(m):
        """Smallest p <= dim with ||M^p|| <= 1e-14, or None."""
        p = np.eye(m.shape[0], dtype=complex)
        for order in range(1, m.shape[0] + 1):
            p = p @ m
            if matcore.operator_norm(p) <= 1e-14:
                return order
        return None

    worst_inter = worst_defect = 0.0
    for fx in fixtures:
        hat_t = tuples.hat(fx.t, 3)
        orders = [nilpotency_order(m) or CAP for m in hat_t.ops]
        cap = max(orders) if fx.r_scale == 1.0 else CAP
        m = matcore.adj(fx.cert.d_frame) @ fx.cert.defect
        pi = hardy.CoefficientEmbedding(hat_t, m, cap)
        coeffs = box_coefficients(hat_t, m, cap)
        # Pi_{k+e_i} = Pi_k T_i*, per coefficient and basis vector; the box is
        # built one axis at a time, so this reads commutativity on all but the last
        for i, op in enumerate(hat_t.ops):
            low = np.take(coeffs, range(cap), axis=i)
            high = np.take(coeffs, range(1, cap + 1), axis=i)
            inter = float(np.max(np.linalg.norm(low @ matcore.adj(op) - high, axis=-2)))
            assert inter <= 1e-13, (fx.label, i, inter)
            worst_inter = max(worst_inter, inter)

        gap = hardy.box_gap(hat_t, cap)
        for idx in range(fx.t.dim):
            h = np.zeros(fx.t.dim)
            h[idx] = 1.0
            defect = abs(pi.isometry_defect(h) + gap[idx, idx].real)
            assert defect <= 1e-14, (fx.label, defect)
            worst_defect = max(worst_defect, defect)
    _passline(
        "criterion 3 (dilation identities)",
        f"max coordinate-shift residual {worst_inter:.2e}, "
        f"max isometry defect beyond the box gap {worst_defect:.2e}",
    )


def test_criterion_04_commutant_lifting(fixtures):
    worst = worst_swing = 0.0
    for fx in fixtures:
        lift = fx.report.row("lifting")
        assert lift.residual <= max(1e-9, lift.bound), (fx.label, lift.residual, lift.bound)
        order = list(reversed(range(fx.realization.dim_e + fx.realization.dim_f)))
        permuted = rz.build_generating_unitary(fx.t, fx.cert, completion_order=order)
        res2 = rz.run_identity_suite(
            fx.t, fx.cert, permuted, cap=fx.report.cap, schur_points=1, inner_grid=4
        ).row("lifting").residual
        swing = abs(res2 - lift.residual)
        assert swing <= 1e-9, (fx.label, swing)
        worst = max(worst, lift.residual)
        worst_swing = max(worst_swing, swing)
    _passline(
        "criterion 4 (commutant lifting)",
        f"max residual {worst:.2e}, max completion swing {worst_swing:.2e}",
    )


def test_criterion_05_identity_suite(fixtures):
    worst = 0.0
    for fx in fixtures:
        for row in fx.report.rows:
            assert row.residual <= row.bound, (fx.label, row.name, row.residual, row.bound)
            worst = max(worst, row.residual / row.bound)
    _passline(
        "criterion 5 (identity suite)",
        f"all {len(fixtures[0].report.rows)} rows within their bounds, "
        f"largest residual/bound {worst:.2e}",
    )


def test_criterion_06_schur_identity(fixtures):
    worst = 0.0
    for fx in fixtures:
        res = fx.report.row("schur_identity").residual
        assert res <= 1e-9, (fx.label, res)
        worst = max(worst, res)
    _passline(
        "criterion 6 (Schur identity)",
        f"max residual over 100 interior points per fixture {worst:.2e}",
    )


def test_criterion_07_innerness(fixtures):
    worst = 0.0
    for fx in fixtures:
        dev = fx.report.row("inner_deviation").residual
        frac = fx.report.row("inner_singular_fraction").residual
        assert dev <= 1e-7, (fx.label, dev)
        assert frac < 0.01, (fx.label, frac)
        assert fx.report.inner_singular == 0, (fx.label, fx.report.inner_singular)
        worst = max(worst, dev)
    _passline(
        "criterion 7 (innerness)",
        f"max boundary deviation {worst:.2e} on the {GRID}x{GRID} grid",
    )


def _random_poly(rng) -> vn.MultiPoly:
    exponents = [k for k in itertools.product(range(4), repeat=3) if sum(k) <= 3]
    terms = {}
    for _ in range(int(rng.integers(1, 7))):
        k = exponents[int(rng.integers(0, len(exponents)))]
        terms[k] = complex(rng.standard_normal(), rng.standard_normal())
    if not terms:
        terms = {(0, 0, 0): 1.0}
    return vn.multipoly(3, terms)


def test_criterion_08_von_neumann(fixtures):
    worst_margin = np.inf
    worst_oracle = 0.0
    for fi, fx in enumerate(fixtures):
        started = time.perf_counter()
        cache = vn.precompute_torus(fx.realization, GRID)
        split = vn.split_transfer(fx.realization)
        rng = np.random.default_rng(VN_SEED + fi)
        for index in range(VN_POLYS):
            poly = _random_poly(rng)
            report = vn.vn_check(
                poly,
                fx.t,
                fx.cert,
                grid=GRID,
                realization=fx.realization,
                cache=cache,
                split=split,
            )
            assert report.margin >= -1e-7, (fx.label, poly.terms, report.margin)
            assert report.rhs <= report.polydisc_sup + 1e-9, (
                fx.label,
                report.rhs,
                report.polydisc_sup,
            )
            worst_margin = min(worst_margin, report.margin)
            if index % ORACLE_STRIDE == 0:
                svd = svd_torus_sup(poly, fx.realization, cache.points)
                gap = abs(report.rhs - svd) / max(1.0, svd)
                assert gap <= 1e-12, (fx.label, poly.terms, report.rhs, svd)
                worst_oracle = max(worst_oracle, gap)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, (fx.label, elapsed)
    _passline(
        "criterion 8 (von Neumann)",
        f"{VN_POLYS} seeded polynomials per fixture, worst margin {worst_margin:.3e}, "
        f"fiber maximum within {worst_oracle:.1e} of the SVD norm",
    )


def test_criterion_09_pure_tn_refinement(fixtures):
    for fx in fixtures:
        rho = tuples.spectral_radius(fx.t.op(3))
        split = vn.split_transfer(fx.realization)
        assert rho < 1.0
        assert split.h0_dim == 0, (fx.label, split.h0_dim)
    _passline(
        "criterion 9 (pure last coordinate)",
        "every fixture with a pure last coordinate has an empty product component",
    )


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(VN_SEED)
    worst_defect = 0.0
    for n in (2, 3, 4):
        for _ in range(5):
            t = generators.random_candidate(int(rng.integers(0, 2**31)), 4, n)
            via_product = tuples.conjugacy_product(t.ops, np.eye(t.dim))
            res = matcore.operator_norm(via_product - tuples.szego_defect(t))
            assert res <= 1e-12, (n, res)
            worst_defect = max(worst_defect, res)
    worst_vieta = 0.0
    for degree in (3, 4):
        for _ in range(25):
            coeffs = np.concatenate(
                [[1.0], rng.standard_normal(degree) + 1j * rng.standard_normal(degree)]
            )
            roots = poly_roots(coeffs)
            recon = np.array([1.0 + 0.0j])
            for root in roots:
                recon = np.convolve(recon, np.array([1.0, -root], dtype=complex))
            err = float(np.max(np.abs(recon - coeffs)))
            assert err <= 1e-8, (degree, err)
            worst_vieta = max(worst_vieta, err)
    _passline(
        "criterion 10 (oracle equivalence)",
        f"defect-route agreement {worst_defect:.2e}, Vieta reconstruction {worst_vieta:.2e}",
    )


def test_closed_rows_on_non_nilpotent_tuples(rng):
    # the box misses part of the norm on these tuples, and the three rows
    # that read that loss hold to their exact bounds anyway
    cases = {"W3": w3_nonnormal(), "diagonal triple": diagonal_triple(rng)}
    worst = {}
    for label, (t, cert) in cases.items():
        real = rz.build_generating_unitary(t, cert)
        for cap in (1, 8, CAP):
            report = rz.run_identity_suite(t, cert, real, cap=cap, schur_points=4, inner_grid=8)
            gap = hardy.box_gap(tuples.hat(t, t.n), cap)
            assert np.max(gap.diagonal().real) > 1e-9, (label, cap)
            for name in ("pi_isometry_defect", "lifting", "strict_multiplier"):
                row = report.row(name)
                assert row.bound == 1e-10 and row.ok, (label, cap, name, row.residual)
                worst[name] = max(worst.get(name, 0.0), row.residual)
    _passline(
        "non-nilpotent closed rows",
        ", ".join(f"max {name} {value:.2e}" for name, value in worst.items()),
    )

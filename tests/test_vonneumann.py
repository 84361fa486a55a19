import itertools
import math
import random
import struct
import warnings

import numpy as np
import pytest

from polydil import generators, matcore, realization as rz, tuples, vonneumann as vn
from polydil.errors import ArityMismatch, ParseError
from polydil.matcore import adj

from conftest import (
    constant_realization,
    direct_sum_constant,
    full_grid_sup,
    oracle_base_coefficients,
    oracle_eval_poly_tuple,
    oracle_fiber_max,
    oracle_operator_torus_sup,
    oracle_parse_poly,
    oracle_vn_check,
    random_complex,
    random_unitary,
    svd_torus_sup,
    transfer_eval_many,
    unitary_last_triple,
    w1_product_triple,
    w2_tensor_jordan,
    w3_nonnormal,
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
    # a term opens with a run of signs; a literal after '*' may carry one
    assert vn.parse_poly("--z1").terms == {(1,): 1.0}
    assert vn.parse_poly("1+-z1").terms == {(0,): 1.0, (1,): -1.0}
    assert vn.parse_poly("z1*-2").terms == {(1,): -2.0}
    assert vn.parse_poly("z01 + z1^0").terms == {(1,): 1.0, (0,): 1.0}


def test_parse_imaginary_and_paren_coefficients():
    p = vn.parse_poly("2i*z1 + (0.5+0.5i)*z1^2*z2")
    assert p.terms[(1, 0)] == pytest.approx(2j)
    assert p.terms[(2, 1)] == pytest.approx(0.5 + 0.5j)


def test_parse_bare_complex_sum_is_two_terms():
    p = vn.parse_poly("1+2i", nvars=1)
    assert p.terms == {(0,): 1 + 2j}


def test_parse_rejects_coefficients_that_overflow():
    for text in ("1e999*z1", "1e200*1e200*z2", "1e308*z1 + 1e308*z1", "1e999*z1 - 1e999*z1"):
        with pytest.raises(ParseError):
            vn.parse_poly(text, nvars=2)
    assert vn.parse_poly("1e308*z1 - 1e308*z1", nvars=1).terms == {}
    with pytest.raises(ParseError):
        vn.multipoly(3, {(1, 0, 0): float("inf")})


def test_parse_scientific_notation():
    p = vn.parse_poly("1e-3*z2", nvars=2)
    assert p.terms[(0, 1)] == pytest.approx(1e-3)


def test_parse_whitespace_insensitive():
    a = vn.parse_poly(" z1 * z2\n+  0.25 * z3 ")
    b = vn.parse_poly("z1*z2+0.25*z3")
    assert a.terms == b.terms
    assert vn.parse_poly("1 2", nvars=1).terms == {(0,): 12.0}


def test_parse_rejects_garbage():
    bad_signs = ("z1*-z2", "z1*-(1)", "z1*+-1", "2e+z1", "z1+")
    bad_parens = ("()", "(1)(2)", "((1))", "1)")
    for bad in ("z0", "z1**2", "(1+2i", "q1", "", "z1^-1", *bad_signs, *bad_parens):
        with pytest.raises(ParseError):
            vn.parse_poly(bad, nvars=2)


def test_parse_rejects_arity_overflow():
    with pytest.raises(ParseError):
        vn.parse_poly("z4", nvars=3)


def test_parse_minus_i_has_real_part_plus_zero():
    # the term's product (-1)*i has real part -0.0; like terms are combined
    # from 0, which leaves +0.0, in this parser and in the oracle alike
    for parse in (vn.parse_poly, oracle_parse_poly):
        (a,) = parse("-i", nvars=1).terms.values()
        assert math.copysign(1.0, a.real) == 1.0 and a.imag == -1.0


# the alphabet of the random strings, with multi-character tokens beside it
_PARSE_ALPHABET = [*"z1203^*+-().ei E", "(0.5+0.5i)", "1e-3", "^2", "z1", "2i", ".5", "(-i)"]
_PARSE_VARS = ["z1", "z2", "z3", "z0", "z4", "z01", "z1^2", "z2^0", "z3^3", "z12"]
_PARSE_LITERALS = [
    "2", "0.5", ".5", "3.", "1e-3", "1E+2", "1e308", "1e999", "0", "i", "2i", "1e-3i",
    "(0.5+0.5i)", "(-0.0-0.0i)", "(-i)", "(+1)", "(1e308+1e308i)", "(2)", "(z1)",
]


def _random_string(rnd):
    return "".join(rnd.choices(_PARSE_ALPHABET, k=rnd.randint(1, 8)))


def _structured_sum(rnd):
    """A sum of 1-3 terms, each a run of signs (possibly empty on the first)
    and one or two factors; a factor after '*' carries a sign one time in
    three."""
    out = []
    for j in range(rnd.randint(1, 3)):
        out.append(rnd.choice(("", "+", "-", "--", "+-", "-+-")[1 if j else 0 :]))
        for f in range(rnd.randint(1, 2)):
            if f:
                out.append("*" + rnd.choice(("", "", "", "", "-", "+")))
            out.append(rnd.choice(_PARSE_VARS if rnd.random() < 0.5 else _PARSE_LITERALS))
    return " ".join(out) if rnd.random() < 0.1 else "".join(out)


def _parse_outcome(parse, text, nvars):
    """The error type, or the arity and the terms in order, each coefficient
    packed bit for bit."""
    try:
        p = parse(text, nvars)
    except ParseError as exc:
        return type(exc)
    return p.nvars, [(k, struct.pack("<dd", a.real, a.imag)) for k, a in p.terms.items()]


def test_parse_matches_the_two_pass_oracle():
    rnd = random.Random(20261019)
    texts = [_random_string(rnd) for _ in range(20000)]
    texts += [_structured_sum(rnd) for _ in range(20000)]
    for nvars in (None, 3):
        outcomes = [_parse_outcome(vn.parse_poly, text, nvars) for text in texts]
        expected = [_parse_outcome(oracle_parse_poly, text, nvars) for text in texts]
        mismatches = [(text, a, b) for text, a, b in zip(texts, outcomes, expected) if a != b]
        assert mismatches == [], (nvars, mismatches[:3])
        # both verdicts are well represented
        assert 0.1 < 1 - outcomes.count(ParseError) / len(texts) < 0.9


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


def seeded_poly(rng, nvars):
    """1 to 6 terms with exponents below 4, complex normal coefficients."""
    terms = {tuple(int(x) for x in rng.integers(0, 4, nvars)): complex(*rng.standard_normal(2))
             for _ in range(int(rng.integers(1, 7)))}
    return vn.multipoly(nvars, terms)


def without(terms, absent):
    """The polynomial of these terms with the variables of ``absent``
    (0-based) set to 1, like terms combined in term order: no term reaches
    them."""
    nvars, out = len(next(iter(terms))), {}
    for k, a in terms.items():
        k = tuple(0 if i in absent else e for i, e in enumerate(k))
        out[k] = out.get(k, 0) + a
    return vn.multipoly(nvars, out)


def seeded_polys_without_each_subset(rng, nvars, count):
    """``count`` seeded polynomials for every subset of absent variables:
    among them deg_n = 0, every base variable absent and the constant."""
    for size in range(nvars + 1):
        for absent in itertools.combinations(range(nvars), size):
            for _ in range(count):
                yield without(seeded_poly(rng, nvars).terms, absent)


@pytest.mark.parametrize("which", ["w1", "w2", "w3"])
def test_eval_matches_the_identity_products_bit_for_bit(which, rng):
    t, _ = WORKLOAD_INPUTS[which]()
    polys = [seeded_poly(rng, t.n) for _ in range(20)]
    polys += [vn.multipoly(t.n, {(0,) * t.n: 0.5 - 2j}), vn.multipoly(t.n, {})]
    for p in polys:
        assert vn.eval_poly_tuple(p, t).tobytes() == oracle_eval_poly_tuple(p, t).tobytes(), p.terms


# ---------------------------------------------------------------------------
# torus scans


def test_torus_sup_first_variable(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    p = vn.multipoly(3, {(1, 0, 0): 1.0})
    sup = vn.torus_sup(p, vn.precompute_torus(r, 8))
    assert sup == pytest.approx(1.0, abs=1e-12)


def test_torus_sup_constant(triple22):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    p = vn.multipoly(3, {(0, 0, 0): 0.5 - 0.5j})
    sup = vn.torus_sup(p, vn.precompute_torus(r, 8))
    assert sup == pytest.approx(abs(0.5 - 0.5j), abs=1e-12)


def test_torus_sup_last_variable_constant_unitary(rng):
    r = constant_realization(random_unitary(rng, 3))
    p = vn.multipoly(3, {(0, 0, 1): 1.0})
    sup = vn.torus_sup(p, vn.precompute_torus(r, 8))
    assert sup == pytest.approx(1.0, abs=1e-12)


def test_torus_sup_never_exceeds_the_svd_norm():
    # Phi is the constant nilpotent 0.9 [[0, 0], [1, 0]], not unitary: its
    # fibers are 0 while ||Phi|| = 0.9, so the fiber maximum reads 0
    r = constant_realization(0.9 * np.array([[0, 1], [0, 0]], dtype=complex))
    p = vn.multipoly(3, {(0, 0, 1): 1.0})
    cache = vn.precompute_torus(r, 8)
    assert vn.torus_sup(p, cache) == 0.0
    assert svd_torus_sup(p, r, cache.points) == pytest.approx(0.9, abs=1e-15)


def test_polydisc_grid_sup_bounded_by_coefficient_sum(rng):
    p = vn.multipoly(3, {(1, 0, 0): 1.0, (0, 1, 1): -2.0})
    sup = vn.polydisc_grid_sup(p, 16)
    assert sup <= 3.0 + 1e-12
    assert sup >= 2.0  # attained on the grid at aligned phases


def test_polydisc_grid_sup_matches_the_full_grid(rng):
    for index in range(200):
        nvars = 1 + index % 4
        grid = 3 if index // 4 % 2 else [32, 16, 9, 5][nvars - 1]
        exponents = list(itertools.product(range(4), repeat=nvars))
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            k = exponents[int(rng.integers(0, len(exponents)))]
            terms[k] = complex(rng.standard_normal(), rng.standard_normal())
        p = vn.multipoly(nvars, terms)
        assert vn.polydisc_grid_sup(p, grid).hex() == full_grid_sup(p, grid).hex(), p.terms
    for nvars in range(1, 5):  # the axes P does not reach are collapsed
        for p in seeded_polys_without_each_subset(rng, nvars, 3):
            for grid in (3, [32, 16, 9, 5][nvars - 1]):
                assert vn.polydisc_grid_sup(p, grid).hex() == full_grid_sup(p, grid).hex(), p.terms


def test_coefficient_grid_keeps_only_the_axes_p_reaches(rng):
    # broadcast to the full base grid, it is the point-array form bit for bit
    circle = rz.unit_circle(6)
    for p in seeded_polys_without_each_subset(rng, 4, 2):
        reached = [any(k[i] for k in p.terms) for i in range(3)]
        deg_n = max(k[-1] for k in p.terms)
        coeffs = vn._grid_coefficients(p, circle)
        assert coeffs.shape == tuple(6 if r else 1 for r in reached) + (deg_n + 1,), p.terms
        full = np.broadcast_to(coeffs, (6, 6, 6, deg_n + 1)).reshape(-1, deg_n + 1)
        expected = oracle_base_coefficients(p, rz.grid_points(circle, 3))
        assert full.tobytes() == expected.tobytes(), p.terms


def test_polydisc_grid_sup_one_variable():
    assert rz.grid_points(rz.unit_circle(4), 0).shape == (1, 0)
    p = vn.multipoly(1, {(2,): 1.0, (0,): -1.0})
    assert vn.polydisc_grid_sup(p, 8) == pytest.approx(2.0, abs=1e-15)  # at z = +-1
    assert vn.polydisc_grid_sup(p, 8) == full_grid_sup(p, 8)
    assert vn.polydisc_grid_sup(vn.multipoly(1, {}), 8) == 0.0


def test_sups_without_variables_are_an_arity_mismatch(rng):
    p = vn.multipoly(0, {(): 1.0})
    with pytest.raises(ArityMismatch):
        vn.polydisc_grid_sup(p, 8)
    with pytest.raises(ArityMismatch):
        vn.torus_sup(p, vn.precompute_torus(constant_realization(random_unitary(rng, 3)), 8))


@pytest.fixture
def scanned_rows(monkeypatch):
    """The number of base rows ``polydisc_grid_sup`` scans, summed over its
    calls of ``_fiber_max`` (the top row counts again in the screened pass)."""
    count = [0]
    scan = vn._fiber_max

    def counting(coeffs, fibers):
        count[0] += len(coeffs)
        return scan(coeffs, fibers)

    monkeypatch.setattr(vn, "_fiber_max", counting)
    return count


def test_polydisc_grid_screen_drops_most_rows(scanned_rows):
    # the bound |1 + zeta_1 + zeta_2| + 1 reaches the maximum 4 only at (1, 1)
    p = vn.multipoly(3, {(0, 0, 0): 1.0, (1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0})
    assert vn.polydisc_grid_sup(p, 32).hex() == full_grid_sup(p, 32).hex()
    assert scanned_rows[0] == 2  # the top row, then the rows reaching its maximum


_TIED_ROWS = [  # the terms, and the base rows of the axes they reach
    ({(2, 1, 3): 0.3 + 0.7j}, 32**2),  # a monomial: every row has the same bound, up to rounding
    ({(0, 0, 2): 1.0, (0, 0, 1): -2.0}, 1),  # terms only in z_n: the bounds tie exactly, on one row
    ({(1, 3, 0, 2): -1.5j}, 12**2),  # n = 4 without z_3
    ({(1, 3, 1, 2): -1.5j}, 12**3),  # n = 4, more rows than one CHUNK
    ({(1, 0, 0): 1.0, (0, 1, 1): 1j}, 32**2),  # each variable in its own term: the bound 2 everywhere
]


@pytest.mark.parametrize("terms, rows", _TIED_ROWS, ids=[f"terms{i}" for i in range(len(_TIED_ROWS))])
def test_polydisc_grid_screen_keeps_every_tied_row(terms, rows, scanned_rows):
    p = vn.multipoly(len(next(iter(terms))), terms)
    grid = 32 if p.nvars < 4 else 12
    assert vn.polydisc_grid_sup(p, grid).hex() == full_grid_sup(p, grid).hex()
    assert scanned_rows[0] == 1 + rows


@pytest.mark.parametrize("terms, points", [
    ({(1, 2, 0): 1.0, (0, 0, 0): -0.5j}, 1),  # no z_n: every fiber point gives c_0
    ({(1, 2, 0): 1.0, (0, 0, 1): -0.5j}, None),
])
def test_scans_read_one_fiber_point_when_p_has_no_last_variable(terms, points, monkeypatch):
    t, cert = acceptance_triple(3, 3)
    cache = vn.precompute_torus(rz.build_generating_unitary(t, cert), 16)
    widths = []
    scan = vn._fiber_max

    def recording(coeffs, fibers):
        widths.append(fibers.shape[1])
        return scan(coeffs, fibers)

    monkeypatch.setattr(vn, "_fiber_max", recording)
    p = vn.multipoly(3, terms)
    vn.torus_sup(p, cache)
    assert widths == [points or 9]
    widths.clear()
    vn.polydisc_grid_sup(p, 16)
    assert widths and set(widths) == {points or 16}


def test_polydisc_grid_screen_keeps_a_row_whose_bound_meets_the_maximum(scanned_rows):
    # at grid 2, P = 1 + 5e-9 z_1 has the bounds 1 + 5e-9 at z_1 = 1 and
    # (1 - 5e-9)(1 + 1e-8) at z_1 = -1, which rounds to exactly 1 + 5e-9
    p = vn.multipoly(2, {(0, 0): 1.0, (1, 0): 5e-9})
    coeffs = oracle_base_coefficients(p, rz.grid_points(rz.unit_circle(2), 1))[:, 0]
    assert abs(coeffs[1]) * (1.0 + 1e-8) == abs(coeffs[0]) == vn.polydisc_grid_sup(p, 2)
    assert scanned_rows[0] == 3


@pytest.mark.parametrize("nvars, grid", [(1, 32), (4, 16)])  # n = 4: 4,096 rows, 16 CHUNKs
def test_polydisc_grid_sup_of_zero_and_of_random_polynomials(nvars, grid, rng):
    assert vn.polydisc_grid_sup(vn.multipoly(nvars, {}), grid) == 0.0
    for _ in range(5):
        terms = {tuple(rng.integers(0, 4, nvars)): complex(*rng.standard_normal(2))
                 for _ in range(int(rng.integers(1, 7)))}
        p = vn.multipoly(nvars, terms)
        assert vn.polydisc_grid_sup(p, grid).hex() == full_grid_sup(p, grid).hex(), p.terms


def _sup_and_warnings(sup, p, grid):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = sup(p, grid)
    return value.hex(), {(w.category, str(w.message)) for w in caught}


_BIG = 1.7e308


_EXTREME_CASES = [
    ({(1, 0): 1e308, (0, 1): 1e308}, 8),  # inf where the two phases align
    ({(0, 0): 1e308, (1, 0): 1e308, (0, 1): -1e308, (1, 1): -1e308}, 8),  # inf - inf
    ({(1, 0): complex(_BIG, _BIG), (0, 3): 1.0}, 8),  # c_0 overflows in the base coefficients
    # the base coefficients are NaN at the top row, and other rows overflow
    # only in the scan: a screen that stopped there would miss their warnings
    ({(2, 2): complex(-_BIG, _BIG), (1, 2): complex(-_BIG, _BIG), (1, 0): complex(-_BIG, _BIG)}, 8),
    ({(1, 1): complex(_BIG, -_BIG), (1, 0): complex(-_BIG, _BIG), (2, 0): complex(0, _BIG)}, 8),
    # the top row reaches inf and a later row NaN, which the maximum keeps
    ({(0, 0): complex(1e308, 1e308), (1, 0): -_BIG}, 8),
    ({(0, 0, 0): 1e300, (1, 1, 1): 1e300}, 16),  # large and finite: screened
    # subnormal values round by more than the slack: no screen
    ({(0, 2, 2): -1e-323j, (0, 0, 0): 1e-323, (1, 1, 0): -1e-323j,
      (2, 0, 1): complex(-1.5e-323, -1.5e-323)}, 16),
    # no z_n and |Re c| + |Im c| above the largest float: a product by 1 of
    # every circle point must still be formed, as one SIMD lane may overflow
    ({(0,): complex(-6.5e307, 1.5e308)}, 3),
]


def _without_a_variable(cases):
    """Each case with one variable set to 1, except those whose merged
    coefficients overflow, which are no polynomial, or all cancel."""
    for terms, grid in cases:
        for i in range(len(next(iter(terms)))):
            try:
                p = without(terms, {i})
            except ParseError:
                continue
            if p.terms:
                yield p.terms, grid


@pytest.mark.parametrize("terms, grid", _EXTREME_CASES + list(_without_a_variable(_EXTREME_CASES)))
def test_polydisc_grid_sup_at_extreme_scales_matches_the_full_grid(terms, grid):
    p = vn.multipoly(len(next(iter(terms))), terms)
    value, caught = _sup_and_warnings(vn.polydisc_grid_sup, p, grid)
    assert (value, caught) == _sup_and_warnings(full_grid_sup, p, grid)


@pytest.mark.parametrize("terms", [
    {(0, 0, 0): complex(1.2e308, -7.6e307)},  # the constant, on every row and every fiber
    {(0, 0, 0): complex(-6.5e307, 1.5e308)},
    {(0, 0, 0): complex(_BIG, _BIG)},  # |c_0| overflows
    {(0, 0, 0): complex(-6.5e307, 1.5e308), (0, 0, 1): 1.0},
    {(0, 0, 0): 1e300, (2, 0, 0): -1e300},
])
@pytest.mark.parametrize("grid", [1, 9])
def test_torus_sup_at_extreme_scales_matches_the_oracle(terms, grid):
    # e = 9 eigenvalues, one base row or 81: odd lengths, where one SIMD
    # lane of a product by 1 may overflow; the broadcast rows must be laid
    # out as the oracle's, not as a stride-0 view
    t, cert = acceptance_triple(3, 3)
    cache = vn.precompute_torus(rz.build_generating_unitary(t, cert), grid)

    def oracle(p, cache):
        return oracle_fiber_max(oracle_base_coefficients(p, cache.points), cache.eigs)

    p = vn.multipoly(3, terms)
    assert _sup_and_warnings(vn.torus_sup, p, cache) == _sup_and_warnings(oracle, p, cache)


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
    # Phi is block diagonal in the frames at five interior points
    h0, h1 = split.h0_frame, split.h1_frame
    radii = [0.31, -0.22, 0.47, 0.11, -0.38]
    points = [[x * np.exp(2j * np.pi * (j + a) / 7) for a in range(2)] for j, x in enumerate(radii)]
    _, phi, regular = next(transfer_eval_many(r, points))
    assert regular.all()
    assert matcore.max_operator_norm(adj(h0) @ phi @ h1) < 1e-10
    assert matcore.max_operator_norm(adj(h1) @ phi @ h0) < 1e-10
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
    for rows, phi, regular in transfer_eval_many(r, points):
        assert rows.start == covered and regular.all()
        for z, value in zip(points[rows], phi):
            assert matcore.operator_norm(value - one_point_phi(r, z)) < 1e-14
            assert matcore.operator_norm(value - rz.transfer_eval(r, tuple(z))) < 1e-14
        covered += len(phi)
    assert covered == count


# the benchmark's W1, the n = 4 tensor-Jordan tuple and the non-normal triple
WORKLOAD_INPUTS = {"w1": w1_product_triple, "w2": w2_tensor_jordan, "w3": w3_nonnormal}


def disc_axis(grid_per_axis, radius=0.95):
    """The interior axis of ``vn.variety_sample``: the square grid's points
    in the closed disc of this radius."""
    coords = np.linspace(-radius, radius, grid_per_axis)
    disc = (coords[:, None] + 1j * coords[None, :]).ravel()
    return disc[np.hypot(disc.real, disc.imag) <= radius]


def assert_grid_matches_direct(r, axis, stride):
    """``rz.transfer_eval_grid(r, axis)`` against ``transfer_eval_many``
    on ``grid_points(axis, m)``: rows in grid order, each point once, the
    same regular mask, Phi within 1e-14 everywhere and, at every
    ``stride``-th regular point, within 1e-14 of the dense one-point
    inverse."""
    points = rz.grid_points(axis, len(r.partition))
    direct_phi = np.empty((len(points), r.dim_e, r.dim_e), dtype=complex)
    direct_regular = np.empty(len(points), dtype=bool)
    for rows, phi, regular in transfer_eval_many(r, points):
        direct_phi[rows], direct_regular[rows] = phi, regular
    covered = 0
    for rows, phi, regular in rz.transfer_eval_grid(r, axis):
        assert rows.start == covered and len(phi) == len(regular) == rows.stop - rows.start
        assert len(phi) <= max(rz.CHUNK, len(axis))
        assert np.array_equal(regular, direct_regular[rows])
        assert np.max(matcore.operator_norm(phi - direct_phi[rows]), initial=0.0) < 1e-14
        for index in range(-rows.start % stride, len(phi), stride):
            z = points[rows.start + index]
            if regular[index]:
                assert matcore.operator_norm(phi[index] - one_point_phi(r, z)) < 1e-14
        covered = rows.stop
    assert covered == len(points)
    return direct_regular


def one_variable(r):
    """r with one variable driving its whole state space (m = 1)."""
    return rz.TransferRealization(a=r.a, b=r.b, c=r.c, d=r.d, partition=(r.dim_f,))


@pytest.mark.parametrize(
    "which, axis, stride",
    [
        ("w1", rz.unit_circle(32), 7),
        ("w2", rz.unit_circle(32), 61),
        ("w3", rz.unit_circle(32), 7),  # partition (9, 0): the last block is empty
        ("w1", disc_axis(9), 7),
        ("w2", disc_axis(5), 7),
        ("mixed", rz.unit_circle(rz.CHUNK + 44), 97),  # (1, 0); fibers longer than CHUNK
        ("m1", rz.unit_circle(rz.CHUNK + 8), 1),
        ("m1", disc_axis(9), 1),
    ],
)
def test_transfer_eval_grid_matches_direct_path(which, axis, stride, triple22, rng):
    if which == "mixed":
        r = mixed_block_realization(rng)
    elif which == "m1":
        r = one_variable(rz.build_generating_unitary(*triple22))
    else:
        r = rz.build_generating_unitary(*WORKLOAD_INPUTS[which]())
    assert assert_grid_matches_direct(r, axis, stride).all()


def with_reducing_unimodular_coordinate(r):
    """r with a 1 direct-summed into D as the first coordinate of block 1:
    Phi is unchanged, and I - D* E(z) loses rank exactly where z_1 = 1."""
    e, f = r.dim_e, r.dim_f
    d = np.zeros((f + 1, f + 1), dtype=complex)
    d[0, 0], d[1:, 1:] = 1.0, r.d
    return rz.TransferRealization(
        a=r.a,
        b=np.hstack([np.zeros((e, 1)), r.b]),
        c=np.vstack([np.zeros((1, e)), r.c]),
        d=d,
        partition=(r.partition[0] + 1,) + r.partition[1:],
    )


@pytest.mark.parametrize("which, grid", [("triple22", 32), ("w2", 8)])
def test_grid_fallback_takes_the_direct_verdict(which, grid, triple22):
    # every torus point over the base z_1 = 1 has an exact zero pivot in
    # M_RR and in the full system: the grid path must hand those points to
    # _transfer_solve and report them, with Phi = A* there, as the direct path does
    base = rz.build_generating_unitary(*(triple22 if which == "triple22" else w2_tensor_jordan()))
    r = with_reducing_unimodular_coordinate(base)
    assert rz.unitarity_residual(r) < 1e-12
    m = len(r.partition)
    regular = assert_grid_matches_direct(r, rz.unit_circle(grid), 1 if m == 2 else 17)
    on_base = rz.grid_points(rz.unit_circle(grid), m)[:, 0] == 1.0
    assert np.array_equal(regular, ~on_base)
    inner = rz.inner_check(r, grid)
    assert (inner.singular_points, inner.grid_points) == (grid ** (m - 1), grid**m)
    assert abs(inner.max_deviation - rz.inner_check(base, grid).max_deviation) < 1e-14
    cache = vn.precompute_torus(r, grid)
    assert cache.singular_points == grid ** (m - 1)
    assert len(cache.points) == grid**m - grid ** (m - 1) and np.all(cache.points[:, 0] != 1.0)


def non_contractive_singular_base(d11=1.0):
    """D* = [[d11, 1], [1, 0]] is not a contraction: for d11 = 1,
    M_RR = 1 - z_1 vanishes at z_1 = 1, while the full system there, of
    determinant -z_2, is regular."""
    return rz.TransferRealization(
        a=np.array([[0.5]], dtype=complex),
        b=np.array([[1.0, 0.5]], dtype=complex),
        c=np.array([[1.0], [0.25]], dtype=complex),
        d=np.array([[d11, 1.0], [1.0, 0.0]], dtype=complex),
        partition=(1, 1),
    )


def test_grid_fallback_solves_regular_points_over_a_singular_base():
    r = non_contractive_singular_base()
    assert assert_grid_matches_direct(r, rz.unit_circle(8), 1).all()
    assert rz.inner_check(r, 8).singular_points == 0


def grid_base(r, zr):
    """The base step of ``transfer_eval_grid`` at the E_R diagonals ``zr``,
    on the colligation that it forms."""
    return rz._grid_base(rz._colligation(r, r.partition[-1]), zr, r.dim_e)


def test_grid_fallback_on_failed_bounds_alone(monkeypatch):
    # D*_11 = 1 + 1e-9: M_RR = 1 - D*_11 z_1 meets no zero pivot, but over
    # z_1 = 1 it is -1e-9, so ||Y0|| is about 1e9 > 1/tol and the bounds fail
    # on that whole fiber; the full system, of determinant about -z_2, is
    # regular there, and the direct solve says so
    r = non_contractive_singular_base(1.0 + 1e-9)
    axis = rz.unit_circle(8)
    solve, fallback = rz._transfer_solve, []

    def recording(r, zeta):
        fallback.append(zeta)
        return solve(r, zeta)

    base_solved, _, norms = grid_base(r, axis[:, None])
    assert base_solved.all() and norms[0, 0] > 1.0 / rz.RESOLVENT_TOL > norms[0, 1:].max()
    with monkeypatch.context() as patch:
        patch.setattr(rz, "_transfer_solve", recording)
        chunks = list(rz.transfer_eval_grid(r, axis))
    zeta = np.concatenate(fallback)
    assert len(zeta) == 8 and np.all(zeta[:, 0] == 1.0)
    assert all(regular.all() for _, _, regular in chunks)
    assert assert_grid_matches_direct(r, axis, 1).all()


def grid_at_chunk(r, axis, chunk):
    """``rz.transfer_eval_grid(r, axis, chunk)`` as one Phi stack and one
    mask, its chunks checked to cover the grid rows in order, each at most
    ``chunk`` points."""
    covered, phis, masks = 0, [], []
    for rows, phi, regular in rz.transfer_eval_grid(r, axis, chunk):
        assert rows.start == covered and len(phi) == len(regular) == rows.stop - rows.start <= chunk
        covered = rows.stop
        phis.append(phi)
        masks.append(regular)
    assert covered == len(axis) ** len(r.partition)
    return np.concatenate(phis), np.concatenate(masks)


@pytest.mark.parametrize(
    "which, grid",
    [("w1", 32), ("w2", 32), ("w3", 32), ("non_contractive", 32), ("m1", rz.CHUNK + 44)],
)
def test_chunk_size_moves_no_bit(which, grid, triple22, monkeypatch):
    # the chunk map's CHUNK, inner_check's INNER_CHUNK and an odd size give
    # the same Phi bits, masks and inner reports: with whole fibers per
    # chunk, with singular bases re-solved by _transfer_solve
    # (non_contractive) and with one fiber split over several chunks (m1)
    if which == "m1":
        r = one_variable(rz.build_generating_unitary(*triple22))
    elif which == "non_contractive":
        r = non_contractive_singular_base()
    else:
        r = rz.build_generating_unitary(*WORKLOAD_INPUTS[which]())
    axis = rz.unit_circle(grid)
    runs = []
    for chunk in (rz.CHUNK, rz.INNER_CHUNK, 37):
        phi, regular = grid_at_chunk(r, axis, chunk)
        monkeypatch.setattr(rz, "INNER_CHUNK", chunk)
        runs.append((phi.tobytes(), regular, rz.inner_check(r, grid)))
    assert runs[0][1].all() and runs[0][2].grid_points == len(runs[0][1])
    for phi_bytes, regular, inner in runs[1:]:
        assert phi_bytes == runs[0][0]
        assert np.array_equal(regular, runs[0][1]) and inner == runs[0][2]


def assembled_against_bounds(r, axis, monkeypatch):
    """At every point of ``grid_points(axis, m)``: the grid path's bounds on
    ||Y||_F and on the full residual, and the values they bound, from
    Y = (Y0 + lambda G w, w) assembled out of its base and fiber solves, as
    ``matcore.solve_stack`` returned them, and the residual
    (I - D* E) Y - B* taken explicitly, both in the Frobenius norm of the
    regular-point rule."""
    e, p = r.dim_e, r.partition[-1]
    bases = rz._block_diagonals(r.partition[:-1], rz.grid_points(axis, len(r.partition) - 1))
    solve, solutions = matcore.solve_stack, []

    def recording(m, b):
        x, solved = solve(m, b)
        solutions.append(x)
        return x, solved

    monkeypatch.setattr(matcore, "solve_stack", recording)
    bounds, values = [], []
    for zr in np.array_split(bases, -(-len(bases) // 32)):
        _, base, norms = grid_base(r, zr)
        _, _, y_bound, res_bound = rz._fiber_eval(base, e, norms, axis)
        h, w = solutions[-2:]
        y = np.concatenate(
            [h[:, None, :, :e] + axis[:, None, None] * (h[:, None, :, e:] @ w), w], axis=-2
        )
        zeta = np.empty(y.shape[:2] + (r.dim_f,), dtype=complex)  # the diagonals of E
        zeta[..., : r.dim_f - p], zeta[..., r.dim_f - p :] = zr[:, None], axis[:, None]
        resid = y - (adj(r.d) * zeta[..., None, :]) @ y - adj(r.b)
        bounds.append(np.stack([y_bound, res_bound]).reshape(2, -1))
        values.append(np.linalg.norm(np.stack([y, resid]), axis=(-2, -1)).reshape(2, -1))
    return np.concatenate(bounds, axis=1), np.concatenate(values, axis=1)


def inexact_solves(monkeypatch, which, e):
    """Make one of the grid path's solves inexact by 1e-7 complex noise: the
    Y0 or the G columns of the base solve, or the whole fiber solve."""
    exact, noise = matcore.solve_stack, np.random.default_rng(7)

    def solve(m, b):
        x, solved = exact(m, b)
        base = m.ndim == 3  # the base solve stacks bases, the fiber solve (base, fiber)
        columns = {"y0": slice(None, e), "g": slice(e, None)}.get(which, slice(None))
        if base == (which != "fiber"):
            x = x.copy()
            x[..., columns] += 1e-7 * random_complex(noise, *x[..., columns].shape)
        return x, solved

    monkeypatch.setattr(matcore, "solve_stack", solve)


@pytest.mark.parametrize("inexact", [None, "y0", "g", "fiber"])
@pytest.mark.parametrize(
    "which, axis",
    [
        ("w1", rz.unit_circle(32)),
        ("w2", rz.unit_circle(32)),
        ("w3", rz.unit_circle(32)),
        ("w1", disc_axis(9)),
        ("w2", disc_axis(5)),
        ("w3", disc_axis(9)),
        ("m1", rz.unit_circle(64)),
        ("reducing", rz.unit_circle(32)),
        ("reducing_w2", rz.unit_circle(8)),
        ("non_contractive", rz.unit_circle(8)),
    ],
)
def test_grid_bounds_hold_at_every_point(which, axis, inexact, triple22, monkeypatch):
    # the grid path's regular-point rule rests on these bounds.  They hold
    # for any Y0, G and w, so solves made inexact far above rounding give
    # every term of the residual bound a part to play; the slack covers the
    # rounding of both sides, which exact solves leave at the same level
    if which == "m1":
        r = one_variable(rz.build_generating_unitary(*triple22))
    elif which == "reducing":
        r = with_reducing_unimodular_coordinate(rz.build_generating_unitary(*triple22))
    elif which == "reducing_w2":
        r = with_reducing_unimodular_coordinate(rz.build_generating_unitary(*w2_tensor_jordan()))
    elif which == "non_contractive":
        r = non_contractive_singular_base()
    else:
        r = rz.build_generating_unitary(*WORKLOAD_INPUTS[which]())
    if inexact is not None:
        inexact_solves(monkeypatch, inexact, r.dim_e)
    bounds, values = assembled_against_bounds(r, axis, monkeypatch)
    assert bounds.shape == values.shape == (2, len(axis) ** len(r.partition))
    assert np.all(np.isfinite(values))
    slack = 1e-14 * (1.0 + values[0])
    assert np.all(bounds >= values - slack)


@pytest.mark.parametrize(
    "which, axis",
    [
        ("w1", rz.unit_circle(32)),  # p_m = 3
        ("w2", rz.unit_circle(32)),  # m = 3, p_m = 2
        ("w3", rz.unit_circle(32)),  # p_m = 0
        ("m1", rz.unit_circle(rz.CHUNK + 44)),  # one fiber split over two chunks
    ],
)
def test_fiber_norms_match_point_by_point(which, axis, triple22, monkeypatch):
    # ||w|| and ||(I - lambda delta) w - gamma|| behind the grid path's bounds
    # against np.linalg.norm at each point of one chunk of bases.  The fiber
    # solve is moved by O(1) noise, so the residual stands far above
    # rounding and a residual read from the wrong fiber or row would show.
    # With the base norms set to 0, the bounds are those two norms exactly.
    if which == "m1":
        r = one_variable(rz.build_generating_unitary(*triple22))
    else:
        r = rz.build_generating_unitary(*WORKLOAD_INPUTS[which]())
    e, p = r.dim_e, r.partition[-1]
    # C order, so that transfer_eval_grid's (k, e, e) reshape is a view
    assert all(phi.flags.c_contiguous for _, phi, _ in rz.transfer_eval_grid(r, axis))
    exact, noise, fibers = matcore.solve_stack, np.random.default_rng(11), []

    def solve(m, b):
        x, solved = exact(m, b)
        if m.ndim == 4:  # the fiber solve, indexed (base, fiber, row, column)
            x = x + random_complex(noise, *x.shape)
            fibers.append(x)
        return x, solved

    monkeypatch.setattr(matcore, "solve_stack", solve)
    bases = rz._block_diagonals(r.partition[:-1], rz.grid_points(axis, len(r.partition) - 1))
    _, base, norms = grid_base(r, bases[-max(1, rz.CHUNK // len(axis)) :])
    gamma, delta = base[:, e:, :e], base[:, e:, e:]
    for l0 in range(0, len(axis), rz.CHUNK):
        lam = axis[l0 : l0 + rz.CHUNK]
        phi, _, w_norm, fiber_norm = rz._fiber_eval(base, e, np.zeros_like(norms), lam)
        assert phi.flags.c_contiguous and w_norm.shape == fiber_norm.shape == (len(base), len(lam))
        for b, l in np.ndindex(w_norm.shape):
            w = fibers[-1][b, l]
            residual = (np.eye(p) - lam[l] * delta[b]) @ w - gamma[b]
            assert w_norm[b, l] == pytest.approx(np.linalg.norm(w), rel=1e-14, abs=0)
            assert fiber_norm[b, l] == pytest.approx(np.linalg.norm(residual), rel=1e-14, abs=0)
    assert len(fibers) == -(-len(axis) // rz.CHUNK)


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
    assert np.allclose(cache.eigs, 1.0)  # Phi is 1x1, so its eigenvalue is Phi


@pytest.mark.parametrize("which", ["w1", "w2", "w3"])
def test_no_singular_torus_points_on_the_workloads(which):
    r = rz.build_generating_unitary(*WORKLOAD_INPUTS[which]())
    inner = rz.inner_check(r, 32)
    assert inner.singular_points == 0 and inner.grid_points == 32 ** len(r.partition)
    assert vn.precompute_torus(r, 32).singular_points == 0


# ---------------------------------------------------------------------------
# variety sampling


def variety_oracle(r, grid_per_axis, radius):
    """The sample point by point: itertools.product over the disc points,
    then Phi_1, its eigenvalues and the determinants at each base point.

    Phi_1 is the value the sample is built from, ``rz.transfer_eval_grid``
    over the disc, at the point's place in grid order; at every point it is
    checked within 1e-14 of ``rz.transfer_eval``."""
    split = vn.split_transfer(r)
    coords = np.linspace(-radius, radius, grid_per_axis)
    disc = [complex(x, y) for x in coords for y in coords if abs(complex(x, y)) <= radius]
    w = split.unitary_block
    v0 = [(lam, "V0", np.abs(matcore._det(lam * np.eye(len(w)) - w))) for lam in matcore._eigvals(w)]
    grid_phi = []
    if split.cnu_part is not None:
        for _, stack, _ in rz.transfer_eval_grid(split.cnu_part, np.array(disc, dtype=complex)):
            grid_phi.extend(stack)
    rows = []
    for index, base in enumerate(itertools.product(disc, repeat=len(r.partition))):
        fibers = []
        if split.cnu_part is not None:
            phi = grid_phi[index]
            assert matcore.operator_norm(phi - rz.transfer_eval(split.cnu_part, base)) < 1e-14
            eye = np.eye(len(phi))
            fibers = [(lam, "V1", np.abs(matcore._det(lam * eye - phi))) for lam in matcore._eigvals(phi)]
        rows += [(base, lam, comp, res, comp == "V1" and abs(lam) < 1.0)
                 for lam, comp, res in fibers + v0]
    return rows


@pytest.mark.parametrize(
    "which, grid, count",
    [("triple22", 5, 13**2 * 4), ("m3", 4, 4**3 * 8), ("mixed", 5, 13**2 * 2), ("triple22", 2, 0)],
)
def test_variety_sample_matches_point_oracle(which, grid, count, triple22):
    if which == "m3":
        r = rz.build_generating_unitary(*w2_tensor_jordan())
    elif which == "mixed":
        # np.abs puts this V0 fiber at |lambda| < 1, Python's abs at exactly 1;
        # on the circle either way, it is not interior
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
    det = matcore._det  # the det kernel the chunk map's workers call
    stacks = []

    def recording_det(a):
        if np.shape(a)[-1] == r.dim_e:  # V1 residuals of one fiber index (h0 = 0 here)
            stacks.append(a.copy())
        return det(a)

    # the stack of fiber 1 over the first chunk, from a serial run
    monkeypatch.setattr(matcore, "_WORKERS", 1)
    monkeypatch.setattr(matcore, "_det", recording_det)
    vn.variety_sample(r, grid_per_axis=5, radius=0.95)
    first = stacks[1]

    def nan_det(a):
        d = det(a)
        if np.array_equal(a, first):
            d[0] = np.nan  # fiber 1 of the first base point
        return d

    for workers in (1, 2):
        monkeypatch.setattr(matcore, "_WORKERS", workers)
        monkeypatch.setattr(matcore, "_pool", None)
        monkeypatch.setattr(matcore, "_det", nan_det)
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


def test_v0_fibers_are_never_interior():
    # the fibers of (0, 0, Q) are the eigenvalues of the unitary W*, on the
    # unit circle; one of them rounds to just inside it and is still not interior
    r = rz.build_generating_unitary(*unitary_last_triple())
    points = vn.variety_sample(r, grid_per_axis=7).points
    assert len(points) and np.all(points["component"] == "V0")
    assert np.any(np.hypot(points["fiber"].real, points["fiber"].imag) < 1.0)
    assert np.allclose(np.abs(points["fiber"]), 1.0, rtol=0.0, atol=1e-12)
    assert not np.any(points["interior"])


def test_variety_v0_residual_over_its_bound_fails_where_a_base_point_is_regular(monkeypatch):
    # V0 takes V1's bound, root_tol * (1 + ||W||)^h0 = 8e-7 here, and its
    # verdict counts only when some base point emits its fibers
    r = rz.build_generating_unitary(*unitary_last_triple())
    det = matcore._det
    monkeypatch.setattr(matcore, "_det", lambda m: det(m) + 1e-3)
    sample = vn.variety_sample(r, grid_per_axis=3, radius=0.9)
    assert sample.h0_dim == 3 and len(sample.points) == 3 * 5**2
    assert not sample.residual_ok and sample.max_residual > 1e-4
    empty = vn.variety_sample(r, grid_per_axis=2)  # no grid point in the disc
    assert len(empty.points) == 0 and empty.residual_ok


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
    sups = [vn.torus_sup(p, vn.precompute_torus(r, grid)) for grid in (4, 8, 16, 32)]
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


def test_product_triple_has_no_unitary_part(triple22):
    # T_3 is pure, so the product component of the variety is empty
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    assert vn.split_transfer(r).h0_dim == 0


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


def acceptance_triple(d1, d2):
    """The acceptance product triple with r = 0.9 and (j, k) = (2, 3): e = d1 d2."""
    return generators.product_triple(generators.jordan_pair(d1, d2, 0.9, 0.9), 2, 3)


def assert_reports_match_the_oracle(p, t, grid, r, cache):
    split = vn.split_transfer(r)
    report = vn.vn_check(p, t, None, grid=grid, realization=r, cache=cache, split=split)
    expected = oracle_vn_check(p, t, None, grid=grid, realization=r, cache=cache, split=split)
    def fields(rep):
        floats = [getattr(rep, f).hex() for f in ("lhs", "rhs", "margin", "polydisc_sup")]
        return floats + [rep.grid, rep.singular_points, rep.h0_dim]

    assert fields(report) == fields(expected), p.terms


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (3, 3)])
def test_vn_check_matches_two_coefficient_passes_on_the_acceptance_fixtures(d1, d2, rng):
    t, cert = acceptance_triple(d1, d2)
    r = rz.build_generating_unitary(t, cert)
    cache = vn.precompute_torus(r, 32)
    assert cache.singular_points == 0 and cache.regular.all()
    polys = [seeded_poly(rng, 3) for _ in range(20)]
    for p in polys + list(seeded_polys_without_each_subset(rng, 3, 2)):
        assert_reports_match_the_oracle(p, t, 32, r, cache)


def test_vn_check_matches_two_coefficient_passes_on_w2(rng):
    # n = 4 at grid 12: 1,728 base rows for a P in every variable, more than
    # one CHUNK, and 144 without z_3
    t, cert = w2_tensor_jordan()
    r = rz.build_generating_unitary(t, cert)
    cache = vn.precompute_torus(r, 12)
    tied = [vn.multipoly(4, {(1, 3, 0, 2): -1.5j}), vn.multipoly(4, {(1, 3, 1, 2): -1.5j})]
    polys = [seeded_poly(rng, 4) for _ in range(4)] + tied
    for p in polys + list(seeded_polys_without_each_subset(rng, 4, 1)):
        assert_reports_match_the_oracle(p, t, 12, r, cache)


@pytest.mark.parametrize("which, grid", [("fx22", 32), ("fx32", 32), ("fx33", 32), ("w2", 8)])
def test_torus_sup_agrees_with_the_operator_norm(which, grid, rng):
    # the fiber maximum is at most the norm, and equal to it where Phi is
    # unitary, up to the rounding of the eigenvalues and of the SVD
    if which == "w2":
        t, cert = w2_tensor_jordan()
    else:
        t, cert = acceptance_triple(int(which[2]), int(which[3]))
    r = rz.build_generating_unitary(t, cert)
    cache = vn.precompute_torus(r, grid)
    polys = [seeded_poly(rng, t.n) for _ in range(4)]
    for p in polys + list(seeded_polys_without_each_subset(rng, t.n, 1)):
        value, oracle = vn.torus_sup(p, cache), oracle_operator_torus_sup(p, r, grid)
        assert value <= oracle * (1 + 1e-13), p.terms
        assert value >= oracle * (1 - 1e-13), p.terms


def test_vn_check_matches_two_coefficient_passes_over_a_singular_base(triple22, rng):
    # the torus scan reads only the rows the mask marks regular
    t, cert = triple22
    r = with_reducing_unimodular_coordinate(rz.build_generating_unitary(t, cert))
    cache = vn.precompute_torus(r, 16)
    assert cache.singular_points == 16 and np.count_nonzero(~cache.regular) == 16
    polys = [seeded_poly(rng, 3) for _ in range(10)]
    for p in polys + list(seeded_polys_without_each_subset(rng, 3, 2)):
        assert_reports_match_the_oracle(p, t, 16, r, cache)


@pytest.mark.parametrize("grid", [8, rz.CHUNK + 8])
def test_vn_check_matches_two_coefficient_passes_at_an_exactly_singular_point(grid, rng):
    # Phi is constantly 1 and singular only at z = 1, the first grid row
    one, zero = np.ones((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex)
    r = rz.TransferRealization(a=one, b=zero, c=zero, d=one, partition=(1,))
    cache = vn.precompute_torus(r, grid)
    assert np.flatnonzero(~cache.regular).tolist() == [0]
    t = tuples.make_tuple([0.5 * one, 0.25j * one])
    polys = [seeded_poly(rng, 2) for _ in range(10)]
    for p in polys + list(seeded_polys_without_each_subset(rng, 2, 3)):
        assert_reports_match_the_oracle(p, t, grid, r, cache)


def test_vn_check_forms_the_coefficients_once_without_a_point_array(triple22, monkeypatch):
    t, cert = triple22
    r = rz.build_generating_unitary(t, cert)
    cache, split = vn.precompute_torus(r, 16), vn.split_transfer(r)
    calls = []
    coefficients = vn._grid_coefficients

    def counting(p, circle):
        calls.append(len(circle))
        return coefficients(p, circle)

    def no_points(axis, m):
        raise AssertionError("vn_check built a point array")

    monkeypatch.setattr(vn, "_grid_coefficients", counting)
    monkeypatch.setattr(rz, "grid_points", no_points)
    p = vn.multipoly(3, {(1, 0, 2): 1.0, (0, 1, 0): -0.5j})
    vn.vn_check(p, t, cert, grid=16, realization=r, cache=cache, split=split)
    assert calls == [16]

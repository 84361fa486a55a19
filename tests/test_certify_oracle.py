"""The screened certification path against the unscreened oracles in
conftest: the same certificate bits, the same first error, the same decision
next to every screened threshold, and the LAPACK calls a warm certify makes."""

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from polydil import cli, generators, matcore, realization as rz, tuples
from polydil.errors import (
    GNotPsd,
    NotCommuting,
    NotContractive,
    NotHermitian,
    NotPure,
    NotSzego,
    PolydilError,
    ProductNotPsd,
    SumMismatch,
)
from polydil.matcore import adj

from conftest import (
    oracle_herm_eig,
    oracle_is_pure,
    oracle_last_defect_certificate,
    oracle_make_tuple,
    oracle_range_onb,
    oracle_verify_certificate,
    random_unitary,
    stacked_cnu_h0,
    w2_tensor_jordan,
    w3_nonnormal,
)

FIELDS = [field.name for field in dataclasses.fields(tuples.DilationCertificate)]


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of its PolydilError."""
    try:
        return fn(*args)
    except PolydilError as exc:
        return type(exc), str(exc)


def assert_same(new, oracle):
    """Both bit-identical certificates (or tuples), or both the same error."""
    if isinstance(oracle, tuple):
        assert new == oracle
    elif isinstance(oracle, tuples.OperatorTuple):
        assert _bits(new.ops) == _bits(oracle.ops) and new.dim == oracle.dim
    else:
        for name in FIELDS:
            assert _bits(getattr(new, name)) == _bits(getattr(oracle, name)), name


def _fixture(d1, d2, j=2, k=3, r=0.9):
    return generators.product_triple(generators.jordan_pair(d1, d2, r, r), j, k)


# ---------------------------------------------------------------------------
# certificates bit for bit


CERTIFIED = {
    "W1": lambda: _fixture(3, 3),
    "W2": w2_tensor_jordan,
    "W3": w3_nonnormal,
    "e4": lambda: _fixture(2, 2),
    "e6": lambda: _fixture(3, 2),
}


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_certificates_match_the_oracle_bit_for_bit(name):
    t, cert = CERTIFIED[name]()
    assert_same(tuples.make_tuple(t.ops), oracle_make_tuple(t.ops))
    assert_same(tuples.verify_certificate(t, cert.g), oracle_verify_certificate(t, cert.g))
    assert_same(
        _outcome(tuples.last_defect_certificate, t), _outcome(oracle_last_defect_certificate, t)
    )


@pytest.mark.parametrize("seed", range(20))
def test_random_candidates_match_the_oracle(seed):
    t = generators.random_candidate(seed, 3 + seed % 4, 3 + seed % 2, 0.1 + 0.02 * seed)
    assert_same(tuples.make_tuple(t.ops), oracle_make_tuple(t.ops))
    assert tuples.is_pure(t) == oracle_is_pure(t)
    assert_same(
        _outcome(tuples.last_defect_certificate, t), _outcome(oracle_last_defect_certificate, t)
    )


# ---------------------------------------------------------------------------
# two faults: the first one is reported, with the oracle's message


def _split_triple():
    """The (2,2) product triple at r = 0.9, (j, k) = (1, 1), and a psd split
    G_1 + G_2 = I - T_3 T_3* whose alternating products are both not psd."""
    t, cert = _fixture(2, 2, 1, 1)
    target = np.eye(4) - t.ops[2] @ adj(t.ops[2])
    g1 = target * np.diag([1.0, 0.0, 1.0, 0.0])
    return t, cert, g1, target - g1


def _two_faults(case):
    """(operators, G list) with two faults, the first being ``case``."""
    z3, e3, eye2 = np.zeros((3, 3)), np.eye(3), np.eye(2)
    if case is NotContractive:
        return [0.5 * eye2, 2.0 * eye2, 3.0 * eye2], None
    if case is NotCommuting:
        rng = np.random.default_rng(5)
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        return [0.5 * m / matcore.operator_norm(m) for m in ops], None
    if case is NotSzego:  # and not pure
        t = np.zeros((3, 3))
        t[0, 0], t[2, 1] = 1.0, 1.0
        return [t, t, z3], [e3, z3]
    if case is NotPure:  # and G_1 not psd
        return [np.diag([1.0, 0.0, 0.0]), z3, z3], [-e3, -e3]
    t, cert, g1, g2 = _split_triple()
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    g = {
        GNotPsd: [-0.1 * np.eye(4), -0.1 * np.eye(4)],
        SumMismatch: [2.0 * g1, g2],  # and both products not psd
        ProductNotPsd: [g1, g2],
        NotHermitian: [g1 + 1e-3 * skew, g2 + 1e-3 * skew],
        # within 1e-8 of Hermitian, so only psd_sqrt's 1e-10 test fails, twice
        "sqrt": [cert.g[0] + 1e-9 * skew, cert.g[1] - 1e-9 * skew],
    }[case]
    return list(t.ops), g


@pytest.mark.parametrize(
    "case",
    [NotContractive, NotCommuting, NotSzego, NotPure, GNotPsd, SumMismatch, ProductNotPsd,
     NotHermitian, "sqrt"],
    ids=lambda c: c if isinstance(c, str) else c.__name__,
)
def test_two_faults_raise_the_oracles_first_error(case):
    ops, g = _two_faults(case)

    def certify(make, verify):
        t = make(ops)
        return verify(t, g)

    new = _outcome(certify, tuples.make_tuple, tuples.verify_certificate)
    oracle = _outcome(certify, oracle_make_tuple, oracle_verify_certificate)
    assert isinstance(new, tuple) and new[0] is (NotHermitian if case == "sqrt" else case)
    assert new == oracle


# ---------------------------------------------------------------------------
# screened decisions next to their thresholds

NEAR = (1.0 - 1e-6, 1.0 + 1e-6)


def _herm_cases():
    """(matrix, tol) pairs whose skew part sits next to the NotHermitian
    threshold, or next to the Frobenius screen's tol/2, on either side."""
    tol = matcore.EIG_TOL
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # ||N - N*|| = 1, F = sqrt 2
    for base, f in itertools.product((np.diag([0.5, -0.25]), np.diag([3.0, 1.0])), NEAR):
        scale = matcore.operator_norm(base)
        yield base + tol * max(1.0, scale) * f * n, tol  # at the threshold
        yield base + 0.5 * tol / np.sqrt(2.0) * f * n, tol  # at the screen


def test_hermitian_test_matches_the_oracle_at_its_thresholds():
    raised = []
    for a, tol in _herm_cases():
        new, oracle = _outcome(matcore.herm_eig, a, tol), _outcome(oracle_herm_eig, a, tol)
        raised.append(isinstance(oracle, tuple) and oracle[0] is NotHermitian)
        if raised[-1]:
            assert new == oracle
        else:
            assert _bits(tuple(new)) == _bits(tuple(oracle))
    assert any(raised) and not all(raised)


def test_psd_sqrt_keeps_its_hermitian_test_when_handed_an_eigendecomposition():
    hermitian = np.diag([2.0, 0.5]) + 0j
    eig = matcore.herm_eig(hermitian, 1e-8)
    assert _bits(matcore.psd_sqrt(hermitian, 1e-9, eig)) == _bits(matcore.psd_sqrt(hermitian, 1e-9))
    # Hermitian within 1e-8, not within EIG_TOL = 1e-10
    near = hermitian + 1e-9 * np.array([[0.0, 1.0], [0.0, 0.0]])
    eig = matcore.herm_eig(near, 1e-8)
    refused = _outcome(matcore.psd_sqrt, near, 1e-9, eig)
    assert refused[0] is NotHermitian and refused == _outcome(matcore.psd_sqrt, near, 1e-9)


def test_commutator_test_matches_the_oracle_at_its_thresholds():
    a = np.diag([0.5, -0.5]).astype(complex)
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # ||[A, eps N]|| = eps
    raised = []
    for level, f in itertools.product((tuples.COMMUTE_TOL, 0.5 * tuples.COMMUTE_TOL), NEAR):
        ops = [a, level * f * n, 0.25 * np.eye(2)]
        new, oracle = _outcome(tuples.make_tuple, ops), _outcome(oracle_make_tuple, ops)
        assert_same(new, oracle)
        raised.append(isinstance(oracle, tuple))
    assert raised == [False, True, False, False]


def test_contraction_test_matches_the_oracle_at_its_threshold(rng):
    u = random_unitary(rng, 3)
    raised = []
    for f in NEAR:
        ops = [(1.0 + tuples.CONTRACT_TOL * f) * u, 0.5 * u]
        new, oracle = _outcome(tuples.make_tuple, ops), _outcome(oracle_make_tuple, ops)
        assert_same(new, oracle)
        raised.append(isinstance(oracle, tuple))
    assert raised == [False, True]


def test_purity_matches_the_oracle_at_its_threshold():
    s = np.array([[1.0, 1.0], [0.0, 1.0]])
    verdicts = []
    for f in NEAR:
        r = 1.0 - tuples.PURE_TOL * f
        # every iterate is r; the norm is above the limit and the k = 1
        # iterate is r, as A^2 = r^2 I; the k = 2 iterate is r, as A^4 = r^4 I
        quarter_turn = s @ np.diag([r, 1j * r]) @ np.linalg.inv(s)
        for a in (r * np.eye(2), [[r, 1e-3], [0.0, -r]], quarter_turn):
            t = tuples.OperatorTuple(ops=(np.array(a, dtype=complex), 0.1 * np.eye(2)), dim=2)
            verdicts.append(tuples.is_pure(t))
            assert verdicts[-1] == oracle_is_pure(t)
    assert verdicts == [False] * 3 + [True] * 3


def test_stacked_decompositions_give_each_matrix_its_own_bits(rng):
    """range_onbs and herm_eigs on a stack against each matrix alone and
    its oracle, on matrices with different scales and near-threshold ranks."""
    stack = []
    for scale in (1e3, 1.0, 1e-3):
        thr = 1e-10 * max(1.0, scale)
        s = np.array([scale, 0.5 * scale, 0.5 * thr, 2.0 * thr])
        stack.append(random_unitary(rng, 4) @ np.diag(s) @ random_unitary(rng, 4))
    stack = np.stack(stack)
    frames = matcore.range_onbs(stack, 1e-10)
    assert [q.shape[1] for q in frames] == [3, 3, 3]
    for a, q in zip(stack, frames):
        alone = matcore.range_onbs(a[None], 1e-10)[0]
        assert _bits(q) == _bits(oracle_range_onb(a, 1e-10)) == _bits(alone)
    hermitian = stack @ adj(stack)
    for a, eig in zip(hermitian, matcore.herm_eigs(hermitian, 1e-8)):
        alone = matcore.herm_eig(a, 1e-8)
        assert _bits(tuple(eig)) == _bits(tuple(oracle_herm_eig(a, 1e-8))) == _bits(tuple(alone))


def test_warm_certify_makes_few_lapack_calls(tmp_path, monkeypatch):
    t, cert = w2_tensor_jordan()
    doc = tmp_path / "w2.json"
    cli.write_document(cli.tuple_to_doc(t, cert.g), str(doc))
    argv = ["certify", str(doc), "--out", str(tmp_path / "cert.json")]
    assert cli.main(argv) == cli.EXIT_OK
    calls = collections.Counter()
    for name in ("svd", "eigh", "norm"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert cli.main(argv) == cli.EXIT_OK
    assert sum(calls.values()) <= 16, calls


# ---------------------------------------------------------------------------
# cnu_decomposition: the kernel at m = dim against the stack over m = 1..dim


def _cnu_cases(rng):
    diag = np.diag(np.exp(2j * np.pi * rng.uniform(size=3)))
    jordan = 0.9 * generators.lower_shift(3)
    yield np.block([[diag, np.zeros((3, 3))], [np.zeros((3, 3)), jordan]])
    q = random_unitary(rng, 5)
    inner = np.zeros((5, 5), dtype=complex)
    inner[:2, :2] = random_unitary(rng, 2)
    inner[2:, 2:] = 0.5 * random_unitary(rng, 3) + 0.3 * generators.lower_shift(3)
    yield q @ inner @ adj(q)
    yield np.diag([1.0, 0.5])
    yield np.eye(3)
    yield np.zeros((3, 3))
    yield 0.999 * random_unitary(rng, 4)
    yield generators.lower_shift(4)


def test_cnu_h0_matches_the_stacked_kernel(rng):
    for a in _cnu_cases(rng):
        h0, oracle = rz.cnu_decomposition(a).h0_frame, stacked_cnu_h0(a)
        assert h0.shape == oracle.shape
        assert np.allclose(h0 @ adj(h0), oracle @ adj(oracle), atol=1e-9)
    assert rz.cnu_decomposition(next(_cnu_cases(rng))).h0_dim == 3

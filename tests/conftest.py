import numpy as np
import pytest

from polydil import generators, matcore, realization as rz, tuples
from polydil.errors import PolydilError
from polydil.matcore import adj


class DegenerateLeadingCoefficient(PolydilError):
    pass


def poly_roots(coeffs) -> np.ndarray:
    """All roots (with multiplicity) of a polynomial.

    Coefficients are ordered from the highest degree down.  Roots are
    returned sorted by (real, imag) so the multiset has a canonical order.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise DegenerateLeadingCoefficient("empty coefficient list")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0 or abs(c[0]) <= 1e-14 * scale:
        raise DegenerateLeadingCoefficient(
            f"leading coefficient {c[0]} is degenerate at scale {scale:.3e}"
        )
    if c.size == 1:
        return np.zeros(0, dtype=complex)
    roots = np.roots(c)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zero_triple(d=2):
    z = np.zeros((d, d))
    t = tuples.make_tuple([z, z, z])
    return t, tuples.last_defect_certificate(t)


def constant_realization(u, var_count=2):
    """Decoupled realization: B, C empty, so Phi is constantly A*."""
    e = u.shape[0]
    return rz.TransferRealization(
        a=u,
        b=np.zeros((e, 0), dtype=complex),
        c=np.zeros((0, e), dtype=complex),
        d=np.zeros((0, 0), dtype=complex),
        partition=(0,) * var_count,
    )


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


def svd_torus_sup(p, r, points):
    """max over the rows zeta of ``points`` of ||P(zeta_1 I, ..., zeta_m I,
    Phi(zeta))||, with Phi from ``rz.transfer_eval_many`` and one SVD per
    point: the reference for the fiber maximum of ``vonneumann.torus_sup``."""
    phi = []
    for _, stack, regular in rz.transfer_eval_many(r, points):
        assert regular.all()
        phi.append(stack)
    phi = np.concatenate(phi)
    acc = np.zeros_like(phi)
    for k, a in p.terms.items():
        scalar = a * np.prod(points ** np.array(k[:-1]), axis=1)
        acc += scalar[:, None, None] * np.linalg.matrix_power(phi, k[-1])
    return float(np.max(matcore.operator_norm(acc), initial=0.0))


def w2_tensor_jordan():
    """T_i = 0.9 J_2 on factor i of C^2 (x) C^2 (x) C^2, T_4 = T_1 T_2 T_3,
    with the telescoping certificate G_i = P_i (I - T_i T_i*) P_i*,
    P_i = T_1 ... T_{i-1}."""
    shift, eye2 = 0.9 * generators.lower_shift(2), np.eye(2)
    factors = [np.kron(np.kron(shift, eye2), eye2), np.kron(np.kron(eye2, shift), eye2),
               np.kron(np.kron(eye2, eye2), shift)]
    eye = np.eye(8)
    g, prefix = [], eye
    for ti in factors:
        g.append(prefix @ (eye - ti @ adj(ti)) @ adj(prefix))
        prefix = prefix @ ti
    t = tuples.make_tuple(factors + [prefix])
    return t, tuples.verify_certificate(t, g)


def w3_nonnormal():
    """(0.5 I + 0.5 J_9, 0, 0.3 T_1) with the last-defect certificate."""
    t1 = 0.5 * np.eye(9) + 0.5 * generators.lower_shift(9)
    pair = tuples.make_tuple([t1, np.zeros((9, 9))])
    return generators.last_defect_tuple(pair, 0.3 * t1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def jordan22():
    return generators.jordan_pair(2, 2, 0.9, 0.9)


@pytest.fixture(scope="session")
def triple22(jordan22):
    return generators.product_triple(jordan22, 1, 1)


@pytest.fixture(scope="session")
def triple32():
    pair = generators.jordan_pair(3, 2, 1.0, 1.0)
    return generators.product_triple(pair, 2, 1)

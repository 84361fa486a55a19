import numpy as np
import pytest

from polydil import generators, realization as rz, tuples
from polydil.matcore import adj


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

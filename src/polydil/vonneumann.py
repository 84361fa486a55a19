"""Polynomial functional calculus and the variety von Neumann bound.

The certified dilation turns the norm of P(T) into a boundary supremum of
P(zeta_1 I, ..., zeta_{n-1} I, Phi(zeta)) over the torus.  Phi(zeta) is
unitary at every regular torus point, so that operator is normal and its
norm is the largest |P(zeta, lambda)| over the eigenvalues lambda of
Phi(zeta): the torus scan is a supremum of |P| over the variety fibers.
Splitting the constant term of Phi into unitary and completely-non-unitary
parts carves the relevant variety into a product component (unit-circle
spectrum of the unitary part) and the zero set of det(z_n I - Phi_1(z)) over
the polydisc.  Grid suprema are lower bounds of the true ones, so the
inequality check is one-sided: a pass proves the bound, and a margin below
the tolerance means only that the bound is not confirmed at this grid.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import matcore, realization as rz
from .errors import ArityMismatch, ParseError
from .matcore import adj, operator_norm
from .tuples import OperatorTuple, DilationCertificate

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in C[z_1, ..., z_nvars] as a sparse term map."""

    nvars: int
    terms: Mapping[MultiIndex, complex]


def multipoly(nvars: int, terms: Mapping) -> MultiPoly:
    """The polynomial with these terms, like terms combined and zero ones
    dropped; a coefficient that is then not finite is a ParseError."""
    clean: dict[MultiIndex, complex] = {}
    for k, a in terms.items():
        k = tuple(int(x) for x in k)
        if len(k) != nvars or any(x < 0 for x in k):
            raise ArityMismatch(f"bad exponent tuple {k} for {nvars} variables")
        a = complex(a)
        if a != 0:
            clean[k] = clean.get(k, 0) + a
    if not all(map(cmath.isfinite, clean.values())):
        raise ParseError("a polynomial coefficient is not finite")
    return MultiPoly(nvars, {k: a for k, a in clean.items() if a != 0})


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_NUM}$")
_RE_IMAG = re.compile(rf"^([+-]?)({_NUM})?i$")
_RE_FULL = re.compile(rf"^([+-]?{_NUM})([+-])({_NUM})?i$")
# one factor and the '*' after it, if any: a variable power, a parenthesized
# complex literal or a bare literal, followed by '*', a sign or the end
_RE_FACTOR = re.compile(
    rf"(?:z(\d+)(?:\^(\d+))?|\(([^()]*)\)|([+-]?(?:{_NUM}i?|i)))(\*|(?=[+-])|$)"
)


def _parse_complex(text: str) -> complex:
    if _RE_REAL.match(text):
        return complex(float(text))
    m = _RE_IMAG.match(text)
    if m:
        mag = float(m.group(2)) if m.group(2) else 1.0
        return complex(0.0, -mag if m.group(1) == "-" else mag)
    m = _RE_FULL.match(text)
    if m:
        mag = float(m.group(3)) if m.group(3) else 1.0
        sign = -1.0 if m.group(2) == "-" else 1.0
        return complex(float(m.group(1)), sign * mag)
    raise ParseError(f"cannot parse complex literal {text!r}")


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse the polynomial grammar: sums of `c * z1^a1 * ... * zn^an`.

    Coefficients are real or imaginary literals; a full complex coefficient
    is written in parentheses, e.g. ``(0.5+0.5i)*z1^2*z2``.  Every
    coefficient must be finite once like terms are combined.  Whitespace is
    ignored.  Each term opens with a run of signs (``--z1`` is z1), and a
    literal carries one sign of its own only right after a ``*``
    (``z1*-2``).  A bare ``a+bi`` without parentheses parses as two
    constant terms, which has the same value.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty polynomial")
    term_map: dict[MultiIndex, complex] = {}
    max_var = pos = 0
    star = ""
    parsed_terms = []
    while True:
        if not star:  # a new term: its run of signs folds into the coefficient
            signs = s[pos : len(s) - len(s[pos:].lstrip("+-"))]
            coeff, exps = complex(-1.0 if signs.count("-") % 2 else 1.0), {}
            pos += len(signs)
        m = _RE_FACTOR.match(s, pos)
        if m is None:
            raise ParseError(f"cannot parse {s!r} at position {pos}")
        var, exp, inner, literal, star = m.groups()
        if var is None:
            coeff *= _parse_complex(literal if inner is None else inner)
        elif int(var) < 1:
            raise ParseError("variables are numbered from z1")
        else:
            idx = int(var)
            exps[idx] = exps.get(idx, 0) + (int(exp) if exp else 1)
            max_var = max(max_var, idx)
        pos = m.end()
        if not star:
            parsed_terms.append((exps, coeff))
            if pos == len(s):
                break
    if nvars is None:
        nvars = max_var
    elif max_var > nvars:
        raise ParseError(f"variable z{max_var} exceeds the declared arity {nvars}")
    if nvars == 0:
        raise ParseError("polynomial mentions no variables and no arity was declared")
    for exps, coeff in parsed_terms:
        k = tuple(exps.get(i, 0) for i in range(1, nvars + 1))
        term_map[k] = term_map.get(k, 0) + coeff
    return multipoly(nvars, term_map)




def eval_poly_tuple(p: MultiPoly, t: OperatorTuple) -> np.ndarray:
    """P(T) = sum_k a_k T_1^{k_1} ... T_n^{k_n}."""
    if p.nvars != t.n:
        raise ArityMismatch(f"polynomial has {p.nvars} variables, tuple has {t.n}")
    d = t.dim
    pows: list[list[np.ndarray]] = []
    for i in range(t.n):
        max_e = max((k[i] for k in p.terms), default=0)
        lst = [np.eye(d, dtype=complex)]
        for _ in range(max_e):
            lst.append(lst[-1] @ t.ops[i])
        pows.append(lst)
    out = np.zeros((d, d), dtype=complex)
    for k, a in p.terms.items():
        m = np.eye(d, dtype=complex)
        for i, e in enumerate(k):
            if e:
                m = m @ pows[i][e]
        out += a * m
    return out


# ---------------------------------------------------------------------------
# splitting Phi along the canonical decomposition of its constant term


@dataclass(frozen=True)
class TransferSplit:
    """Phi = W* (+) Phi_1 in the unitary/cnu frame of its constant term."""

    unitary_block: np.ndarray
    cnu_part: rz.TransferRealization | None
    h0_frame: np.ndarray
    h1_frame: np.ndarray

    @property
    def h0_dim(self) -> int:
        return self.h0_frame.shape[1]


def split_transfer(r: rz.TransferRealization) -> TransferSplit:
    """Split along the canonical decomposition of the constant term A*.

    The unitary part of A* reduces Phi to the constant block W*, and the
    complement carries the compressed realization Phi_1: the off-diagonal
    blocks of Phi vanish.
    """
    cnu = rz.cnu_decomposition(adj(r.a))
    h1 = cnu.h1_frame
    cnu_part = None
    if h1.shape[1]:
        cnu_part = rz.TransferRealization(
            a=adj(cnu.cnu_block),
            b=adj(h1) @ r.b,
            c=r.c @ h1,
            d=r.d,
            partition=r.partition,
        )
    return TransferSplit(
        unitary_block=cnu.unitary_block,
        cnu_part=cnu_part,
        h0_frame=cnu.h0_frame,
        h1_frame=h1,
    )


# ---------------------------------------------------------------------------
# torus scans


@dataclass(frozen=True)
class TorusCache:
    """Transfer-function data over the boundary grid of the first n-1
    variables: the points with a regular resolvent, the eigenvalues of Phi
    there (LAPACK, sorted per point by (real, imag)), and the number of grid
    points skipped for a singular resolvent."""

    points: np.ndarray  # (G, m) complex
    eigs: np.ndarray  # (G, e)
    singular_points: int
    grid: int


def precompute_torus(r: rz.TransferRealization, grid: int) -> TorusCache:
    circle = rz.unit_circle(grid)
    points = rz.grid_points(circle, len(r.partition))
    eigs = np.empty((len(points), r.dim_e), dtype=complex)
    regular = np.empty(len(points), dtype=bool)
    for rows, phi, regular_rows in rz.transfer_eval_grid(r, circle):
        eigs[rows] = matcore.eigvals(phi)
        regular[rows] = regular_rows
    singular = len(points) - int(np.count_nonzero(regular))
    return TorusCache(points[regular], eigs[regular], singular, grid)


def _base_coefficients(p: MultiPoly, points: np.ndarray) -> np.ndarray:
    """c_j(zeta) = sum_{k, k_n = j} a_k zeta^khat as a (G, deg_n+1) array."""
    deg_n = max((k[-1] for k in p.terms), default=0)
    g = points.shape[0]
    out = np.zeros((g, deg_n + 1), dtype=complex)
    for k, a in p.terms.items():
        w = np.full(g, a, dtype=complex)
        for axis in range(p.nvars - 1):
            if k[axis]:
                w = w * points[:, axis] ** k[axis]
        out[:, k[-1]] += w
    return out


def _fiber_max(coeffs: np.ndarray, fibers: np.ndarray) -> float:
    """max of |sum_j c_gj lambda^j| over the rows g of a (G, deg_n+1)
    coefficient array and the lambda in row g of a (G, k) fiber array, or in
    its one row when it is (1, k) and shared by every g.  The powers of
    lambda are repeated products, and each sum accumulates from j = 0."""
    deg_n = coeffs.shape[1] - 1
    vals = np.zeros((len(coeffs), fibers.shape[1]), dtype=complex)
    fiber_pow = np.ones(fibers.shape, dtype=complex)
    for j in range(deg_n + 1):
        vals += coeffs[:, j, None] * fiber_pow
        if j < deg_n:
            fiber_pow = fiber_pow * fibers
    return float(np.max(np.abs(vals), initial=0.0))


def torus_sup(p: MultiPoly, cache: TorusCache) -> float:
    """max over the regular points of the cached torus grid of
    || P(zeta_1 I, ..., zeta_{n-1} I, Phi(zeta)) ||.

    The norm is the largest |P(zeta, lambda)| over the eigenvalues lambda of
    Phi(zeta): Phi is unitary at the regular torus points, so the operator is
    normal there.  The eigenvalues of P(zeta, Phi(zeta)) are the P(zeta,
    lambda) in any case, so the value never exceeds the norm."""
    m_vars = cache.points.shape[1]
    if p.nvars != m_vars + 1:
        raise ArityMismatch(f"polynomial has {p.nvars} variables, expected {m_vars + 1}")
    return _fiber_max(_base_coefficients(p, cache.points), cache.eigs)


def polydisc_grid_sup(p: MultiPoly, grid: int) -> float:
    """max of |P| over the full torus grid, a lower bound for the polydisc
    supremum: the circle is the fiber over each point of the grid^(n-1)
    base, so the grid^n points are never built.

    A screened scan.  With c_j(zeta') the base coefficients, every value on
    the row of zeta' is at most the bound sum_j |c_j(zeta')|, as |lambda| = 1.
    The row with the largest bound is scanned first; then only the rows whose
    bound times (1 + 1e-8) reaches that row's maximum can hold the grid
    maximum, and they are scanned CHUNK rows at a time.  The slack covers the
    rounding of the bounds and of the values, which is relative while that
    maximum is a normal float.  A NaN, zero or subnormal maximum screens
    nothing, so a NaN anywhere on the grid still gives NaN, under the same
    warnings: a NaN bound is the largest to ``np.argmax`` and makes its row
    NaN, and an infinite maximum keeps the rows whose bound overflows, the
    only rows that can overflow.  Each scan is one ``_fiber_max`` call with
    the circle as the shared fiber row: it forms the circle's powers again,
    by the repeated products the unscreened scan forms in every row, and
    sums each value in the same order, so the result is the maximum over
    all grid^n points bit for bit.
    """
    if p.nvars < 1:
        raise ArityMismatch("a polynomial on the polydisc needs at least one variable")
    circle = rz.unit_circle(grid)
    coeffs = _base_coefficients(p, rz.grid_points(circle, p.nvars - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # only the scan warns, as on the full grid
        bound = np.sum(np.abs(coeffs), axis=1) * (1.0 + 1e-8)
    top = int(np.argmax(bound))
    best = _fiber_max(coeffs[top : top + 1], circle[None])
    rows = np.arange(len(coeffs))
    if best >= np.finfo(float).tiny:  # not NaN, zero or subnormal
        rows = rows[bound >= best]
    for r0 in range(0, len(rows), rz.CHUNK):
        best = np.maximum(best, _fiber_max(coeffs[rows[r0 : r0 + rz.CHUNK]], circle[None]))
    return float(best)


# ---------------------------------------------------------------------------
# variety sampling


@dataclass(frozen=True)
class VarietySample:
    """The sampled variety as one structured array ``points`` with the
    fields ``base`` (the m base coordinates z), ``fiber`` (the last
    coordinate lambda), ``component`` ("V0" or "V1"), ``residual``
    (|det(lambda I - Phi_j(z))|) and ``interior`` (|lambda| < 1).

    The regular base points come in grid order, the last coordinate varying
    fastest; each one's V1 fibers come first, in ``matcore.eigvals`` order,
    then its V0 fibers.  ``max_residual`` is the largest residual, NaN
    residuals skipped, and 0.0 for an empty sample."""

    points: np.ndarray
    h0_dim: int
    singular_points: int
    max_residual: float
    residual_ok: bool


def _fiber_bound_fails(worst: np.ndarray, phi: np.ndarray, root_tol: float) -> np.ndarray:
    """worst_g > root_tol * (1 + ||Phi_g||)^e for the largest fiber residuals
    ``worst`` over a (G, e, e) stack ``Phi``.

    L <= ||Phi_g|| <= F (``matcore.norm_bounds``) bounds the right side from
    both ends, with a 1e-8 relative slack against rounding; only points
    between the two ends get an SVD and the exact bound.
    """
    power = max(phi.shape[-1], 1)
    lower, upper = matcore.norm_bounds(phi)
    fails = worst > root_tol * (1.0 + upper) ** power * (1.0 + 1e-8)
    undecided = ~fails & ~(worst <= root_tol * (1.0 + lower) ** power * (1.0 - 1e-8))
    exact = root_tol * (1.0 + operator_norm(phi[undecided])) ** power
    fails[undecided] = worst[undecided] > exact
    return fails


def variety_sample(
    r: rz.TransferRealization,
    grid_per_axis: int = 17,
    radius: float = 0.95,
    root_tol: float = matcore.ROOT_TOL,
    split: TransferSplit | None = None,
) -> VarietySample:
    """Sample the variety components over an interior grid of the polydisc.

    For every grid point z the fibers are the eigenvalues of Phi_1(z)
    (component V1, from one batched LAPACK call per chunk of grid points,
    sorted by (real, imag)) together with the constant spectrum of the
    unitary part (component V0); each emitted point carries its
    characteristic-polynomial residual |det(lambda I - Phi_j(z))|, checked
    against root_tol * (1 + ||Phi_j(z)||)^e.

    ``residual_ok`` is a backward-error certificate: it says each fiber is
    an exact eigenvalue of a matrix near Phi_j(z), not that it is near an
    eigenvalue of Phi_j(z).  The determinant is flat near a cluster of
    eigenvalues, so fiber errors there stay invisible (on the (3,3) product
    triple, fibers 5.2e-5 apart both passed with residuals near 1.7e-14).
    The determinant is kept over the smallest singular value of
    lambda I - Phi_j(z): a computed eigenvalue is exact for Phi_j + E, so
    that singular value is at most ||E|| and just as blind.

    The points come as one structured array, fields and order as described
    on ``VarietySample``.
    """
    if split is None:
        split = split_transfer(r)
    w = split.unitary_block
    w_lam = matcore.eigvals(w)
    w_res = np.abs(matcore.det(w_lam[:, None, None] * np.eye(split.h0_dim) - w))
    w_bound = root_tol * (1.0 + operator_norm(w)) ** max(split.h0_dim, 1)

    coords = np.linspace(-radius, radius, grid_per_axis)
    disc = np.empty((grid_per_axis, grid_per_axis), dtype=complex)
    disc.real, disc.imag = coords[:, None], coords[None, :]
    m_vars = len(r.partition)
    # np.hypot is Python's abs(complex) to the bit; np.abs may round the
    # other way, which moves |z| = 1 fibers across the interior cut
    axis = disc[np.hypot(disc.real, disc.imag) <= radius]
    bases = rz.grid_points(axis, m_vars)
    e1 = split.cnu_part.dim_e if split.cnu_part is not None else 0
    lam = np.zeros((len(bases), e1), dtype=complex)
    res = np.zeros((len(bases), e1))
    fails = np.zeros(len(bases), dtype=bool)
    regular = np.ones(len(bases), dtype=bool)
    if split.cnu_part is not None:
        for rows, phi, regular_rows in rz.transfer_eval_grid(split.cnu_part, axis):
            lam[rows] = matcore.eigvals(phi)
            for j in range(e1):  # one (k, e, e) stack per fiber index, not (k, e, e, e)
                res[rows, j] = np.abs(matcore.det(lam[rows, j, None, None] * np.eye(e1) - phi))
            worst = np.fmax.reduce(res[rows], axis=1)  # a NaN residual fails nowhere
            fails[rows] = _fiber_bound_fails(worst, phi, root_tol)
            regular[rows] = regular_rows

    fields = [("base", complex, (m_vars,)), ("fiber", complex), ("component", "U2"),
              ("residual", float), ("interior", bool)]
    points = np.zeros((np.count_nonzero(regular), e1 + split.h0_dim), dtype=fields)
    points["base"] = bases[regular, None]
    points["fiber"][:, :e1], points["fiber"][:, e1:] = lam[regular], w_lam
    points["residual"][:, :e1], points["residual"][:, e1:] = res[regular], w_res
    points["component"][:, :e1], points["component"][:, e1:] = "V1", "V0"
    points["interior"] = np.hypot(points["fiber"].real, points["fiber"].imag) < 1.0
    # unitary fibers are exact to rounding, so the V0 bound holds in practice
    v0_fails = np.any(points["residual"][:, e1:] > w_bound)
    return VarietySample(
        points=points.reshape(-1),
        h0_dim=split.h0_dim,
        singular_points=int(np.count_nonzero(~regular)),
        max_residual=float(np.fmax.reduce(points["residual"].ravel(), initial=0.0)),
        residual_ok=not (np.any(fails & regular) or v0_fails),
    )


# ---------------------------------------------------------------------------
# the inequality check


@dataclass(frozen=True)
class VNReport:
    lhs: float
    rhs: float
    margin: float
    grid: int
    singular_points: int
    h0_dim: int
    polydisc_sup: float

    def ok_at(self, vn_tol: float) -> bool:
        return self.margin >= -vn_tol


def vn_check(
    p: MultiPoly,
    t: OperatorTuple,
    cert: DilationCertificate,
    grid: int = 32,
    realization: rz.TransferRealization | None = None,
    cache: TorusCache | None = None,
    split: TransferSplit | None = None,
) -> VNReport:
    """Compare ||P(T)|| with the variety grid supremum.

    ``lhs`` is the operator norm of P(T); ``rhs`` the torus-grid supremum of
    P applied to the dilation, which is the maximum of |P| over the variety
    fibers above the torus grid (``torus_sup``).  The fibers lie in the
    closed polydisc, so ``polydisc_sup``, the larger of ``rhs`` and the
    supremum of |P| over the full torus grid, is still a lower bound of the
    polydisc supremum; it is reported alongside for sharpness comparison.
    """
    if p.nvars != t.n:
        raise ArityMismatch(f"polynomial has {p.nvars} variables, tuple has {t.n}")
    if realization is None:
        realization = rz.build_generating_unitary(t, cert)
    if cache is None or cache.grid != grid:
        cache = precompute_torus(realization, grid)
    if split is None:
        split = split_transfer(realization)
    lhs = operator_norm(eval_poly_tuple(p, t))
    rhs = torus_sup(p, cache)
    poly_sup = max(polydisc_grid_sup(p, grid), rhs)
    return VNReport(
        lhs=float(lhs),
        rhs=rhs,
        margin=float(rhs - lhs),
        grid=grid,
        singular_points=cache.singular_points,
        h0_dim=split.h0_dim,
        polydisc_sup=float(poly_sup),
    )

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
from .errors import ArityMismatch, ParseError, SampleTooLarge
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
    """P(T) = sum_k a_k T_1^{k_1} ... T_n^{k_n}.

    ``pows[i][e - 1]`` is T_i^e by repeated products, and each term's
    product starts at its first nonzero factor: no product by I is formed,
    and only the constant term reads I."""
    if p.nvars != t.n:
        raise ArityMismatch(f"polynomial has {p.nvars} variables, tuple has {t.n}")
    d = t.dim
    pows: list[list[np.ndarray]] = []
    for i in range(t.n):
        max_e = max((k[i] for k in p.terms), default=0)
        lst = [t.ops[i]] if max_e else []
        for _ in range(max_e - 1):
            lst.append(lst[-1] @ t.ops[i])
        pows.append(lst)
    out = np.zeros((d, d), dtype=complex)
    for k, a in p.terms.items():
        m = None
        for i, e in enumerate(k):
            if e:
                m = pows[i][e - 1] if m is None else m @ pows[i][e - 1]
        out += a * (np.eye(d, dtype=complex) if m is None else m)
    return out


# ---------------------------------------------------------------------------
# splitting Phi along the canonical decomposition of its constant term


@dataclass(frozen=True)
class TransferSplit(rz.CnuDecomposition):
    """Phi = W* (+) Phi_1 in the unitary/cnu frame of its constant term."""

    cnu_part: rz.TransferRealization | None


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
    return TransferSplit(**vars(cnu), cnu_part=cnu_part)


# ---------------------------------------------------------------------------
# torus scans


@dataclass(frozen=True)
class TorusCache:
    """Transfer-function data over the boundary grid of the first n-1
    variables: the points with a regular resolvent, the eigenvalues of Phi
    there (LAPACK, sorted per point by (real, imag)), the number of grid
    points skipped for a singular resolvent, and the regular-point mask over
    all rows of ``grid_points(unit_circle(grid), n - 1)``.  The torus scan
    reads the rows of the base coefficient grid that ``regular`` marks,
    which are the ``points`` in grid order."""

    points: np.ndarray  # (G, m) complex
    eigs: np.ndarray  # (G, e)
    singular_points: int
    grid: int
    regular: np.ndarray  # (grid^m,) bool


def precompute_torus(r: rz.TransferRealization, grid: int) -> TorusCache:
    circle = rz.unit_circle(grid)
    points = rz.grid_points(circle, len(r.partition))
    eigs = np.empty((len(points), r.dim_e), dtype=complex)
    regular = np.empty(len(points), dtype=bool)
    chunks = rz.transfer_eval_grid(r, circle)
    for (rows, _, regular_rows), lam in matcore._chunk_map(matcore._eigvals, chunks):
        eigs[rows], regular[rows] = lam, regular_rows
    singular = len(points) - int(np.count_nonzero(regular))
    return TorusCache(points[regular], eigs[regular], singular, grid, regular)


def _grid_coefficients(p: MultiPoly, circle: np.ndarray) -> np.ndarray:
    """c_j(zeta') = sum_{k, k_n = j} a_k zeta'^khat over ``grid_points(circle,
    n - 1)`` as an (l_1, ..., l_{n-1}, deg_n+1) array: l_i is len(circle)
    when a term of P has z_i, else 1, as the c_j are constant along it.

    Each axis's power of the circle is broadcast along that axis, so no
    point array is built: per element these are the products a_k *
    zeta_1^k_1 * ... of the point-array form, in the same order, and the
    same sums over the terms."""
    m = p.nvars - 1
    deg_n = max((k[-1] for k in p.terms), default=0)
    reached = tuple(len(circle) if any(k[i] for k in p.terms) else 1 for i in range(m))
    out = np.zeros(reached + (deg_n + 1,), dtype=complex)
    powers: dict[int, np.ndarray] = {}
    for k, a in p.terms.items():
        w = np.full((1,) * m, a, dtype=complex)
        for axis, e in enumerate(k[:-1]):
            if e:
                if e not in powers:
                    powers[e] = circle**e
                w = w * powers[e].reshape((-1,) + (1,) * (m - 1 - axis))
        out[..., k[-1]] += w
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


def _check_torus_arity(p: MultiPoly, cache: TorusCache) -> None:
    m_vars = cache.points.shape[1]
    if p.nvars != m_vars + 1:
        raise ArityMismatch(f"polynomial has {p.nvars} variables, expected {m_vars + 1}")


def _torus_scan(coeffs: np.ndarray, cache: TorusCache) -> float:
    """``torus_sup`` from the collapsed coefficients broadcast to the base
    grid: the ``cache.regular`` rows meet their fibers, cut as in ``_polydisc_scan``."""
    k, eigs = coeffs.shape[-1], cache.eigs
    if k == 1 and np.abs(coeffs.view(float)).max() < 2.0**1000:
        eigs = eigs[:, :1]
    full = (cache.grid,) * (coeffs.ndim - 1) + (k,)
    if coeffs.shape != full:  # a copy: a stride-0 view may warn unlike the full grid
        coeffs, collapsed = np.empty(full, dtype=complex), coeffs
        coeffs[...] = collapsed  # faster than np.broadcast_to(...).copy()
    coeffs = coeffs.reshape(-1, k)
    if cache.singular_points:
        coeffs = coeffs[cache.regular]
    return _fiber_max(coeffs, eigs)


def _polydisc_scan(coeffs: np.ndarray, circle: np.ndarray) -> float:
    """``polydisc_grid_sup`` from the collapsed base coefficients over
    ``circle``, at one point when deg_n = 0 while c_0 stays below 2^1000:
    a product by 1 cannot overflow there, but one SIMD lane may above."""
    coeffs = coeffs.reshape(-1, coeffs.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # only the scan warns, as on the full grid
        bound = np.sum(np.abs(coeffs), axis=1) * (1.0 + 1e-8)
    top = int(np.argmax(bound))
    if coeffs.shape[1] == 1 and bound[top] < 2.0**1000:
        circle = circle[:1]
    best = _fiber_max(coeffs[top : top + 1], circle[None])
    rows = np.arange(len(coeffs))
    if best >= np.finfo(float).tiny:  # not NaN, zero or subnormal
        rows = rows[bound >= best]
    for r0 in range(0, len(rows), rz.CHUNK):
        best = np.maximum(best, _fiber_max(coeffs[rows[r0 : r0 + rz.CHUNK]], circle[None]))
    return float(best)


def torus_sup(p: MultiPoly, cache: TorusCache) -> float:
    """max over the regular points of the cached torus grid of
    || P(zeta_1 I, ..., zeta_{n-1} I, Phi(zeta)) ||.

    The norm is the largest |P(zeta, lambda)| over the eigenvalues lambda of
    Phi(zeta): Phi is unitary at the regular torus points, so the operator is
    normal there.  The eigenvalues of P(zeta, Phi(zeta)) are the P(zeta,
    lambda) in any case, so the value never exceeds the norm.  The base
    coefficients are formed along the axes P reaches and broadcast to the
    base grid (see ``_torus_scan``); the value is bit for bit the one from
    the coefficients at ``cache.points`` and every eigenvalue."""
    _check_torus_arity(p, cache)
    return _torus_scan(_grid_coefficients(p, rz.unit_circle(cache.grid)), cache)


def polydisc_grid_sup(p: MultiPoly, grid: int) -> float:
    """max of |P| over the full torus grid, a lower bound for the polydisc
    supremum: the circle is the fiber over each point of the grid^(n-1)
    base, so the grid^n points are never built.

    A screened scan over the rows of the axes P reaches, at one circle point
    when P has no z_n; the grid^n values repeat these, and a row's repeats
    share its bound and come after it.  With
    c_j(zeta') the base coefficients, every value on the row of zeta' is at
    most the bound sum_j |c_j(zeta')|, as |lambda| = 1.
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
    return _polydisc_scan(_grid_coefficients(p, circle), circle)


# ---------------------------------------------------------------------------
# variety sampling

# The most points one variety sample may hold: (interior disc points)^m * e.
VARIETY_POINT_BUDGET = 2**22


@dataclass(frozen=True)
class VarietySample:
    """The sampled variety as one structured array ``points`` with the
    fields ``base`` (the m base coordinates z), ``fiber`` (the last
    coordinate lambda), ``component`` ("V0" or "V1"), ``residual``
    (|det(lambda I - Phi_j(z))|) and ``interior`` (|lambda| < 1 for a V1
    fiber; false for a V0 fiber, an eigenvalue of the unitary W*, which
    lies on the unit circle however it rounds).

    The regular base points come in grid order, the last coordinate varying
    fastest; each one's V1 fibers come first, in ``matcore._eigvals`` order,
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


def _fibers(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted eigenvalues lambda_j of each matrix of a (k, e, e) stack Phi
    and |det(lambda_j I - Phi)| from one (k, e, e) stack per j, not
    (k, e, e, e); a ``matcore._chunk_map`` worker, so private kernels only."""
    lam, eye = matcore._eigvals(phi), np.eye(phi.shape[-1])
    res, stack = np.empty(lam.shape), np.empty_like(phi)  # one stack for every j: less peak RSS
    for j in range(lam.shape[-1]):
        np.multiply(lam[:, j, None, None], eye, out=stack)
        res[:, j] = np.abs(matcore._det(np.subtract(stack, phi, out=stack)))
    return lam, res


def variety_sample(
    r: rz.TransferRealization,
    grid_per_axis: int = 17,
    radius: float = 0.95,
    root_tol: float = matcore.ROOT_TOL,
) -> VarietySample:
    """Sample the variety components over an interior grid of the polydisc.

    For every grid point z the fibers are the eigenvalues of Phi_1(z)
    (component V1, one batched LAPACK call per chunk of grid points on the
    ``matcore._chunk_map`` workers) and the constant spectrum of the unitary
    part W* (component V0, once, on the one-matrix stack W*).  Both go through
    ``_fibers`` (sorted by (real, imag), each with its residual
    |det(lambda I - Phi_j(z))|) and ``_fiber_bound_fails`` (the largest
    residual of each matrix against root_tol * (1 + ||Phi_j(z)||)^e); V0's
    verdict counts only when some base point is regular.

    ``residual_ok`` is a backward-error certificate: it says each fiber is
    an exact eigenvalue of a matrix near Phi_j(z), not that it is near an
    eigenvalue of Phi_j(z).  The determinant is flat near a cluster of
    eigenvalues, so fiber errors there stay invisible (on the (3,3) product
    triple, fibers 5.2e-5 apart both passed with residuals near 1.7e-14).
    The determinant is kept over the smallest singular value of
    lambda I - Phi_j(z): a computed eigenvalue is exact for Phi_j + E, so
    that singular value is at most ||E|| and just as blind.

    The points come as one structured array, fields and order as described
    on ``VarietySample``.  A sample of more than ``VARIETY_POINT_BUDGET``
    points, (interior disc points)^m * e, raises SampleTooLarge before any
    point is formed or any fiber computed.
    """
    coords = np.linspace(-radius, radius, grid_per_axis)
    disc = np.empty((grid_per_axis, grid_per_axis), dtype=complex)
    disc.real, disc.imag = coords[:, None], coords[None, :]
    m_vars = len(r.partition)
    # np.hypot is Python's abs(complex) to the bit; np.abs may round the
    # other way, which moves |z| = 1 fibers across the interior cut
    axis = disc[np.hypot(disc.real, disc.imag) <= radius]
    if (count := len(axis) ** m_vars * r.dim_e) > VARIETY_POINT_BUDGET:  # all base points regular
        raise SampleTooLarge(f"the variety sample would hold {count:,} points, over the budget"
                             f" of {VARIETY_POINT_BUDGET:,}; lower the variety grid")
    split = split_transfer(r)
    bases = rz.grid_points(axis, m_vars)
    e1 = split.cnu_part.dim_e if split.cnu_part is not None else 0
    lam = np.zeros((len(bases), e1), dtype=complex)
    res = np.zeros((len(bases), e1))
    fails = np.zeros(len(bases), dtype=bool)
    regular = np.ones(len(bases), dtype=bool)
    if split.cnu_part is not None:
        chunks = rz.transfer_eval_grid(split.cnu_part, axis)
        for (rows, phi, regular_rows), (lam_rows, res_rows) in matcore._chunk_map(_fibers, chunks):
            lam[rows], res[rows], regular[rows] = lam_rows, res_rows, regular_rows
            worst = np.fmax.reduce(res_rows, axis=1)  # a NaN residual fails nowhere
            fails[rows] = _fiber_bound_fails(worst, phi, root_tol)
    w = split.unitary_block[None]  # V0 lies over every base point
    w_lam, w_res = _fibers(w)
    fails |= _fiber_bound_fails(np.fmax.reduce(w_res, axis=1, initial=0.0), w, root_tol)

    fields = [("base", complex, (m_vars,)), ("fiber", complex), ("component", "U2"),
              ("residual", float), ("interior", bool)]
    points = np.zeros((np.count_nonzero(regular), e1 + split.h0_dim), dtype=fields)
    points["base"] = bases[regular, None]
    points["fiber"][:, :e1], points["fiber"][:, e1:] = lam[regular], w_lam
    points["residual"][:, :e1], points["residual"][:, e1:] = res[regular], w_res
    points["component"][:, :e1], points["component"][:, e1:] = "V1", "V0"
    v1 = points[:, :e1]  # V0 fibers stay on the circle: not interior
    v1["interior"] = np.hypot(v1["fiber"].real, v1["fiber"].imag) < 1.0
    return VarietySample(
        points=points.reshape(-1),
        h0_dim=split.h0_dim,
        singular_points=int(np.count_nonzero(~regular)),
        max_residual=float(np.fmax.reduce(points["residual"].ravel(), initial=0.0)),
        residual_ok=not np.any(fails & regular),
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

    Both scans read one array of base coefficients, formed once along the
    base axes P reaches: the polydisc scan reads it as it is, the torus scan
    broadcast to the regular rows of the torus base grid.  Each value is bit
    for bit the one ``torus_sup`` and ``polydisc_grid_sup`` give.
    """
    if p.nvars != t.n:
        raise ArityMismatch(f"polynomial has {p.nvars} variables, tuple has {t.n}")
    if realization is None:
        realization = rz.build_generating_unitary(t, cert)
    if cache is None or cache.grid != grid:
        cache = precompute_torus(realization, grid)
    if split is None:
        split = split_transfer(realization)
    _check_torus_arity(p, cache)
    lhs = operator_norm(eval_poly_tuple(p, t))
    circle = rz.unit_circle(grid)
    coeffs = _grid_coefficients(p, circle)
    rhs = _torus_scan(coeffs, cache)
    poly_sup = max(_polydisc_scan(coeffs, circle), rhs)
    return VNReport(
        lhs=float(lhs),
        rhs=rhs,
        margin=float(rhs - lhs),
        grid=grid,
        singular_points=cache.singular_points,
        h0_dim=split.h0_dim,
        polydisc_sup=float(poly_sup),
    )

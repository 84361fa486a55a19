"""Polynomial functional calculus and the variety von Neumann bound.

The certified dilation turns the norm of P(T) into a boundary supremum of
P(zeta_1 I, ..., zeta_{n-1} I, Phi(zeta)) over the torus.  Splitting the
constant term of Phi into unitary and completely-non-unitary parts carves
the relevant variety into a product component (unit-circle spectrum of the
unitary part) and the zero set of det(z_n I - Phi_1(z)) over the polydisc.
Grid suprema are lower bounds of the true ones, so the inequality check is
one-sided: a failure beyond the tolerance indicates a bug, not grid
coarseness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import matcore, realization as rz
from .errors import ArityMismatch, ParseError
from .matcore import adj, operator_norm
from .tuples import OperatorTuple, DilationCertificate, spectral_radius

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in C[z_1, ..., z_nvars] as a sparse term map."""

    nvars: int
    terms: Mapping[MultiIndex, complex]

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)


def multipoly(nvars: int, terms: Mapping) -> MultiPoly:
    clean: dict[MultiIndex, complex] = {}
    for k, a in terms.items():
        k = tuple(int(x) for x in k)
        if len(k) != nvars or any(x < 0 for x in k):
            raise ArityMismatch(f"bad exponent tuple {k} for {nvars} variables")
        a = complex(a)
        if a != 0:
            clean[k] = clean.get(k, 0) + a
    return MultiPoly(nvars, {k: a for k, a in clean.items() if a != 0})


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_NUM}$")
_RE_IMAG = re.compile(rf"^([+-]?)({_NUM})?i$")
_RE_FULL = re.compile(rf"^([+-]?{_NUM})([+-])({_NUM})?i$")
_RE_VAR = re.compile(r"^z(\d+)(?:\^(\d+))?$")


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


def _split_terms(text: str) -> list[str]:
    """Split at top-level +/-, keeping the sign with each term.

    Signs inside parentheses or in exponent notation (1e-3) do not split.
    """
    chunks: list[str] = []
    depth = 0
    current = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch in "+-" and depth == 0 and i > 0:
            prev = text[i - 1]
            if prev in "eE" and i >= 2 and (text[i - 2].isdigit() or text[i - 2] == "."):
                current += ch
                continue
            if prev in "+-*^(":
                current += ch
                continue
            chunks.append(current)
            current = ch
            continue
        current += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    chunks.append(current)
    return [c for c in chunks if c]


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse the polynomial grammar: sums of `c * z1^a1 * ... * zn^an`.

    Coefficients are real or imaginary literals; a full complex coefficient
    is written in parentheses, e.g. ``(0.5+0.5i)*z1^2*z2``.  Whitespace is
    ignored.  A bare ``a+bi`` without parentheses parses as two constant
    terms, which has the same value.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty polynomial")
    term_map: dict[MultiIndex, complex] = {}
    max_var = 0
    parsed_terms = []
    for chunk in _split_terms(s):
        sign = 1.0
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ParseError("dangling sign")
        coeff = complex(sign)
        exps: dict[int, int] = {}
        # split factors at top-level '*'
        factors: list[str] = []
        depth = 0
        cur = ""
        for ch in chunk:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "*" and depth == 0:
                factors.append(cur)
                cur = ""
            else:
                cur += ch
        factors.append(cur)
        for factor in factors:
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            mv = _RE_VAR.match(factor)
            if mv:
                idx = int(mv.group(1))
                if idx < 1:
                    raise ParseError("variables are numbered from z1")
                exp = int(mv.group(2)) if mv.group(2) else 1
                exps[idx] = exps.get(idx, 0) + exp
                max_var = max(max_var, idx)
                continue
            if factor.startswith("(") and factor.endswith(")"):
                coeff *= _parse_complex(factor[1:-1])
                continue
            coeff *= _parse_complex(factor)
        parsed_terms.append((exps, coeff))
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
    offdiag_max: float

    @property
    def h0_dim(self) -> int:
        return self.h0_frame.shape[1]


_SPLIT_SAMPLES = [0.31, -0.22, 0.47, 0.11, -0.38]


def split_transfer(r: rz.TransferRealization, tol: float = 1e-9) -> TransferSplit:
    """Split along the canonical decomposition of the constant term A*.

    The unitary part of A* reduces Phi to the constant block W*, and the
    complement carries the compressed realization Phi_1.  The off-diagonal
    blocks of Phi must vanish; the largest one found at a few interior sample
    points is reported.
    """
    cnu = rz.cnu_decomposition(adj(r.a), tol)
    h0, h1 = cnu.h0_frame, cnu.h1_frame
    cnu_part = None
    if h1.shape[1]:
        cnu_part = rz.TransferRealization(
            a=adj(cnu.cnu_block),
            b=adj(h1) @ r.b,
            c=r.c @ h1,
            d=r.d,
            partition=r.partition,
        )
    offdiag = 0.0
    if h0.shape[1] and h1.shape[1]:
        m_vars = len(r.partition)
        samples = [
            [base * np.exp(2j * np.pi * (j + axis) / 7.0) for axis in range(m_vars)]
            for j, base in enumerate(_SPLIT_SAMPLES)
        ]
        _, phi, regular = next(rz.transfer_eval_many(r, samples))
        phi = phi[regular]  # interior samples are always regular
        offdiag = max(
            matcore.max_operator_norm(adj(h0) @ phi @ h1),
            matcore.max_operator_norm(adj(h1) @ phi @ h0),
        )
    return TransferSplit(
        unitary_block=cnu.unitary_block,
        cnu_part=cnu_part,
        h0_frame=h0,
        h1_frame=h1,
        offdiag_max=offdiag,
    )


# ---------------------------------------------------------------------------
# torus scans


@dataclass(frozen=True)
class TorusCache:
    """Transfer-function data over the boundary grid of the first n-1
    variables: the points with a regular resolvent, Phi there, its
    eigenvalues (LAPACK, sorted per point by (real, imag)), and the number of
    grid points skipped for a singular resolvent."""

    points: np.ndarray  # (G, m) complex
    phi: np.ndarray  # (G, e, e)
    eigs: np.ndarray  # (G, e)
    singular_points: int
    grid: int


def precompute_torus(r: rz.TransferRealization, grid: int) -> TorusCache:
    points = rz.grid_points(rz.unit_circle(grid), len(r.partition))
    phi = np.empty((len(points), r.dim_e, r.dim_e), dtype=complex)
    regular = np.empty(len(points), dtype=bool)
    for rows, phi_rows, regular_rows in rz.transfer_eval_many(r, points):
        phi[rows] = phi_rows
        regular[rows] = regular_rows
    phi = phi[regular]
    singular = len(points) - int(np.count_nonzero(regular))
    return TorusCache(points[regular], phi, matcore.eigvals(phi), singular, grid)


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


def _matrix_sup(p: MultiPoly, cache: TorusCache) -> float:
    """max over the cached points of ||P(zeta_1 I, ..., zeta_{n-1} I, Phi(zeta))||."""
    coeffs = _base_coefficients(p, cache.points)
    deg_n = coeffs.shape[1] - 1
    g, e = cache.phi.shape[:2]
    acc = np.zeros((g, e, e), dtype=complex)
    power = np.broadcast_to(np.eye(e, dtype=complex), (g, e, e)).copy()
    for j in range(deg_n + 1):
        acc += coeffs[:, j, None, None] * power
        if j < deg_n:
            power = np.matmul(power, cache.phi)
    return float(np.max(operator_norm(acc), initial=0.0))


def _fiber_sup(p: MultiPoly, points: np.ndarray, fibers: np.ndarray) -> float:
    """max of |P(zeta, lambda)| over the rows zeta of a (G, n-1) point array
    and the last coordinates lambda in the same row of a (G, k) fiber array."""
    coeffs = _base_coefficients(p, points)
    deg_n = coeffs.shape[1] - 1
    vals = np.zeros(fibers.shape, dtype=complex)
    fiber_pow = np.ones(fibers.shape, dtype=complex)
    for j in range(deg_n + 1):
        vals += coeffs[:, j, None] * fiber_pow
        if j < deg_n:
            fiber_pow = fiber_pow * fibers
    return float(np.max(np.abs(vals), initial=0.0))


@dataclass(frozen=True)
class TorusScan:
    sup: float
    singular_points: int
    grid_points: int


def torus_sup(
    p: MultiPoly, r: rz.TransferRealization, grid: int, cache: TorusCache | None = None
) -> TorusScan:
    """max over the torus grid of || P(zeta_1 I, ..., zeta_{n-1} I, Phi(zeta)) ||.

    The norm is computed through singular values (the grid matrices are
    polynomials in commuting normal operators on the boundary)."""
    m_vars = len(r.partition)
    if p.nvars != m_vars + 1:
        raise ArityMismatch(f"polynomial has {p.nvars} variables, expected {m_vars + 1}")
    if cache is None or cache.grid != grid:
        cache = precompute_torus(r, grid)
    return TorusScan(_matrix_sup(p, cache), cache.singular_points, grid**m_vars)


def polydisc_grid_sup(p: MultiPoly, grid: int, cache: TorusCache | None = None) -> float:
    """max of |P| over the full torus grid, enriched with the transfer-function
    fibers when a cache is supplied.

    The fibers lie in the closed polydisc, so the enriched maximum is still a
    lower bound for the true polydisc supremum while dominating the variety
    scan pointwise."""
    points = rz.grid_points(rz.unit_circle(grid), p.nvars).reshape(-1, grid, p.nvars)
    sup = _fiber_sup(p, points[:, 0, :-1], points[:, :, -1])
    if cache is not None:
        sup = max(sup, _fiber_sup(p, cache.points, cache.eigs))
    return sup


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
    bases = rz.grid_points(disc[np.hypot(disc.real, disc.imag) <= radius], m_vars)
    e1 = split.cnu_part.dim_e if split.cnu_part is not None else 0
    lam = np.zeros((len(bases), e1), dtype=complex)
    res = np.zeros((len(bases), e1))
    fails = np.zeros(len(bases), dtype=bool)
    regular = np.ones(len(bases), dtype=bool)
    if split.cnu_part is not None:
        for rows, phi, regular_rows in rz.transfer_eval_many(split.cnu_part, bases):
            lam[rows] = matcore.eigvals(phi)
            shifted = lam[rows, :, None, None] * np.eye(e1) - phi[:, None]
            res[rows] = np.abs(matcore.det(shifted))
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
    P applied to the dilation; the coarser polydisc grid supremum (enriched
    with the sampled fibers, so it can never undercut the variety scan) is
    reported alongside for sharpness comparison.
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
    scan = torus_sup(p, realization, grid, cache)
    poly_sup = polydisc_grid_sup(p, grid, cache)
    return VNReport(
        lhs=float(lhs),
        rhs=float(scan.sup),
        margin=float(scan.sup - lhs),
        grid=grid,
        singular_points=scan.singular_points,
        h0_dim=split.h0_dim,
        polydisc_sup=float(poly_sup),
    )


def pure_tn_refinement(
    t: OperatorTuple,
    cert: DilationCertificate,
    r: rz.TransferRealization,
    tol: float = 1e-6,
) -> bool:
    """True when purity of the last coordinate forces the unitary part away.

    A pure T_n must yield an empty product component (h0_dim = 0); for a
    non-pure T_n the implication is vacuous.
    """
    rho = spectral_radius(t.op(t.n))
    if rho >= 1.0 - tol:
        return True
    return split_transfer(r).h0_dim == 0

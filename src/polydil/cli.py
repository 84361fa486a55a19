"""Command-line surface and the JSON document schema.

Subcommands: ``generate``, ``certify``, ``dilate``, ``verify``, ``vn`` and
``variety``.  Documents use one wire format throughout: a complex scalar is
``[re, im]``, a matrix is a row-major nested array of those pairs, a tuple
document is ``{dim, n, operators, certificate?: {G: [...]}}`` and a
realization document carries the blocks ``{A, B, C, D, partition}``.  Each
document is written as one line of JSON (``python -m json.tool FILE``
pretty-prints one).  Reals are written as Python's shortest round-trip repr
and a zero keeps its sign, so save/load round trips are bit-identical.  The
variety document's points are written from their structured array chunk by
chunk, from values the standard library's encoder writes, in the bytes one
``json.dumps`` of the whole document would give.

The parser is built once per process.  Config flags can be preset by
``POLYDIL_*`` environment variables, read on every call of ``main`` before
the arguments, so a bad preset exits 2 whatever the command line says.

Exit codes: 0 success, 2 parse failure, 3 certification failure, 4 dilation
failure, 5 verification failure, 6 von Neumann bound not confirmed at this
grid, 7 variety fiber residual check failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import generators, hardy, matcore, realization as rz, tuples, vonneumann as vn
from .errors import CertificationError, DilationError, ParseError, PolydilError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CERTIFY = 3
EXIT_DILATE = 4
EXIT_VERIFY = 5
EXIT_VN = 6
EXIT_VARIETY = 7

# Exit code per error family; any other PolydilError is a parse failure.
EXIT_CODES = {
    DilationError: EXIT_DILATE,
    CertificationError: EXIT_CERTIFY,
}

ENV_PREFIX = "POLYDIL_"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    # grid, variety_grid, radius and seed mirror the defaults of
    # run_identity_suite, vn_check and variety_sample
    cap: int = hardy.DEFAULT_CAP
    grid: int = 32
    variety_grid: int = 17
    radius: float = 0.95
    cert_tol: float = tuples.CERT_TOL
    vn_tol: float = 1e-7
    root_tol: float = matcore.ROOT_TOL
    seed: int = 0
    out: str = "-"

    def validate(self) -> None:
        if self.cap < 1:
            raise ParseError("degree cap must be at least 1")
        if self.grid < 4:
            raise ParseError("torus grid must be at least 4")
        if self.variety_grid < 3:
            # at 2 the disc grid is the four corners r(+-1 +-i), all outside the disc
            raise ParseError("variety grid must be at least 3")
        if not 0.0 < self.radius <= 1.0:
            raise ParseError("radius must lie in (0, 1]")
        for name in ("cert_tol", "vn_tol", "root_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ParseError(f"{name} must be finite and positive")
        if self.seed < 0:
            raise ParseError("seed must be non-negative")


# The flags every command takes: (flag, RunConfig field, help).  A flag left
# off the command line takes its preset POLYDIL_<FLAG>, e.g. POLYDIL_TOL_CERT
# for --tol-cert, else its field's default.
CONFIG_FLAGS = (
    ("--cap", "cap", "degree cap of pi_isometry_defect's box"),
    ("--grid", "grid", "torus grid size"),
    ("--variety-grid", "variety_grid", "interior grid points per real axis"),
    ("--radius", "radius", "interior grid radius"),
    ("--tol-cert", "cert_tol", "certification tolerance"),
    ("--tol-vn", "vn_tol", "von Neumann margin tolerance"),
    ("--tol-root", "root_tol", "root residual tolerance"),
    ("--seed", "seed", "pseudo-random seed"),
    ("--out", "out", "output path ('-' for stdout)"),
)


def _presets() -> argparse.Namespace:
    """Each config flag's POLYDIL_<FLAG> preset, else its field's default,
    under the flag's argparse name (--tol-cert: tol_cert)."""
    presets = argparse.Namespace()
    for flag, field, _ in CONFIG_FLAGS:
        dest, default = flag[2:].replace("-", "_"), getattr(RunConfig, field)
        name = ENV_PREFIX + dest.upper()
        raw = os.environ.get(name)
        try:
            setattr(presets, dest, default if raw is None else type(default)(raw))
        except ValueError as exc:
            raise ParseError(f"bad value for {name}: {raw!r}") from exc
    return presets


def _config_from(args: argparse.Namespace) -> RunConfig:
    # argparse stores --tol-cert as args.tol_cert
    values = {field: getattr(args, flag[2:].replace("-", "_")) for flag, field, _ in CONFIG_FLAGS}
    config = RunConfig(**values)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# wire format


def dumps_document(doc: dict) -> str:
    try:
        return json.dumps(doc, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ParseError(f"cannot serialize document: {exc}") from exc


# Rows of a streamed points array encoded and written at a time.
POINTS_CHUNK = 4096


def _column_texts(column: np.ndarray) -> list[str]:
    """The JSON text of each row of one field column (float, complex, bool
    or str values, a complex one as [re, im]), as ``json.dumps`` writes the
    row's ``tolist()``.  Each run of consecutive rows with bit-identical
    values is encoded once: a bitwise test, since -0.0 == 0.0."""
    raw = np.ascontiguousarray(column).view(np.uint8).reshape(len(column), -1)
    new = np.ones(len(column), dtype=bool)
    new[1:] = np.any(raw[1:] != raw[:-1], axis=1)
    heads = column[new]
    if heads.dtype.kind == "c":
        heads = np.stack([heads.real, heads.imag], -1)
    values = heads.reshape(-1).tolist()
    if heads.dtype.kind == "U":
        texts = [json.dumps(value) for value in values]
    else:  # no float or bool text holds ", "
        texts = json.dumps(values, allow_nan=False)[1:-1].split(", ")
    if heads.ndim > 1:
        # the row's nested list with %s in place of each value
        row = json.dumps(np.zeros(heads.shape[1:]).tolist()).replace("0.0", "%s")
        k = heads[0].size
        texts = [row % values for values in zip(*(texts[j::k] for j in range(k)))]
    return texts if new.all() else [texts[i] for i in (np.cumsum(new) - 1).tolist()]


def _streamed(head: str, points: np.ndarray):
    """``head`` (a one-object document line) with a last key "points"
    holding one object per row of ``points``, yielded chunk by chunk."""
    names = points.dtype.names
    row = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in names) + "}"
    yield head[:-2] + (", " if head != "{}\n" else "") + '"points": ['
    for start in range(0, len(points), POINTS_CHUNK):
        chunk = points[start : start + POINTS_CHUNK]
        columns = [_column_texts(chunk[name]) for name in names]
        yield (", " if start else "") + ", ".join([row % values for values in zip(*columns)])
    yield "]}\n"


def write_document(doc: dict, path: str, points: np.ndarray | None = None) -> None:
    """Write ``doc`` as one line of JSON to ``path`` ('-' for stdout).

    ``points``, a structured array, becomes the last key "points": one
    object per row, keys in field order, in the bytes ``dumps_document``
    gives for those rows as dicts.  Its rows are encoded and written chunk
    by chunk.  Every refusal (a non-finite value anywhere) is decided
    before the file is opened or anything reaches stdout."""
    text = dumps_document(doc)
    pieces = [text]
    if points is not None:
        for name in points.dtype.names:
            if points[name].dtype.kind in "fc" and not np.isfinite(points[name]).all():
                raise ParseError(f"cannot serialize document: non-finite value in points {name!r}")
        pieces = _streamed(text, points)
    if path == "-":
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_document(path: str) -> dict:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    return doc


def matrix_to_doc(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and type(v) is not bool


def _check_entries(doc: list, width) -> None:
    """Raise ParseError naming the first row or entry of ``doc`` that is not
    a row of ``width`` complex scalars [re, im]."""
    for row in doc:
        if not isinstance(row, list):
            raise ParseError("matrix rows must be arrays")
        if len(row) != width:
            raise ParseError("ragged matrix rows")
        for x in row:
            pair = isinstance(x, (list, tuple)) and len(x) == 2
            if not (pair and _is_real(x[0]) and _is_real(x[1])):
                raise ParseError(f"complex scalar must be [re, im], got {x!r}")


def matrix_from_doc(doc) -> np.ndarray:
    # the types checked by set passes over the rows, entries and reals; the
    # entry loop runs only to name what those passes rejected
    if not isinstance(doc, list) or not doc:
        raise ParseError("matrix must be a non-empty nested array")
    width = len(doc[0]) if isinstance(doc[0], list) else None
    rows = set(map(type, doc)) == {list} and set(map(len, doc)) == {width}
    entries = list(itertools.chain.from_iterable(doc)) if rows else None
    if not (
        rows
        and set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {2}
        and set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}
    ):
        _check_entries(doc, width)
    # pairs viewed as complex: re + 1j*im would flip a -0.0 real part
    m = np.array(doc, dtype=float).reshape(-1, 2).view(complex).reshape(len(doc), width)
    if not np.isfinite(m).all():
        raise ParseError("non-finite scalar in document")
    return m


def tuple_to_doc(t: tuples.OperatorTuple, g=None) -> dict:
    doc = {
        "dim": t.dim,
        "n": t.n,
        "operators": [matrix_to_doc(m) for m in t.ops],
    }
    if g is not None:
        doc["certificate"] = {"G": [matrix_to_doc(m) for m in g]}
    return doc


def tuple_from_doc(doc: dict) -> tuple[tuples.OperatorTuple, list | None]:
    for key in ("dim", "n", "operators"):
        if key not in doc:
            raise ParseError(f"tuple document is missing {key!r}")
    dim, n = doc["dim"], doc["n"]
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (dim, n)):
        raise ParseError("tuple document's dim and n must be integers")
    try:
        ops = [matrix_from_doc(m) for m in list(doc["operators"])]
        if len(ops) != n:
            raise ParseError("operator count does not match n")
        if any(m.shape != (dim, dim) for m in ops):
            raise ParseError("operator blocks do not match dim")
        t = tuples.make_tuple(ops)
        if "certificate" not in doc:
            return t, None
        cert_doc = doc["certificate"]
        if not isinstance(cert_doc, dict) or "G" not in cert_doc:
            raise ParseError("certificate must be an object with a G list")
        return t, [matrix_from_doc(m) for m in cert_doc["G"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed tuple document: {exc}") from exc


def certificate_to_doc(t: tuples.OperatorTuple, cert: tuples.DilationCertificate) -> dict:
    return {
        "accepted": True,
        "dim": t.dim,
        "n": t.n,
        "G": [matrix_to_doc(m) for m in cert.g],
        "F": [matrix_to_doc(m) for m in cert.f],
        "defect": matrix_to_doc(cert.defect),
        "frames": {
            "defect": matrix_to_doc(cert.d_frame),
            "F": [matrix_to_doc(m) for m in cert.f_frames],
        },
        "rank_defect": cert.rank_d,
        "ranks": list(cert.ranks),
        "diagnostics": {
            "sum_residual": cert.sum_residual,
            "szego_min_eig": cert.szego_min_eig,
            "g_margins": list(cert.g_margins),
            "product_margins": list(cert.product_margins),
        },
    }


def error_to_doc(exc: PolydilError) -> dict:
    doc: dict = {"type": type(exc).__name__, "message": str(exc)}
    for field in ("residual", "min_eig", "i", "j", "norm", "which", "rho"):
        if hasattr(exc, field):
            doc[field] = getattr(exc, field)
    return doc


def realization_to_doc(
    t: tuples.OperatorTuple, cert: tuples.DilationCertificate, r: rz.TransferRealization
) -> dict:
    return {
        "A": matrix_to_doc(r.a),
        "B": matrix_to_doc(r.b),
        "C": matrix_to_doc(r.c),
        "D": matrix_to_doc(r.d),
        "partition": list(r.partition),
        "rank_defect": cert.rank_d,
        "ranks": list(cert.ranks),
        "generating_residual": rz.generating_residual(t, cert, r),
        "unitarity_residual": rz.unitarity_residual(r),
    }


# ---------------------------------------------------------------------------
# command implementations


def _certificate_for(t: tuples.OperatorTuple, g, config: RunConfig) -> tuples.DilationCertificate:
    if g is not None:
        return tuples.verify_certificate(t, g, config.cert_tol)
    return tuples.last_defect_certificate(t, config.cert_tol)


def _load_polynomial(path: str, nvars: int) -> tuple[vn.MultiPoly, str]:
    text = _read_text(path).strip()
    return vn.parse_poly(text, nvars), text


def _realize(args: argparse.Namespace, config: RunConfig):
    """The common start of dilate, verify, vn and variety: load the tuple,
    certify it and build its block unitary U.  vn's polynomial is parsed
    before certifying, so a bad polynomial is a parse failure even on an
    uncertifiable tuple.  Returns (tuple, certificate, U, (polynomial, text) or None)."""
    t, g = tuple_from_doc(load_document(args.input))
    poly = _load_polynomial(args.polynomial, t.n) if "polynomial" in args else None
    cert = _certificate_for(t, g, config)
    return t, cert, rz.build_generating_unitary(t, cert, config.cert_tol), poly


def cmd_certify(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        t, g = tuple_from_doc(load_document(args.input))
        cert = _certificate_for(t, g, config)
    except CertificationError as exc:
        write_document({"accepted": False, "error": error_to_doc(exc)}, config.out)
        return EXIT_CERTIFY
    write_document(certificate_to_doc(t, cert), config.out)
    return EXIT_OK


def cmd_dilate(args: argparse.Namespace, config: RunConfig) -> int:
    t, cert, r, _ = _realize(args, config)
    write_document(realization_to_doc(t, cert, r), config.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    t, cert, r, _ = _realize(args, config)
    report = rz.run_identity_suite(
        t, cert, r, cap=config.cap, inner_grid=config.grid, seed=config.seed
    )
    doc = {
        "ok": report.ok,
        "cap": report.cap,
        "taylor_cap": report.taylor_cap,
        "rho": report.rho,
        "checks": [
            {"name": row.name, "residual": row.residual, "bound": row.bound, "ok": row.ok}
            for row in report.rows
        ],
        "inner": {"singular_points": report.inner_singular, "grid_points": report.inner_total},
    }
    write_document(doc, config.out)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_vn(args: argparse.Namespace, config: RunConfig) -> int:
    t, cert, r, (poly, text) = _realize(args, config)
    report = vn.vn_check(poly, t, cert, grid=config.grid, realization=r)
    ok = report.ok_at(config.vn_tol)
    doc = {
        "polynomial": text,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "grid": report.grid,
        "singular_points": report.singular_points,
        "h0_dim": report.h0_dim,
        "polydisc_sup": report.polydisc_sup,
        "ok": ok,
    }
    write_document(doc, config.out)
    return EXIT_OK if ok else EXIT_VN


def cmd_variety(args: argparse.Namespace, config: RunConfig) -> int:
    _, _, r, _ = _realize(args, config)
    sample = vn.variety_sample(
        r, grid_per_axis=config.variety_grid, radius=config.radius, root_tol=config.root_tol
    )
    doc = {
        "h0_dim": sample.h0_dim,
        "singular_points": sample.singular_points,
        "max_residual": sample.max_residual,
        "residual_ok": sample.residual_ok,
        "count": len(sample.points),
    }
    write_document(doc, config.out, points=sample.points)
    return EXIT_OK if sample.residual_ok else EXIT_VARIETY


def _product_triple(args: argparse.Namespace, config: RunConfig):
    pair = generators.jordan_pair(args.d1, args.d2, args.r1, args.r2)
    t, cert = generators.product_triple(pair, args.j, args.k, config.cert_tol)
    return t, cert.g


def _zero_triple(args: argparse.Namespace, config: RunConfig):
    if args.dim < 1:
        raise ValueError("need dim >= 1")
    zero = np.zeros((args.dim, args.dim), dtype=complex)
    t = tuples.make_tuple([zero, zero, zero])
    return t, tuples.last_defect_certificate(t, config.cert_tol).g


def _random(args: argparse.Namespace, config: RunConfig):
    return generators.random_candidate(config.seed, args.dim, args.n, args.margin), None


# generate's example families: kind -> (tuple, certificate G list or None)
EXAMPLES = {"product-triple": _product_triple, "zero-triple": _zero_triple, "random": _random}


def cmd_generate(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        t, g = EXAMPLES[args.kind](args, config)
    except ValueError as exc:  # an out-of-range family parameter
        raise ParseError(f"bad {args.kind} parameters: {exc}") from exc
    write_document(tuple_to_doc(t, g), config.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydil",
        description="certify commuting contraction tuples, build their isometric "
        "dilations and check variety von Neumann bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag, field, flag_help in CONFIG_FLAGS:
            # no default: a flag left off keeps the preset that main parses into
            kind = type(getattr(RunConfig, field))
            p.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=flag_help)
        return p

    p = command("generate", cmd_generate, "emit example tuples in the document format")
    p.add_argument("kind", choices=list(EXAMPLES), help="example family")
    p.add_argument("--d1", type=int, default=2)
    p.add_argument("--d2", type=int, default=2)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=1.0)
    p.add_argument("-j", type=int, default=1)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("-n", type=int, default=3)
    p.add_argument("--margin", type=float, default=0.1)

    command("certify", cmd_certify, "validate a membership certificate").add_argument("input")
    command("dilate", cmd_dilate, "build the generating block unitary").add_argument("input")
    command("verify", cmd_verify, "run the full intertwining identity suite").add_argument("input")
    p = command("vn", cmd_vn, "check the von Neumann margin for a polynomial")
    p.add_argument("input")
    p.add_argument("polynomial", help="path to a polynomial expression file")
    command("variety", cmd_variety, "sample the variety components").add_argument("input")
    return parser


# One parser per process: it holds no preset, so it can be reused.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv, _presets())
        return args.run(args, _config_from(args))
    except PolydilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), EXIT_PARSE)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

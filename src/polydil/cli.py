"""Command-line surface and the JSON document schema.

Subcommands: ``generate``, ``certify``, ``dilate``, ``verify``, ``vn`` and
``variety``.  Documents use one wire format throughout: a complex scalar is
``[re, im]``, a matrix is a row-major nested array of those pairs, a tuple
document is ``{dim, n, operators, certificate?: {G: [...]}}`` and a
realization document carries the blocks ``{A, B, C, D, partition}``.  Reals
are serialized with 17 significant digits so save/load round trips are
bit-identical.

Exit codes: 0 success, 2 parse failure, 3 certification failure, 4 dilation
failure, 5 verification failure, 6 von Neumann margin violation, 7 variety
fiber residual check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import generators, realization as rz, tuples, vonneumann as vn
from .errors import (
    CertificationError,
    DilationError,
    NotIsometric,
    ParseError,
    PolydilError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CERTIFY = 3
EXIT_DILATE = 4
EXIT_VERIFY = 5
EXIT_VN = 6
EXIT_VARIETY = 7

ENV_PREFIX = "POLYDIL_"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    cap: int = 12
    grid: int = 32
    variety_grid: int = 17
    radius: float = 0.95
    cert_tol: float = 1e-8
    vn_tol: float = 1e-7
    root_tol: float = 1e-7
    seed: int = 0
    out: str = "-"

    def validate(self) -> None:
        if self.cap < 1:
            raise ParseError("degree cap must be at least 1")
        if self.grid < 4:
            raise ParseError("torus grid must be at least 4")
        if self.variety_grid < 2:
            raise ParseError("variety grid must be at least 2")
        if not 0.0 < self.radius <= 1.0:
            raise ParseError("radius must lie in (0, 1]")
        for name in ("cert_tol", "vn_tol", "root_tol"):
            if getattr(self, name) <= 0:
                raise ParseError(f"{name} must be positive")


def _env(name: str, default):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    kind = type(default)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {ENV_PREFIX}{name}: {raw!r}") from exc


# ---------------------------------------------------------------------------
# wire format


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ParseError("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def _dump(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [_dump(v, indent + 2) for v in obj]
        if all(len(p) < 40 and "\n" not in p for p in parts) and len(parts) <= 16:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {_dump(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_document(doc: dict) -> str:
    return _dump(doc, 0) + "\n"


def write_document(doc: dict, path: str) -> None:
    text = dumps_document(doc)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    return doc


def complex_to_doc(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def complex_from_doc(doc) -> complex:
    if (
        not isinstance(doc, (list, tuple))
        or len(doc) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in doc)
    ):
        raise ParseError(f"complex scalar must be [re, im], got {doc!r}")
    z = complex(float(doc[0]), float(doc[1]))
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ParseError("non-finite scalar in document")
    return z


def matrix_to_doc(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_doc(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


def matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, list) or not doc:
        raise ParseError("matrix must be a non-empty nested array")
    rows = []
    width = None
    for row in doc:
        if not isinstance(row, list):
            raise ParseError("matrix rows must be arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("ragged matrix rows")
        rows.append([complex_from_doc(x) for x in row])
    return np.asarray(rows, dtype=complex)


def tuple_to_doc(t: tuples.OperatorTuple, g=None) -> dict:
    doc = {
        "dim": t.dim,
        "n": t.n,
        "operators": [matrix_to_doc(m) for m in t.ops],
    }
    if g is not None:
        doc["certificate"] = {"G": [matrix_to_doc(m) for m in g]}
    return doc


def tuple_from_doc(doc: dict, config: RunConfig) -> tuple[tuples.OperatorTuple, list | None]:
    for key in ("dim", "n", "operators"):
        if key not in doc:
            raise ParseError(f"tuple document is missing {key!r}")
    try:
        dim, n = int(doc["dim"]), int(doc["n"])
        ops = [matrix_from_doc(m) for m in list(doc["operators"])]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed tuple document: {exc}") from exc
    if len(ops) != n:
        raise ParseError("operator count does not match n")
    if any(m.shape != (dim, dim) for m in ops):
        raise ParseError("operator blocks do not match dim")
    t = tuples.make_tuple(ops)
    g = None
    if "certificate" in doc:
        cert_doc = doc["certificate"]
        if not isinstance(cert_doc, dict) or "G" not in cert_doc:
            raise ParseError("certificate must be an object with a G list")
        g = [matrix_from_doc(m) for m in cert_doc["G"]]
    return t, g


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


def cmd_certify(input_path: str, config: RunConfig) -> int:
    t, g = tuple_from_doc(load_document(input_path), config)
    try:
        cert = _certificate_for(t, g, config)
    except CertificationError as exc:
        write_document({"accepted": False, "error": error_to_doc(exc)}, config.out)
        return EXIT_CERTIFY
    write_document(certificate_to_doc(t, cert), config.out)
    return EXIT_OK


def cmd_dilate(input_path: str, config: RunConfig) -> int:
    t, g = tuple_from_doc(load_document(input_path), config)
    cert = _certificate_for(t, g, config)
    r = rz.build_generating_unitary(t, cert, config.cert_tol)
    write_document(realization_to_doc(t, cert, r), config.out)
    return EXIT_OK


def cmd_verify(input_path: str, config: RunConfig) -> int:
    t, g = tuple_from_doc(load_document(input_path), config)
    cert = _certificate_for(t, g, config)
    r = rz.build_generating_unitary(t, cert, config.cert_tol)
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


def _load_polynomial(path: str, nvars: int) -> tuple[vn.MultiPoly, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return vn.parse_poly(text, nvars), text


def cmd_vn(input_path: str, poly_path: str, config: RunConfig) -> int:
    t, g = tuple_from_doc(load_document(input_path), config)
    poly, text = _load_polynomial(poly_path, t.n)
    cert = _certificate_for(t, g, config)
    r = rz.build_generating_unitary(t, cert, config.cert_tol)
    report = vn.vn_check(poly, t, cert, grid=config.grid, realization=r)
    doc = {
        "polynomial": text,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "grid": report.grid,
        "singular_points": report.singular_points,
        "h0_dim": report.h0_dim,
        "polydisc_sup": report.polydisc_sup,
        "ok": report.ok_at(config.vn_tol),
    }
    write_document(doc, config.out)
    return EXIT_OK if report.ok_at(config.vn_tol) else EXIT_VN


def cmd_variety(input_path: str, config: RunConfig) -> int:
    t, g = tuple_from_doc(load_document(input_path), config)
    cert = _certificate_for(t, g, config)
    r = rz.build_generating_unitary(t, cert, config.cert_tol)
    sample = vn.variety_sample(
        r, grid_per_axis=config.variety_grid, radius=config.radius, root_tol=config.root_tol
    )
    doc = {
        "h0_dim": sample.h0_dim,
        "singular_points": sample.singular_points,
        "max_residual": sample.max_residual,
        "residual_ok": sample.residual_ok,
        "count": len(sample.points),
        "points": [
            {
                "base": [complex_to_doc(z) for z in pt.base],
                "fiber": complex_to_doc(pt.fiber),
                "component": pt.component,
                "residual": pt.residual,
                "interior": pt.interior,
            }
            for pt in sample.points
        ],
    }
    write_document(doc, config.out)
    return EXIT_OK if sample.residual_ok else EXIT_VARIETY


def cmd_generate(kind: str, args: argparse.Namespace, config: RunConfig) -> int:
    if kind == "product-triple":
        pair = generators.jordan_pair(args.d1, args.d2, args.r1, args.r2)
        triple, cert = generators.product_triple(pair, args.j, args.k, config.cert_tol)
        write_document(tuple_to_doc(triple, cert.g), config.out)
    elif kind == "zero-triple":
        zero = np.zeros((args.dim, args.dim), dtype=complex)
        triple = tuples.make_tuple([zero, zero, zero])
        cert = tuples.last_defect_certificate(triple, config.cert_tol)
        write_document(tuple_to_doc(triple, cert.g), config.out)
    elif kind == "random":
        t = generators.random_candidate(config.seed, args.dim, args.n, args.margin)
        write_document(tuple_to_doc(t), config.out)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown generator {kind!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap", type=int, default=_env("CAP", 12), help="degree cap per variable"
    )
    parser.add_argument("--grid", type=int, default=_env("GRID", 32), help="torus grid size")
    parser.add_argument(
        "--variety-grid",
        type=int,
        default=_env("VARIETY_GRID", 17),
        help="interior grid points per real axis",
    )
    parser.add_argument(
        "--radius", type=float, default=_env("RADIUS", 0.95), help="interior grid radius"
    )
    parser.add_argument(
        "--tol-cert", type=float, default=_env("TOL_CERT", 1e-8), help="certification tolerance"
    )
    parser.add_argument(
        "--tol-vn", type=float, default=_env("TOL_VN", 1e-7), help="von Neumann margin tolerance"
    )
    parser.add_argument(
        "--tol-root", type=float, default=_env("TOL_ROOT", 1e-7), help="root residual tolerance"
    )
    parser.add_argument("--seed", type=int, default=_env("SEED", 0), help="pseudo-random seed")
    parser.add_argument("--out", default=_env("OUT", "-"), help="output path ('-' for stdout)")


def _config_from(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        cap=args.cap,
        grid=args.grid,
        variety_grid=args.variety_grid,
        radius=args.radius,
        cert_tol=args.tol_cert,
        vn_tol=args.tol_vn,
        root_tol=args.tol_root,
        seed=args.seed,
        out=args.out,
    )
    config.validate()
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydil",
        description="certify commuting contraction tuples, build their isometric "
        "dilations and check variety von Neumann bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit example tuples in the document format")
    p.add_argument(
        "kind", choices=["product-triple", "zero-triple", "random"], help="example family"
    )
    p.add_argument("--d1", type=int, default=2)
    p.add_argument("--d2", type=int, default=2)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=1.0)
    p.add_argument("-j", type=int, default=1)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("-n", type=int, default=3)
    p.add_argument("--margin", type=float, default=0.1)
    _add_config_flags(p)

    p = sub.add_parser("certify", help="validate a membership certificate")
    p.add_argument("input")
    _add_config_flags(p)

    p = sub.add_parser("dilate", help="build the generating block unitary")
    p.add_argument("input")
    _add_config_flags(p)

    p = sub.add_parser("verify", help="run the full intertwining identity suite")
    p.add_argument("input")
    _add_config_flags(p)

    p = sub.add_parser("vn", help="check the von Neumann margin for a polynomial")
    p.add_argument("input")
    p.add_argument("polynomial", help="path to a polynomial expression file")
    _add_config_flags(p)

    p = sub.add_parser("variety", help="sample the variety components")
    p.add_argument("input")
    _add_config_flags(p)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "generate":
            return cmd_generate(args.kind, args, config)
        if args.command == "certify":
            return cmd_certify(args.input, config)
        if args.command == "dilate":
            return cmd_dilate(args.input, config)
        if args.command == "verify":
            return cmd_verify(args.input, config)
        if args.command == "vn":
            return cmd_vn(args.input, args.polynomial, config)
        if args.command == "variety":
            return cmd_variety(args.input, config)
        raise ParseError(f"unknown command {args.command!r}")  # pragma: no cover
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DilationError, NotIsometric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DILATE
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFY
    except PolydilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

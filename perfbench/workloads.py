"""Seeded inputs, timed steps and output checks for the three workloads.

Inputs are built at set-up through polydil's public ``generators``, ``tuples``
and ``cli`` document functions and written as documents and polynomial
files; the timed steps hand the program only those files (CLI steps) or the
objects the set-up derived from them (``vn_check`` steps).

Every round of every workload starts with the same probe steps on each of
the workload's documents: in-process ``certify`` and ``dilate`` through
``cli.main``, and ``polydil certify`` in a fresh interpreter.  The main steps
differ per workload; see README.md for the reasons.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from polydil import cli, generators, realization as rz, tuples, vonneumann as vn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE_REPEATS = 5  # in-process certify and dilate, per document and round
COLD_REPEATS = 2  # subprocess certify of the first document, per round
COLD_TIMEOUT_S = 60
VARIETY_GRID = 9  # the default 17 takes ~43 s per call on W1
W2_CAP = 8  # cap 12 takes ~109 s per call
# W3 verifies per W2 verify: a 15 s W2 call leaves time for them, and
# they give the W3 median more samples
W3_REPEATS = 3
TORUS_GRID = 32
VN_POLYS = 20  # vn_check calls per fixture and round
TOL_VN = 1e-7  # the CLI's default --tol-vn
DILATE_GENERATING_MAX = 1e-9
DILATE_UNITARITY_MAX = 1e-10
SHARPNESS_SLACK = 1e-9


@dataclass(frozen=True)
class Step:
    """One timed operation and the check of its output.

    ``key`` names the operation and input: repeats with the same key must
    give the same output bytes.  ``kind`` is the latency family reported as
    ``<kind>_s``.  ``main`` steps form the workload's request population.
    ``judge`` maps the call's return value to (passed, sound, digest).
    ``doc`` names the input document or fixture.  ``subprocess`` steps
    spend their time in another process.
    """

    key: str
    kind: str
    main: bool
    call: Callable[[], object]
    judge: Callable[[object], tuple[bool, bool, bytes | None]]
    doc: str
    subprocess: bool = False


@dataclass(frozen=True)
class Workload:
    """One set-up's steps.  ``request`` is "step" when each main step is one
    request, "round" when all main steps of a round together are one."""

    name: str
    steps: tuple[Step, ...]
    request: str
    sizes: dict


# ---------------------------------------------------------------------------
# inputs


def w1_product_triple():
    """(3,3) Jordan pair at r=0.9 extended by T1^2 T2^3: d=e=9, f=12."""
    pair = generators.jordan_pair(3, 3, 0.9, 0.9)
    return generators.product_triple(pair, 2, 3)


def w2_tensor_jordan():
    """T_i = 0.9 J_2 on factor i of C^2 (x) C^2 (x) C^2, T_4 = T_1 T_2 T_3,
    with the telescoping certificate G_i = P_i (I - T_i T_i*) P_i*,
    P_i = T_1 ... T_{i-1}."""
    shift = 0.9 * generators.lower_shift(2)
    eye2 = np.eye(2, dtype=complex)
    factors = [
        np.kron(np.kron(shift, eye2), eye2),
        np.kron(np.kron(eye2, shift), eye2),
        np.kron(np.kron(eye2, eye2), shift),
    ]
    eye = np.eye(8, dtype=complex)
    g = []
    prefix = eye
    for ti in factors:
        g.append(prefix @ (eye - ti @ ti.conj().T) @ prefix.conj().T)
        prefix = prefix @ ti
    t = tuples.make_tuple(factors + [prefix])
    return t, tuples.verify_certificate(t, g)


def w3_nonnormal():
    """(0.5 I + 0.5 J_9, 0, 0.3 T_1) with the last-defect certificate."""
    t1 = 0.5 * np.eye(9, dtype=complex) + 0.5 * generators.lower_shift(9)
    pair = tuples.make_tuple([t1, np.zeros((9, 9), dtype=complex)])
    return generators.last_defect_tuple(pair, 0.3 * t1)


def acceptance_fixture(d1: int, d2: int):
    """The acceptance product triple with r=0.9 and (j,k)=(2,3)."""
    pair = generators.jordan_pair(d1, d2, 0.9, 0.9)
    return generators.product_triple(pair, 2, 3)


def random_poly(rng) -> vn.MultiPoly:
    """Drawn like the acceptance suite's ``_random_poly``: 1 to 6 terms of
    total degree at most 3 in three variables, complex normal coefficients."""
    exponents = [k for k in itertools.product(range(4), repeat=3) if sum(k) <= 3]
    terms = {}
    for _ in range(int(rng.integers(1, 7))):
        k = exponents[int(rng.integers(0, len(exponents)))]
        terms[k] = complex(rng.standard_normal(), rng.standard_normal())
    return vn.multipoly(3, terms)


def poly_text(p: vn.MultiPoly) -> str:
    """The polynomial in the CLI grammar, exact to the last bit."""
    terms = []
    for k, a in p.terms.items():
        factors = [f"({a.real:.17g}{a.imag:+.17g}i)"]
        factors += [f"z{i + 1}^{e}" for i, e in enumerate(k) if e]
        terms.append("*".join(factors))
    text = " + ".join(terms)
    if vn.parse_poly(text, p.nvars).terms != p.terms:
        raise ValueError(f"polynomial text does not round-trip: {text}")
    return text


def write_tuple(path: Path, t, cert) -> str:
    cli.write_document(cli.tuple_to_doc(t, cert.g), str(path))
    return str(path)


def sizes(t, cert, **extra) -> dict:
    return {"d": t.dim, "n": t.n, "e": cert.rank_d, "partition": list(cert.ranks), **extra}


# ---------------------------------------------------------------------------
# checks


def _judge_certify(doc, code):
    accepted = doc["accepted"] is True
    return code == 0 and accepted, (code == 0) == accepted


def _judge_dilate(doc, code):
    ok = (
        code == 0
        and doc["generating_residual"] <= DILATE_GENERATING_MAX
        and doc["unitarity_residual"] <= DILATE_UNITARITY_MAX
    )
    # a realization outside the limits is a wrong output the program did not report
    return ok, ok


def _judge_verify(doc, code):
    rows = doc["checks"]
    rows_consistent = all(row["ok"] == (row["residual"] <= row["bound"]) for row in rows)
    verdict = all(row["ok"] for row in rows)
    sound = rows_consistent and doc["ok"] == verdict and (code == 0) == verdict
    return code == 0 and verdict, sound


def _judge_vn(doc, code):
    within = doc["margin"] >= -TOL_VN
    sharp = doc["rhs"] <= doc["polydisc_sup"] + SHARPNESS_SLACK
    sound = sharp and doc["ok"] == within and (code == 0) == within
    return code == 0 and within and sharp, sound


def _judge_variety(doc, code):
    sound = code == 0 and doc["count"] == len(doc["points"])
    return sound and doc["residual_ok"] is True, sound


def _document_judge(out: Path, judge_doc):
    def judge(code):
        try:
            data = out.read_bytes()
            out.unlink()
            passed, sound = judge_doc(json.loads(data), code)
        except (OSError, ValueError, KeyError, TypeError):
            return False, False, None
        return passed, sound, hashlib.sha256(data).digest()

    return judge


def cli_step(kind, main, command, doc, out: Path, judge_doc, extra=()) -> Step:
    argv = [command, doc, *extra, "--out", str(out)]
    stem = Path(doc).stem
    key = f"{command}:{stem}:{' '.join(extra)}"
    return Step(key, kind, main, lambda: cli.main(argv), _document_judge(out, judge_doc), stem)


def cold_certify_step(doc: str, out: Path) -> Step:
    """``polydil certify`` in a fresh interpreter: start-up and import
    included.  Its bytes must match the in-process certify of the same
    document, so it shares that step's key."""
    argv = [sys.executable, "-m", "polydil.cli", "certify", doc, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def call():
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, timeout=COLD_TIMEOUT_S, check=False
        )
        return done.returncode

    stem = Path(doc).stem
    judge = _document_judge(out, _judge_certify)
    return Step(f"certify:{stem}:", "cmd.cold_certify", False, call, judge, stem, True)


@dataclass(frozen=True)
class VnFixture:
    label: str
    t: tuples.OperatorTuple
    cert: tuples.DilationCertificate
    realization: rz.TransferRealization
    cache: vn.TorusCache
    split: vn.TransferSplit


def vn_check_step(fx: VnFixture, poly: vn.MultiPoly, index: int) -> Step:
    def call():
        return vn.vn_check(
            poly,
            fx.t,
            fx.cert,
            grid=TORUS_GRID,
            realization=fx.realization,
            cache=fx.cache,
            split=fx.split,
        )

    def judge(report):
        sharp = report.rhs <= report.polydisc_sup + SHARPNESS_SLACK
        passed = sharp and report.margin >= -TOL_VN
        fields = (report.lhs, report.rhs, report.margin, report.polydisc_sup)
        digest = hashlib.sha256(
            repr((fields, report.singular_points, report.h0_dim)).encode()
        ).digest()
        return passed, sharp, digest

    return Step(f"vn_check:{fx.label}:{index}", "vn_check", True, call, judge, fx.label)


# ---------------------------------------------------------------------------
# workloads


def _probes(docs: list[str], workdir: Path) -> list[Step]:
    steps = []
    for doc in docs:
        stem = Path(doc).stem
        for _ in range(PROBE_REPEATS):
            steps.append(
                cli_step("cmd.certify", False, "certify", doc, workdir / f"{stem}.cert.json",
                         _judge_certify)
            )
            steps.append(
                cli_step("cmd.dilate", False, "dilate", doc, workdir / f"{stem}.real.json",
                         _judge_dilate)
            )
    for _ in range(COLD_REPEATS):
        steps.append(cold_certify_step(docs[0], workdir / "cold.cert.json"))
    return steps


def _pipeline(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    w1 = w1_product_triple()
    doc = write_tuple(workdir / "w1.json", *w1)
    poly_path = workdir / "w1.poly"
    poly_path.write_text(poly_text(random_poly(rng)) + "\n", encoding="utf-8")
    main = [
        cli_step("cmd.verify", True, "verify", doc, workdir / "w1.verify.json", _judge_verify,
                 ("--seed", str(seed))),
        cli_step("cmd.vn", True, "vn", doc, workdir / "w1.vn.json", _judge_vn,
                 (str(poly_path),)),
        cli_step("cmd.variety", True, "variety", doc, workdir / "w1.variety.json",
                 _judge_variety, ("--variety-grid", str(VARIETY_GRID))),
    ]
    info = {"W1": sizes(*w1, variety_grid=VARIETY_GRID, grid=TORUS_GRID)}
    return Workload("pipeline", tuple(_probes([doc], workdir) + main), "round", info)


def _verify_deep(seed: int, workdir: Path) -> Workload:
    w2_in, w3_in = w2_tensor_jordan(), w3_nonnormal()
    w2 = write_tuple(workdir / "w2.json", *w2_in)
    w3 = write_tuple(workdir / "w3.json", *w3_in)
    main = [
        cli_step("verify.n4", True, "verify", w2, workdir / "w2.verify.json", _judge_verify,
                 ("--cap", str(W2_CAP), "--seed", str(seed))),
    ] + W3_REPEATS * [
        cli_step("verify.nonnormal", True, "verify", w3, workdir / "w3.verify.json",
                 _judge_verify, ("--seed", str(seed))),
    ]
    info = {
        "W2": sizes(*w2_in, cap=W2_CAP, box=(W2_CAP + 1) ** 3, torus_points=TORUS_GRID**3),
        "W3": sizes(*w3_in, cap=12, box=13**2, torus_points=TORUS_GRID**2),
    }
    return Workload("verify-deep", tuple(_probes([w2, w3], workdir) + main), "step", info)


def _vn_batch(seed: int, workdir: Path) -> Workload:
    fixtures = []
    docs = []
    for fi, (d1, d2) in enumerate([(2, 2), (3, 2), (3, 3)]):
        t, cert = acceptance_fixture(d1, d2)
        label = f"fx{d1}{d2}"
        docs.append(write_tuple(workdir / f"{label}.json", t, cert))
        real = rz.build_generating_unitary(t, cert)
        cache = vn.precompute_torus(real, TORUS_GRID)
        split = vn.split_transfer(real)
        rng = np.random.default_rng(seed + fi)
        fixtures.append((VnFixture(label, t, cert, real, cache, split), rng))
    main = []
    for index in range(VN_POLYS):
        for fx, rng in fixtures:
            main.append(vn_check_step(fx, random_poly(rng), index))
    info = {
        fx.label: sizes(fx.t, fx.cert, torus_points=fx.cache.points.shape[0], polys=VN_POLYS)
        for fx, _ in fixtures
    }
    return Workload("vn-batch", tuple(_probes(docs, workdir) + main), "step", info)


WORKLOADS = {"pipeline": _pipeline, "verify-deep": _verify_deep, "vn-batch": _vn_batch}


def set_up(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)

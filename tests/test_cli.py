import dataclasses
import inspect
import json
import struct

import numpy as np
import pytest

from polydil import cli, matcore, realization as rz, tuples, vonneumann as vn
from polydil.errors import NotIsometric, ParseError

from conftest import (
    direct_sum_constant,
    telescoping,
    unitary_last_triple,
    w1_product_triple,
    w3_nonnormal,
    zero_triple,
)


def run(argv):
    return cli.main(argv)


def default(fn, name):
    return inspect.signature(fn).parameters[name].default


@pytest.fixture
def triple_doc(tmp_path):
    path = tmp_path / "triple.json"
    assert run(["generate", "product-triple", "--d1", "2", "--d2", "2", "--out", str(path)]) == 0
    return path


# ---------------------------------------------------------------------------
# document round trips


def test_generate_writes_valid_document(triple_doc):
    doc = json.loads(triple_doc.read_text())
    assert doc["n"] == 3 and doc["dim"] == 4
    assert len(doc["operators"]) == 3
    assert len(doc["certificate"]["G"]) == 2


def test_round_trip_bit_identical(triple_doc):
    original = triple_doc.read_text()
    doc = cli.load_document(str(triple_doc))
    t, g = cli.tuple_from_doc(doc)
    assert cli.dumps_document(cli.tuple_to_doc(t, g)) == original


def test_matrix_codec_round_trip():
    m = np.array([[1.5 + 2.25j, -0.1j], [0.0, 1e-17]], dtype=complex)
    doc = cli.matrix_to_doc(m)
    back = cli.matrix_from_doc(doc)
    assert np.array_equal(m, back)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_seventeen_digit_floats_survive():
    # 0.1 + 0.2 needs all 17 digits; the others are the signed zero and the
    # smallest and largest finite doubles
    for x in (0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308):
        back = json.loads(cli.dumps_document({"x": x}))["x"]
        assert isinstance(back, float) and _bits(back) == _bits(x), x


def test_signed_zeros_round_trip():
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [-0.0j, 1.5]], dtype=complex)
    text = cli.dumps_document({"m": cli.matrix_to_doc(m)})
    back = cli.matrix_from_doc(json.loads(text)["m"])
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))
    assert cli.dumps_document({"m": cli.matrix_to_doc(back)}) == text


def test_documents_are_one_line(triple_doc):
    text = triple_doc.read_text()
    assert text.endswith("\n") and text.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), object()])
def test_writer_refuses_unserializable(value, tmp_path):
    with pytest.raises(cli.ParseError):
        cli.dumps_document({"x": [1.0, value]})
    out = tmp_path / "doc.json"
    with pytest.raises(cli.ParseError):
        cli.write_document({"x": value}, str(out))
    assert not out.exists()


def assert_refused(doc_text, message, tmp_path, capsys):
    """tuple_from_doc raises ParseError(message), and certify exits 2 with it."""
    with pytest.raises(cli.ParseError) as info:
        cli.tuple_from_doc(json.loads(doc_text))
    assert str(info.value) == message
    bad = tmp_path / "bad.json"
    bad.write_text(doc_text)
    assert run(["certify", str(bad), "--out", "-"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


# id -> (JSON text of one matrix entry, the message it is refused with)
MALFORMED_ENTRIES = {
    "true": ("true", "complex scalar must be [re, im], got True"),
    "false": ("false", "complex scalar must be [re, im], got False"),
    "bool-re": ("[true, 0.0]", "complex scalar must be [re, im], got [True, 0.0]"),
    "bool-im": ("[0.0, false]", "complex scalar must be [re, im], got [0.0, False]"),
    "string": ('"1.5"', "complex scalar must be [re, im], got '1.5'"),
    "string-re": ('["1.5", 0.0]', "complex scalar must be [re, im], got ['1.5', 0.0]"),
    "strings": ('["a", "b"]', "complex scalar must be [re, im], got ['a', 'b']"),
    "null": ("null", "complex scalar must be [re, im], got None"),
    "null-im": ("[0.0, null]", "complex scalar must be [re, im], got [0.0, None]"),
    "number": ("7", "complex scalar must be [re, im], got 7"),
    "pair-of-1": ("[1.0]", "complex scalar must be [re, im], got [1.0]"),
    "pair-of-3": ("[1.0, 0.0, 2.0]", "complex scalar must be [re, im], got [1.0, 0.0, 2.0]"),
    "inf-re": ("[Infinity, 0.0]", "non-finite scalar in document"),
    "inf-im": ("[0.0, -Infinity]", "non-finite scalar in document"),
    "nan": ("[NaN, 0.0]", "non-finite scalar in document"),
    "too-large": (f"[{10**400}, 0.0]", "malformed tuple document: int too large to convert to float"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ENTRIES))
def test_malformed_matrix_entry_exit2(case, triple_doc, tmp_path, capsys):
    entry, message = MALFORMED_ENTRIES[case]
    doc = json.loads(triple_doc.read_text())
    doc["operators"][1][2][1] = "@"
    assert_refused(json.dumps(doc).replace('"@"', entry), message, tmp_path, capsys)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: doc["operators"][0][1].pop(), "ragged matrix rows"),
        (lambda doc: doc["certificate"]["G"][1][3].append([0.0, 0.0]), "ragged matrix rows"),
        (lambda doc: doc["operators"][2].__setitem__(0, []), "ragged matrix rows"),
        (
            lambda doc: doc["operators"].__setitem__(0, [[] for _ in range(doc["dim"])]),
            "operator blocks do not match dim",
        ),
        (lambda doc: doc["operators"].__setitem__(1, []), "matrix must be a non-empty nested array"),
        (lambda doc: doc["operators"][0].__setitem__(1, 5), "matrix rows must be arrays"),
        (lambda doc: doc.pop("operators"), "tuple document is missing 'operators'"),
        (lambda doc: doc["operators"].pop(), "operator count does not match n"),
        (
            lambda doc: doc.__setitem__("certificate", []),
            "certificate must be an object with a G list",
        ),
    ],
    ids=[
        "short-row",
        "long-row",
        "empty-row",
        "empty-rows",
        "no-rows",
        "row-not-array",
        "no-operators",
        "operator-count",
        "certificate-array",
    ],
)
def test_malformed_matrix_shape_exit2(change, message, triple_doc, tmp_path, capsys):
    doc = json.loads(triple_doc.read_text())
    change(doc)
    assert_refused(json.dumps(doc), message, tmp_path, capsys)


def test_matrix_entries_outside_the_json_types_take_the_entry_loop():
    # the set passes accept list pairs of int and float only; the entry loop
    # accepts the rest as before, and names the first bad entry of a matrix
    # with several faults
    m = cli.matrix_from_doc([[(np.float64(1.5), 0), [2, -0.0]]])
    assert np.array_equal(m.view(np.uint64), np.array([[1.5, complex(2, -0.0)]]).view(np.uint64))
    with pytest.raises(ParseError, match=r"^complex scalar must be \[re, im\], got \[True, 0.0\]$"):
        cli.matrix_from_doc([[[0.0, 0.0], [True, 0.0]], [[0.0, 0.0], "x"], [[0.0, 0.0]], 5])


# ---------------------------------------------------------------------------
# certify


def test_certify_product_triple(triple_doc, tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", str(triple_doc), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["accepted"] is True
    assert cert["diagnostics"]["sum_residual"] <= 1e-12
    assert cert["rank_defect"] >= 1


def test_certify_sum_mismatch_exit3(triple_doc, tmp_path):
    doc = json.loads(triple_doc.read_text())
    eye = cli.matrix_to_doc(np.eye(doc["dim"]))
    doc["certificate"]["G"] = [eye, eye]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "cert.json"
    assert run(["certify", str(bad), "--out", str(out)]) == cli.EXIT_CERTIFY
    report = json.loads(out.read_text())
    assert report["accepted"] is False
    assert report["error"]["type"] == "SumMismatch"
    assert report["error"]["residual"] > 0


@pytest.mark.parametrize(
    "ops, error",
    [
        # T_2 = 2, T_3 = 3: the first coordinate that is not a contraction
        ([[[0.5]], [[2.0]], [[3.0]]], {"type": "NotContractive", "i": 2, "norm": 2.0}),
        # T_1 = 0.5 E_21 and T_2 = 0.5 E_12: T_1 T_2 - T_2 T_1 = 0.25 diag(-1, 1)
        (
            [[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            {"type": "NotCommuting", "i": 1, "j": 2, "residual": 0.25},
        ),
    ],
)
def test_certify_documents_a_tuple_refused_while_it_is_read(ops, error, tmp_path):
    # make_tuple's certification errors write the rejection document too
    doc = {"dim": len(ops[0]), "n": 3, "operators": [cli.matrix_to_doc(np.array(m)) for m in ops]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "cert.json"
    assert run(["certify", str(bad), "--out", str(out)]) == cli.EXIT_CERTIFY
    report = json.loads(out.read_text())
    assert report["accepted"] is False
    assert {key: report["error"][key] for key in error} == error


def test_certify_malformed_json_exit2(tmp_path):
    bad = tmp_path / "garbage.json"
    for text in ("{not json", "[1, 2]"):  # the second is JSON, but not an object
        bad.write_text(text)
        assert run(["certify", str(bad), "--out", "-"]) == cli.EXIT_PARSE


def test_certify_missing_file_exit2(tmp_path):
    assert run(["certify", str(tmp_path / "nope.json"), "--out", "-"]) == cli.EXIT_PARSE


def test_certify_non_utf8_document_exit2(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"dim": 1, "n": 3, "note": "\xe9"}')
    assert run(["certify", str(bad), "--out", "-"]) == cli.EXIT_PARSE


def test_certify_deeply_nested_document_exit2(tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text('{"operators": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run(["certify", str(bad), "--out", "-"]) == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "field",
    [
        {"certificate": {"G": 5}},
        {"dim": float("inf")},
        {"dim": 4.7},
        {"dim": "4"},
        {"n": 3.9},
        {"n": "3"},
    ],
)
def test_certify_malformed_field_exit2(field, triple_doc, tmp_path):
    doc = json.loads(triple_doc.read_text())
    doc.update(field)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["certify", str(bad), "--out", "-"]) == cli.EXIT_PARSE


def test_certify_unwritable_out_exit2(triple_doc, tmp_path):
    out = tmp_path / "missing" / "cert.json"
    assert run(["certify", str(triple_doc), "--out", str(out)]) == cli.EXIT_PARSE


def test_certify_without_certificate_uses_last_defect(tmp_path):
    zero = tmp_path / "zero.json"
    assert run(["generate", "zero-triple", "--dim", "2", "--out", str(zero)]) == 0
    doc = json.loads(zero.read_text())
    del doc["certificate"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    out = tmp_path / "cert.json"
    assert run(["certify", str(stripped), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    g1 = cli.matrix_from_doc(cert["G"][0])
    assert np.allclose(g1, np.eye(2))


# ---------------------------------------------------------------------------
# dilate / verify


def test_dilate_zero_triple(tmp_path):
    zero = tmp_path / "zero.json"
    run(["generate", "zero-triple", "--dim", "1", "--out", str(zero)])
    out = tmp_path / "real.json"
    assert run(["dilate", str(zero), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["generating_residual"] <= 1e-12
    assert doc["unitarity_residual"] <= 1e-10
    u = np.block(
        [
            [cli.matrix_from_doc(doc["A"]), cli.matrix_from_doc(doc["B"])],
            [cli.matrix_from_doc(doc["C"]), cli.matrix_from_doc(doc["D"])],
        ]
    )
    assert np.allclose(u, [[0.0, 1.0], [1.0, 0.0]])


def test_dilate_product_triple(triple_doc, tmp_path):
    out = tmp_path / "real.json"
    assert run(["dilate", str(triple_doc), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["generating_residual"] < 1e-10
    assert sum(doc["partition"]) == len(doc["D"])


def test_dilate_wrong_certificate_arity_is_structural(triple_doc, tmp_path):
    # wrong G count is a malformed document, not a semantic rejection
    doc = json.loads(triple_doc.read_text())
    doc["certificate"]["G"] = doc["certificate"]["G"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["dilate", str(bad), "--out", "-"]) == cli.EXIT_PARSE


def test_dilate_semantic_rejection_exit3(triple_doc, tmp_path):
    doc = json.loads(triple_doc.read_text())
    eye = cli.matrix_to_doc(np.eye(doc["dim"]))
    doc["certificate"]["G"] = [eye, eye]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["dilate", str(bad), "--out", "-"]) == cli.EXIT_CERTIFY


def test_isometry_defect_maps_to_exit4(triple_doc, monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise NotIsometric(0.5)

    monkeypatch.setattr(rz, "build_generating_unitary", boom)
    assert run(["dilate", str(triple_doc), "--out", "-"]) == cli.EXIT_DILATE


def test_verify_product_triple(triple_doc, tmp_path):
    out = tmp_path / "verify.json"
    code = run(
        ["verify", str(triple_doc), "--cap", "4", "--grid", "8", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    names = {row["name"] for row in doc["checks"]}
    assert names == {
        "generating_identity",
        "unitarity",
        "pi_isometry_defect",
        "strict_multiplier",
        "lifting",
        "schur_identity",
        "inner_deviation",
        "inner_singular_fraction",
    }
    for row in doc["checks"]:
        assert row["ok"] is True, row


def test_verify_reads_a_32_dimensional_box_at_the_default_cap(tmp_path):
    # n = 6 telescoping tuple: five hat coordinates, d = 32; its box at cap
    # 12 would hold 13^5 e d coefficients, the Gram operator is 32 x 32
    t, cert = telescoping(6)
    path = tmp_path / "t6.json"
    cli.write_document(cli.tuple_to_doc(t, cert.g), str(path))
    out = tmp_path / "verify.json"
    assert run(["verify", str(path), "--grid", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["taylor_cap"] == 60
    assert doc["cap"] == default(rz.run_identity_suite, "cap")


@pytest.mark.parametrize("build", [w1_product_triple, w3_nonnormal])
def test_verify_at_a_billion_cap(build, tmp_path):
    # the Gram sum and the box gap take O(log cap) products
    t, cert = build()
    path = tmp_path / "t.json"
    cli.write_document(cli.tuple_to_doc(t, cert.g), str(path))
    out = tmp_path / "verify.json"
    cap = 10**9
    assert run(["verify", str(path), "--cap", str(cap), "--grid", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cap"] == cap and doc["taylor_cap"] == 2 * cap
    row = next(row for row in doc["checks"] if row["name"] == "pi_isometry_defect")
    assert row["ok"] is True and row["residual"] <= row["bound"]


def test_verify_deterministic(triple_doc, tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    run(["verify", str(triple_doc), "--cap", "3", "--grid", "8", "--out", str(out1)])
    run(["verify", str(triple_doc), "--cap", "3", "--grid", "8", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("cap", [None, 8])
def test_verify_non_normal_triple(cap, tmp_path):
    # W3 is not nilpotent: the box misses part of the norm at every cap
    t, cert = w3_nonnormal()
    path = tmp_path / "w3.json"
    cli.write_document(cli.tuple_to_doc(t, cert.g), str(path))
    out = tmp_path / "verify.json"
    extra = [] if cap is None else ["--cap", str(cap)]
    assert run(["verify", str(path), "--grid", "8", "--out", str(out)] + extra) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["cap"] == (cap or default(rz.run_identity_suite, "cap"))
    assert doc["rho"] > 0.5
    for row in doc["checks"]:
        assert row["ok"] is True, row


# ---------------------------------------------------------------------------
# vn / variety


def test_vn_command(triple_doc, tmp_path):
    poly = tmp_path / "poly.txt"
    poly.write_text("z1*z2 + z3\n")
    out = tmp_path / "vn.json"
    assert run(["vn", str(triple_doc), str(poly), "--grid", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["margin"] >= -1e-7
    assert doc["rhs"] <= doc["polydisc_sup"] + 1e-9
    assert doc["polynomial"] == "z1*z2 + z3"
    assert doc["h0_dim"] == 0


def test_vn_trivial_constant(triple_doc, tmp_path):
    poly = tmp_path / "poly.txt"
    poly.write_text("1")
    out = tmp_path / "vn.json"
    assert run(["vn", str(triple_doc), str(poly), "--grid", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lhs"] == pytest.approx(1.0)
    assert doc["margin"] == pytest.approx(0.0, abs=1e-12)


def test_vn_builds_realization_at_tol_cert(triple_doc, monkeypatch, tmp_path):
    build = rz.build_generating_unitary
    seen = []

    def recording(t, cert, tol=1e-8, *args, **kwargs):
        seen.append(tol)
        return build(t, cert, tol, *args, **kwargs)

    monkeypatch.setattr(rz, "build_generating_unitary", recording)
    poly = tmp_path / "poly.txt"
    poly.write_text("z3")
    argv = ["vn", str(triple_doc), str(poly), "--grid", "8", "--tol-cert", "1e-9", "--out", "-"]
    assert run(argv) == 0
    assert seen == [1e-9]


def test_vn_bad_polynomial_exit2(triple_doc, tmp_path):
    poly = tmp_path / "poly.txt"
    poly.write_text("z1 ** 2")
    assert run(["vn", str(triple_doc), str(poly), "--out", "-"]) == cli.EXIT_PARSE


@pytest.mark.parametrize("text", ["1e999*z1", "1e200*1e200*z2"])
def test_vn_overflowing_coefficient_exit2(text, triple_doc, tmp_path, capsys):
    poly = tmp_path / "poly.txt"
    poly.write_text(text)
    assert run(["vn", str(triple_doc), str(poly), "--out", "-"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")


def test_vn_non_utf8_polynomial_exit2(triple_doc, tmp_path):
    poly = tmp_path / "poly.txt"
    poly.write_bytes(b"z1 + \xff")
    assert run(["vn", str(triple_doc), str(poly), "--out", "-"]) == cli.EXIT_PARSE


def test_variety_command(triple_doc, tmp_path):
    out = tmp_path / "variety.json"
    code = run(
        [
            "variety",
            str(triple_doc),
            "--variety-grid",
            "3",
            "--radius",
            "0.9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["residual_ok"] is True
    assert doc["h0_dim"] == 0
    assert doc["count"] == len(doc["points"]) > 0
    assert all(pt["interior"] for pt in doc["points"])


def test_unitary_last_coordinate_has_a_v0_component(tmp_path):
    # (0, 0, Q) for a unitary Q, with no certificate: certified by the last
    # defect, and the constant term of Phi is unitary on all of E
    path = tmp_path / "q.json"
    t, _ = unitary_last_triple()
    cli.write_document(cli.tuple_to_doc(t), str(path))
    poly = tmp_path / "poly.txt"
    poly.write_text("z1*z2 + z3^2")
    docs = {}
    for command, extra in (("certify", []), ("vn", [str(poly)]), ("variety", ["--variety-grid", "7"])):
        out = tmp_path / f"{command}.json"
        assert run([command, str(path), *extra, "--out", str(out)]) == 0, command
        docs[command] = json.loads(out.read_text())
    assert docs["certify"]["accepted"] is True and docs["certify"]["ranks"] == [1, 0]
    assert docs["vn"]["h0_dim"] == 3 and docs["vn"]["ok"] is True
    variety = docs["variety"]
    assert variety["h0_dim"] == 3 and variety["residual_ok"] is True
    assert variety["count"] == len(variety["points"]) == 3 * 29**2  # 29 disc points per axis
    assert {pt["component"] for pt in variety["points"]} == {"V0"}
    assert 0.0 < variety["max_residual"] <= 1e-7


def test_variety_residual_failure_exit7(triple_doc, monkeypatch, tmp_path):
    sample = vn.variety_sample

    def failing(*args, **kwargs):
        return dataclasses.replace(sample(*args, **kwargs), residual_ok=False)

    monkeypatch.setattr(vn, "variety_sample", failing)
    out = tmp_path / "variety.json"
    argv = ["variety", str(triple_doc), "--variety-grid", "3", "--out", str(out)]
    assert run(argv) == cli.EXIT_VARIETY == 7
    doc = json.loads(out.read_text())
    assert doc["residual_ok"] is False and doc["count"] == len(doc["points"]) > 0


def oracle_document(head: dict, points: np.ndarray) -> str:
    """One dumps_document of the head plus every point as a dict of nested
    lists: the bytes the streamed points writer must reproduce."""
    names = points.dtype.names
    columns = [
        cli.matrix_to_doc(points[name]) if points[name].dtype.kind == "c" else points[name].tolist()
        for name in names
    ]
    return cli.dumps_document({**head, "points": [dict(zip(names, row)) for row in zip(*columns)]})


def assert_same_text(text: str, oracle: str) -> None:
    """text == oracle, reporting the first difference rather than a full
    diff, which takes minutes on megabyte documents."""
    same = text == oracle
    if not same:
        at = next((i for i, (a, b) in enumerate(zip(text, oracle)) if a != b), None)
        at = min(len(text), len(oracle)) if at is None else at
        assert same, f"differ at {at}: {text[at - 40 : at + 40]!r} != {oracle[at - 40 : at + 40]!r}"


def variety_head(sample) -> dict:
    return {
        "h0_dim": sample.h0_dim,
        "singular_points": sample.singular_points,
        "max_residual": sample.max_residual,
        "residual_ok": sample.residual_ok,
        "count": len(sample.points),
    }


def recording_variety_sample(monkeypatch, change=lambda sample: sample) -> list:
    """Make the CLI's variety_sample pass its result through ``change`` and
    record it; returns the list of recorded samples."""
    samples, sample = [], vn.variety_sample

    def recording(*args, **kwargs):
        samples.append(change(sample(*args, **kwargs)))
        return samples[-1]

    monkeypatch.setattr(vn, "variety_sample", recording)
    return samples


@pytest.mark.parametrize("which, grid", [("readme", 9), ("w3", 5)])
def test_variety_document_matches_dict_oracle(which, grid, tmp_path, monkeypatch):
    # the README's (2,2) triple at r = 0.9 and the non-normal triple
    if which == "readme":
        triple = ["generate", "product-triple", "--r1", "0.9", "--r2", "0.9"]
        assert run(triple + ["--out", str(tmp_path / "triple.json")]) == 0
    else:
        t, cert = w3_nonnormal()
        cli.write_document(cli.tuple_to_doc(t, cert.g), str(tmp_path / "triple.json"))
    samples = recording_variety_sample(monkeypatch)
    out = tmp_path / "variety.json"
    argv = ["variety", str(tmp_path / "triple.json"), "--variety-grid", str(grid)]
    assert run(argv + ["--out", str(out)]) == 0
    (sample,) = samples
    if which == "readme":
        assert len(sample.points) > cli.POINTS_CHUNK  # written in several chunks
    assert_same_text(out.read_text(), oracle_document(variety_head(sample), sample.points))


@pytest.mark.parametrize("which", ["mixed", "empty"])
def test_streamed_points_match_dict_oracle(which, tmp_path):
    if which == "mixed":  # V1 fibers of the zero triple, one V0 fiber per base point
        r = direct_sum_constant(rz.build_generating_unitary(*zero_triple(1)), np.exp(0.2j))
        sample = vn.variety_sample(r, grid_per_axis=5, radius=0.95)
        assert set(sample.points["component"]) == {"V0", "V1"}
    else:  # no grid point lies inside the disc at grid 2
        sample = vn.variety_sample(rz.build_generating_unitary(*zero_triple(1)), grid_per_axis=2)
        assert len(sample.points) == 0
    out = tmp_path / "variety.json"
    cli.write_document(variety_head(sample), str(out), points=sample.points)
    assert_same_text(out.read_text(), oracle_document(variety_head(sample), sample.points))


def test_streamed_points_keep_bits_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "POINTS_CHUNK", 3)
    big, tiny = 1.7976931348623157e308, 5e-324
    fields = [("base", complex, (2,)), ("fiber", complex), ("component", "U2"),
              ("residual", float), ("interior", bool)]
    points = np.zeros(8, dtype=fields)
    # one base run over rows 0-4, across the chunk boundary at row 3, then
    # bases that differ from it only in the sign of a zero
    points["base"][:5] = [complex(-0.0, tiny), big]
    points["base"][5] = [complex(0.0, tiny), big]
    points["base"][6:] = [complex(0.0, -tiny), -big]
    points["fiber"] = [-0.0, 0.0, tiny, -tiny * 1j, big, complex(-0.0, -0.0), 0.1 + 0.2, -big]
    points["component"] = ["V1", "V1", "V0", "V0", "V1", "V0", "V1", "V1"]
    points["residual"] = [-0.0, 0.0, tiny, big, 1e-17, -0.0, 0.0, 3.0]
    points["interior"] = [True, True, False, False, True, False, True, False]
    head = {"count": len(points)}
    out = tmp_path / "points.json"
    cli.write_document(head, str(out), points=points)
    text = out.read_text()
    assert_same_text(text, oracle_document(head, points))
    back = json.loads(text)["points"]
    assert [_bits(p["base"][0][0]) for p in back[4:7]] == [_bits(-0.0), _bits(0.0), _bits(0.0)]
    empty = tmp_path / "empty.json"
    cli.write_document({}, str(empty), points=points[:0])
    assert empty.read_text() == oracle_document({}, points[:0]) == '{"points": []}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["residual", "fiber", "base"])
def test_variety_non_finite_point_exit2(field, value, triple_doc, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "POINTS_CHUNK", 4)

    def poison_last_point(sample):
        sample.points[field][-1] = value  # in the last chunk
        return sample

    recording_variety_sample(monkeypatch, poison_last_point)
    out = tmp_path / "variety.json"
    for path in (str(out), "-"):
        assert run(["variety", str(triple_doc), "--variety-grid", "3", "--out", path]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_variety_nan_max_residual_exit2(triple_doc, tmp_path, monkeypatch, capsys):
    recording_variety_sample(
        monkeypatch, lambda sample: dataclasses.replace(sample, max_residual=float("nan"))
    )
    out = tmp_path / "variety.json"
    for path in (str(out), "-"):
        assert run(["variety", str(triple_doc), "--variety-grid", "3", "--out", path]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_variety_stdout_matches_file(triple_doc, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "POINTS_CHUNK", 7)
    out = tmp_path / "variety.json"
    argv = ["variety", str(triple_doc), "--variety-grid", "3", "--out"]
    assert run(argv + [str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(argv + ["-"]) == 0
    assert capsys.readouterr().out == out.read_text()


# ---------------------------------------------------------------------------
# config plumbing


def test_run_config_defaults_are_the_library_defaults():
    config = cli.RunConfig()
    assert config.cap == default(rz.run_identity_suite, "cap")
    assert config.cert_tol == tuples.CERT_TOL
    assert config.root_tol == matcore.ROOT_TOL
    assert config.grid == default(rz.run_identity_suite, "inner_grid")
    assert config.grid == default(vn.vn_check, "grid")
    assert config.seed == default(rz.run_identity_suite, "seed")
    assert config.variety_grid == default(vn.variety_sample, "grid_per_axis")
    assert config.radius == default(vn.variety_sample, "radius")


def test_config_validation_rejects_small_grid(triple_doc):
    assert run(["verify", str(triple_doc), "--grid", "2", "--out", "-"]) == cli.EXIT_PARSE


def test_config_validation_rejects_bad_tolerance(triple_doc):
    assert run(["certify", str(triple_doc), "--tol-cert", "-1", "--out", "-"]) == cli.EXIT_PARSE


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize(
    "command, flag",
    [("certify", "--tol-cert"), ("vn", "--tol-vn"), ("variety", "--tol-root")],
)
def test_non_finite_tolerance_exit2(command, flag, value, triple_doc, tmp_path, monkeypatch):
    poly = tmp_path / "poly.txt"
    poly.write_text("z1*z2 + z3")
    argv = [command, str(triple_doc)] + ([str(poly)] if command == "vn" else [])
    out = tmp_path / "out.json"
    assert run(argv + [f"{flag}={value}", "--out", str(out)]) == cli.EXIT_PARSE
    monkeypatch.setenv("POLYDIL_" + flag[2:].upper().replace("-", "_"), value)
    assert run(argv + ["--out", str(out)]) == cli.EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "random", "--seed", "-1"],
        ["generate", "random", "--dim", "0"],
        ["generate", "random", "--margin", "1.5"],
        ["generate", "product-triple", "--d1", "0"],
        ["generate", "product-triple", "--r1", "2"],
        ["generate", "product-triple", "-j", "0"],
        ["generate", "zero-triple", "--dim", "0"],
        ["verify", None, "--seed", "-1"],
        ["variety", None, "--variety-grid", "2"],
        ["verify", None, "--cap", "0"],
        ["variety", None, "--radius", "0"],
        ["variety", None, "--radius", "1.5"],
    ],
)
def test_out_of_range_configuration_exit2(argv, triple_doc, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [str(triple_doc) if arg is None else arg for arg in argv]
    assert run(argv + ["--out", str(out)]) == cli.EXIT_PARSE
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_env_override(monkeypatch, triple_doc, tmp_path):
    monkeypatch.setenv("POLYDIL_GRID", "2")
    assert run(["verify", str(triple_doc), "--out", "-"]) == cli.EXIT_PARSE
    monkeypatch.setenv("POLYDIL_GRID", "8")
    out = tmp_path / "v.json"
    assert run(["verify", str(triple_doc), "--cap", "3", "--out", str(out)]) == 0


def test_env_override_bad_value(monkeypatch, triple_doc, tmp_path, capsys):
    out = str(tmp_path / "c.json")
    assert run(["certify", str(triple_doc), "--out", out]) == 0  # the parser is built by now
    monkeypatch.setenv("POLYDIL_SEED", "not-an-int")
    # the presets are read before the arguments, so a flag does not mask a bad one
    for argv in ([], ["--seed", "1"], ["--help"]):
        assert run(["certify", str(triple_doc), "--out", out] + argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err.count("bad value for POLYDIL_SEED") == 3
    monkeypatch.delenv("POLYDIL_SEED")
    assert run(["certify", str(triple_doc), "--seed", "1", "--out", out]) == 0


@pytest.mark.parametrize(
    "command",
    [[], ["generate"], ["certify"], ["dilate"], ["verify"], ["vn"], ["variety"]],
    ids=lambda command: command[0] if command else "top",
)
def test_cached_parser_help_matches_a_fresh_one(command, triple_doc, capsys):
    assert run(["certify", str(triple_doc), "--out", "-"]) == 0
    assert cli._parser() is cli._parser()
    texts = []
    for parse in (run, cli.build_parser().parse_args):
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            parse(command + ["--help"])
        assert info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] != ""


def test_generate_random_has_no_certificate(tmp_path):
    out = tmp_path / "rand.json"
    assert run(["generate", "random", "--dim", "3", "-n", "3", "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "certificate" not in doc
    t, g = cli.tuple_from_doc(doc)
    assert g is None and t.n == 3

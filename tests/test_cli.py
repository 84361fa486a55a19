import dataclasses
import json
import struct

import numpy as np
import pytest

from polydil import cli, realization as rz, vonneumann as vn
from polydil.errors import IsometryDefect


def run(argv):
    return cli.main(argv)


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


def test_complex_from_doc_rejects_junk():
    for bad in ([1.0], [1.0, 2.0, 3.0], ["a", "b"], 7, [True, 0.0]):
        with pytest.raises(cli.ParseError):
            cli.complex_from_doc(bad)


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


def test_certify_malformed_json_exit2(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
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


@pytest.mark.parametrize("field", [{"certificate": {"G": 5}}, {"dim": float("inf")}])
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
        raise IsometryDefect(0.5)

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
    assert {
        "generating_identity",
        "unitarity",
        "pi_isometry_defect",
        "intertwine_mz",
        "defect_embedding",
        "block_pullback_shifted",
        "block_pullback_plain",
        "adjoint_monomial",
        "colligation_pullback",
        "strict_multiplier",
        "lifting",
        "schur_identity",
        "inner_deviation",
        "inner_singular_fraction",
    } <= names
    for row in doc["checks"]:
        assert row["ok"] is True, row


def test_verify_deterministic(triple_doc, tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    run(["verify", str(triple_doc), "--cap", "3", "--grid", "8", "--out", str(out1)])
    run(["verify", str(triple_doc), "--cap", "3", "--grid", "8", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


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


# ---------------------------------------------------------------------------
# config plumbing


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


def test_env_override_bad_value(monkeypatch, triple_doc):
    monkeypatch.setenv("POLYDIL_SEED", "not-an-int")
    assert run(["certify", str(triple_doc), "--out", "-"]) == cli.EXIT_PARSE


def test_generate_random_has_no_certificate(tmp_path):
    out = tmp_path / "rand.json"
    assert run(["generate", "random", "--dim", "3", "-n", "3", "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "certificate" not in doc
    t, g = cli.tuple_from_doc(doc)
    assert g is None and t.n == 3

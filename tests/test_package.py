"""The package namespace and the layers a fresh process loads: ``import
polydil`` loads no layer, each command imports only the layers it runs, and
each public name of the package is its home module's object as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polydil
from polydil import cli

SRC = Path(polydil.__file__).resolve().parent.parent
LAZY = {"polydil.realization", "polydil.hardy", "polydil.vonneumann", "polydil.generators"}

# Runs ``python -m polydil.cli ARGS...`` in this process (exit code 0
# required), then prints the polydil modules it loaded.
RUN_CLI = """
import runpy, sys
sys.argv = ["polydil", *sys.argv[1:]]
try:
    runpy.run_module("polydil.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(name for name in sys.modules if name.startswith("polydil")))
"""


def _loaded(*args: str) -> set[str]:
    """The polydil modules a fresh interpreter holds after ``python -c`` runs
    its arguments, with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A generated product triple and a polynomial, written by the CLI."""
    work = tmp_path_factory.mktemp("documents")
    argv = ["generate", "product-triple", "--d1", "2", "--d2", "2", "--r1", "0.9", "--r2", "0.9"]
    assert cli.main([*argv, "--out", str(work / "triple.json")]) == 0
    (work / "poly.txt").write_text("z1*z2 + z3\n")
    return work


def test_bare_import_loads_no_layer():
    assert _loaded("import sys, polydil; print(*sys.modules)") & LAZY == set()


def test_submodule_attribute_resolves_in_a_fresh_process():
    out = _loaded("import sys, polydil; polydil.realization.transfer_eval; print(*sys.modules)")
    assert "polydil.realization" in out and "polydil.vonneumann" not in out


@pytest.mark.parametrize(
    "command, loaded",
    [
        (["certify", "triple.json"], set()),
        (["dilate", "triple.json"], {"polydil.realization"}),
        (["verify", "triple.json"], {"polydil.realization", "polydil.hardy"}),
        (["vn", "triple.json", "poly.txt"], {"polydil.realization", "polydil.vonneumann"}),
        (
            ["variety", "triple.json", "--variety-grid", "3"],
            {"polydil.realization", "polydil.vonneumann"},
        ),
        (["generate", "product-triple"], {"polydil.generators"}),
        (["generate", "zero-triple"], set()),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(documents, command, loaded):
    args = [str(documents / arg) if arg.endswith((".json", ".txt")) else arg for arg in command]
    out = _loaded(RUN_CLI, *args, "--out", str(documents / "out.json"))
    assert "polydil.tuples" in out  # cli itself runs as __main__
    assert out & LAZY == loaded


def test_public_names_are_their_home_modules_objects(monkeypatch):
    for name in polydil.__all__:
        if name == "__version__":
            continue
        obj = getattr(polydil, name)
        home = sys.modules[obj.__module__]
        assert obj is getattr(home, name), name
        assert name not in vars(polydil), f"{name} is cached in the package"
        sentinel = object()
        monkeypatch.setattr(home, name, sentinel)
        assert getattr(polydil, name) is sentinel, name


def test_dir_and_unknown_names():
    names = dir(polydil)
    assert "__all__" in names and "__version__" in names
    assert set(polydil.__all__) <= set(names)
    assert polydil.realization is sys.modules["polydil.realization"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polydil.no_such_name
    assert not hasattr(polydil, "realization_to_doc")

"""Numerical workbench for isometric dilations of commuting contraction
tuples on the polydisc and the variety-sharpened von Neumann inequality.

The names below resolve on first access from their home modules (PEP 562),
so ``import polydil`` loads no layer, and a process loads only the layers
it uses.  A resolved name is not cached here: ``polydil.vn_check`` is always
``polydil.vonneumann.vn_check`` as it stands, wrapped or patched.
"""

__version__ = "0.1.0"

# home module -> the public names it provides
_EXPORTS = {
    "tuples": (
        "OperatorTuple",
        "DilationCertificate",
        "last_defect_certificate",
        "conjugacy_product",
        "hat",
        "is_pure",
        "is_szego",
        "make_tuple",
        "spectral_radius",
        "szego_defect",
        "verify_certificate",
    ),
    "generators": ("last_defect_tuple", "jordan_pair", "product_triple", "random_candidate"),
    "realization": (
        "TransferRealization",
        "build_generating_unitary",
        "cnu_decomposition",
        "inner_check",
        "run_identity_suite",
        "schur_identity_residual",
        "transfer_eval",
    ),
    "vonneumann": (
        "MultiPoly",
        "eval_poly_tuple",
        "parse_poly",
        "split_transfer",
        "torus_sup",
        "variety_sample",
        "vn_check",
    ),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "hardy", "matcore"}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime reports; it binds
    # the submodule here, so a submodule resolves through this hook once
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_HOMES, *_SUBMODULES})

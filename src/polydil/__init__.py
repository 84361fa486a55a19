"""Numerical workbench for isometric dilations of commuting contraction
tuples on the polydisc and the variety-sharpened von Neumann inequality."""

from .tuples import (
    OperatorTuple,
    DilationCertificate,
    last_defect_certificate,
    conjugacy_product,
    hat,
    is_pure,
    is_szego,
    make_tuple,
    spectral_radius,
    szego_defect,
    verify_certificate,
)
from .generators import last_defect_tuple, jordan_pair, product_triple, random_candidate
from .realization import (
    TransferRealization,
    build_generating_unitary,
    cnu_decomposition,
    inner_check,
    run_identity_suite,
    schur_identity_residual,
    transfer_eval,
)
from .vonneumann import (
    MultiPoly,
    eval_poly_tuple,
    parse_poly,
    split_transfer,
    torus_sup,
    variety_sample,
    vn_check,
)

__version__ = "0.1.0"

__all__ = [
    "OperatorTuple",
    "DilationCertificate",
    "TransferRealization",
    "MultiPoly",
    "make_tuple",
    "hat",
    "szego_defect",
    "conjugacy_product",
    "is_szego",
    "is_pure",
    "spectral_radius",
    "verify_certificate",
    "last_defect_certificate",
    "jordan_pair",
    "product_triple",
    "last_defect_tuple",
    "random_candidate",
    "build_generating_unitary",
    "transfer_eval",
    "schur_identity_residual",
    "inner_check",
    "cnu_decomposition",
    "run_identity_suite",
    "parse_poly",
    "eval_poly_tuple",
    "torus_sup",
    "variety_sample",
    "vn_check",
    "split_transfer",
    "__version__",
]

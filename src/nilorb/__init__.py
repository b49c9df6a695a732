"""nilorb: exact counting of GL-conjugation orbits of nilpotent matrix tuples
over finite fields, with built-in identity verification and a brute-force
finite-field cross-check."""

__version__ = "0.1.0"

from .exactnum import (
    InexactDivisionError,
    InternalCheckError,
    PoleError,
    PolyQ,
    RationalFunctionQ,
    TruncatedQSeries,
)
from .partitions import (
    Partition,
    inner_product,
    mobius,
    monic_irreducible_count,
    partition_count,
    partitions_of,
)
from .pipeline import (
    CountingPolynomial,
    ScanReport,
    VerificationReport,
    absolutely_indecomposable_count,
    counting_value,
    indecomposable_count,
    orbit_count,
    orbit_count_series,
    scan_nonnegativity,
    verify_g1_product,
    verify_product_routes,
    verify_triple_product,
)
from .fforacle import FieldSpec, OrbitRecord, SizeGuardError

__all__ = [
    "__version__",
    "InexactDivisionError",
    "InternalCheckError",
    "PoleError",
    "PolyQ",
    "RationalFunctionQ",
    "TruncatedQSeries",
    "Partition",
    "inner_product",
    "mobius",
    "monic_irreducible_count",
    "partition_count",
    "partitions_of",
    "CountingPolynomial",
    "ScanReport",
    "VerificationReport",
    "absolutely_indecomposable_count",
    "counting_value",
    "indecomposable_count",
    "orbit_count",
    "orbit_count_series",
    "scan_nonnegativity",
    "verify_g1_product",
    "verify_product_routes",
    "verify_triple_product",
    "FieldSpec",
    "OrbitRecord",
    "SizeGuardError",
]

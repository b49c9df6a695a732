"""nilorb: exact counting of GL-conjugation orbits of nilpotent matrix tuples
over finite fields, with built-in identity verification and a brute-force
finite-field cross-check.

``import nilorb`` loads no engine module: each name below is imported from
its submodule on first access, so a command that needs only part of the
engine (a cache hit needs none of it) pays only for that part.
"""

__version__ = "0.1.0"

#: the counting-value kinds: absolutely indecomposable, indecomposable,
#: all orbits, and the log-series coefficient
KINDS = ("A", "I", "M", "H")


def poly_text(coeffs) -> str:
    """Display form of the polynomial with ascending coefficients ``coeffs``,
    each the ``str`` of an exact rational ("3", "-1/2"), in descending powers,
    e.g. ``q^4 + 3q^2 - (1/2)q``.

    It works on the strings alone, so printing a cached result needs no
    arithmetic module."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == "0":
            continue
        negative = c.startswith("-")
        body = c.lstrip("-")
        if "/" in body:
            body = f"({body})"
        if k:
            var = "q" if k == 1 else f"q^{k}"
            body = var if body == "1" else f"{body}{var}"
        if terms:
            terms.append(f"- {body}" if negative else f"+ {body}")
        else:
            terms.append(f"-{body}" if negative else body)
    return " ".join(terms) or "0"


def quotient_text(num_coeffs, den_coeffs) -> str:
    """Display form of num / den from their coefficient strings, taken as
    given (no reduction)."""
    if list(den_coeffs) == ["1"]:
        return poly_text(num_coeffs)
    return f"({poly_text(num_coeffs)}) / ({poly_text(den_coeffs)})"


_EXPORTS = {
    "exactnum": ("InexactDivisionError", "InternalCheckError", "PolyQ", "RationalFunctionQ",
                 "SizeGuardError", "mobius"),
    "partitions": ("Partition", "inner_product", "monic_irreducible_numerator",
                   "partition_count", "partitions_of"),
    "pipeline": ("CountingPolynomial", "absolutely_indecomposable_count", "counting_value",
                 "indecomposable_count", "orbit_count", "orbit_count_series"),
    "checks": ("ScanReport", "VerificationReport", "scan_nonnegativity",
               "verify_g1_product", "verify_product_routes", "verify_triple_product",
               "verify_weight_routes"),
    "fforacle": ("FieldSpec", "OrbitRecord"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    """Import an exported name from its submodule on first access."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value

"""Command-line front end.

Subcommands:

* ``compute``          -- counting polynomials (kinds A, I, M, H)
* ``verify``           -- identity checks: thm5-routes (the two orbit-count
                          constructions agree), weight-routes (the two
                          weight-series constructions agree), kwi
                          (triple-product factorization of the weight
                          series), g1-product (closed product form at tuple
                          length 1)
* ``oracle``           -- brute-force finite-field cross-checks
* ``conjecture-scan``  -- coefficient nonnegativity scan
* ``cache``            -- on-disk result cache maintenance

Exit codes: 0 success/pass, 1 verification failure, 2 usage error or
size-guard violation, 3 internal assertion failure.  JSON/CSV go to
standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

# engine modules are imported where they are used, so that a command loads
# only what it needs: a cache hit loads none of them
from . import KINDS, poly_text, quotient_text
from . import __version__ as ENGINE_VERSION

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def canonical_json(obj) -> str:
    """Canonical serialization: re-parsing and re-serializing any payload
    produced here is byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# serialization of counting values


def _poly_payload(kind: str, g: int, n: int, poly) -> dict:
    return {
        "kind": kind,
        "g": g,
        "n": n,
        "coeffs": list(poly.coefficient_texts),
        "degree": poly.degree(),
    }


def _rf_payload(kind: str, g: int, n: int, rf) -> dict:
    return {
        "kind": kind,
        "g": g,
        "n": n,
        "num_coeffs": [str(c) for c in rf.num.numerators],
        "den_coeffs": [str(c) for c in rf.den.numerators],
    }


def _report_payload(report) -> dict:
    out = {
        "identity": report.identity,
        "g": report.g,
        "x_order": report.x_order,
        "q_order": report.q_order,
        "passed": report.passed,
        "mismatch": None,
    }
    if report.mismatch is not None:
        out["mismatch"] = {
            "x_degree": report.mismatch.x_degree,
            "q_degree": report.mismatch.q_degree,
            "lhs": report.mismatch.lhs,
            "rhs": report.mismatch.rhs,
        }
    return out


def _compute_outputs(kind: str, g: int, mode: str, value: int) -> dict:
    """The deterministic payload of a compute request (no timing)."""
    from . import pipeline
    from .exactnum import PolyQ

    if kind == "H":
        ns = range(1, value + 1) if mode == "N" else [value]
        return {
            "rational_functions": [
                _rf_payload("H", g, n, pipeline.log_weight_coefficient(g, n))
                for n in ns
            ]
        }
    polys = []
    if mode == "N":
        if kind == "M":
            # generating-series convention: the X^0 term 1 leads the list
            polys.append(_poly_payload("M", g, 0, PolyQ([1])))
            for cp in pipeline.orbit_count_series(g, value):
                polys.append(_poly_payload("M", g, cp.n, cp.value))
        else:
            for n in range(1, value + 1):
                cp = pipeline.counting_value(kind, g, n)
                polys.append(_poly_payload(kind, g, n, cp.value))
    else:
        cp = pipeline.counting_value(kind, g, value)
        polys.append(_poly_payload(kind, g, value, cp.value))
    return {"polynomials": polys}


def _payload_to_pretty(kind: str, outputs: dict, single: bool) -> str:
    """Format the stored coefficient strings as they are, with the formatter
    that ``PolyQ`` and ``RationalFunctionQ`` print with; each H value is
    stored in the integer form that ``RationalFunctionQ.__str__`` prints, so
    it needs no reduction."""
    lines = []
    if kind == "H":
        for item in outputs["rational_functions"]:
            text = quotient_text(item["num_coeffs"], item["den_coeffs"])
            if single:
                return text
            lines.append(f"H_{item['g']}({item['n']},q) = {text}")
        return "\n".join(lines)
    for item in outputs["polynomials"]:
        text = poly_text(item["coeffs"])
        if single:
            return text
        lines.append(f"{item['kind']}_{item['g']}({item['n']},q) = {text}")
    return "\n".join(lines)


def _payload_to_csv(outputs: dict) -> str:
    lines = ["kind,g,n,s,coefficient"]
    for item in outputs["polynomials"]:
        for s, c in enumerate(item["coeffs"]):
            lines.append(f"{item['kind']},{item['g']},{item['n']},{s},{c}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# result cache


def _cache_root(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("NILORB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nilorb"


def _cache_file(root: Path, kind: str, g: int, mode: str, value: int) -> Path:
    return root / f"v{ENGINE_VERSION}__{kind}_g{g}_{mode}{value}.json"


# the names ``_cache_file`` gives, for every engine version: ``cache list``
# and ``cache clear`` touch no other file in the directory
_CACHE_ENTRY_GLOB = "v*__*.json"


@lru_cache(maxsize=None)
def _engine_source_digest() -> str:
    """SHA-256 over the package's ``.py`` sources, so an engine change that
    keeps its version number still invalidates every stored entry.  Computed
    on first use of the cache only."""
    # the interpreter's own SHA-256, as in the stdlib's random module:
    # hashlib loads OpenSSL, which adds about 3.5 MB to each process
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    digest = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def cache_load(root: Path, kind: str, g: int, mode: str, value: int) -> dict | None:
    """Load cached outputs; corruption, an unreadable entry, a stale engine
    version or changed engine sources mean a miss (with a warning on
    corruption or a read error), never a wrong answer."""
    path = _cache_file(root, kind, g, mode, value)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text())
        if (entry["engine_version"] != ENGINE_VERSION
                or entry.get("engine_source") != _engine_source_digest()):
            return None
        if (entry["kind"], entry["g"], entry["mode"], entry["value"]) != (kind, g, mode, value):
            raise ValueError("cache key mismatch")
        return entry["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"nilorb: ignoring unreadable cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_store(root: Path, kind: str, g: int, mode: str, value: int, outputs: dict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    entry = {
        "engine_version": ENGINE_VERSION,
        "engine_source": _engine_source_digest(),
        "kind": kind,
        "g": g,
        "mode": mode,
        "value": value,
        "outputs": outputs,
    }
    path = _cache_file(root, kind, g, mode, value)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(canonical_json(entry))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument parsing helpers


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_partition(text: str):
    from .partitions import Partition

    try:
        parts = tuple(int(p) for p in text.split(","))
        return Partition(sorted(parts, reverse=True)) if parts else Partition()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


_TERM_RE = re.compile(r"^(\d+)?(?:(x)(?:\^(\d+))?)?$")


def _parse_poly_text(text: str, q: int) -> tuple[int, ...]:
    """Parse e.g. 'x', 'x^2+x+1', 'x-1' into ascending coefficients mod p."""
    from .fforacle import FieldSpec

    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial")
    tokens = re.findall(r"[+-]?[^+-]+", compact)
    coeffs: dict[int, int] = {}
    for tok in tokens:
        sign = 1
        body = tok
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse term {tok!r} in {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            power = 0
        else:
            power = int(m.group(3)) if m.group(3) else 1
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    degree = max(coeffs)
    field = FieldSpec.of(q)
    out = [coeffs.get(k, 0) % field.p for k in range(degree + 1)]
    return tuple(out)


def _parse_perturb(text: str) -> tuple[int, int, int]:
    try:
        n, s, delta = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"perturbation must be 'n,s,delta', got {text!r}"
        )
    return n, s, delta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorb",
        description="Exact orbit counting for tuples of nilpotent matrices "
        "over finite fields under simultaneous conjugation.",
    )
    parser.add_argument("--version", action="version", version=f"nilorb {ENGINE_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a counting polynomial")
    p_compute.add_argument("--kind", required=True, choices=KINDS,
                           help="A: absolutely indecomposable, I: indecomposable, "
                                "M: all orbits, H: log-series coefficient")
    p_compute.add_argument("--g", required=True, type=_positive_int, help="tuple length")
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int, help="single matrix order")
    group.add_argument("--N", type=_positive_int, help="all matrix orders 1..N")
    p_compute.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p_compute.add_argument("--cache-dir", help="cache directory (default: $NILORB_CACHE)")
    p_compute.add_argument("--no-cache", action="store_true", help="bypass the disk cache")

    p_verify = sub.add_parser("verify", help="verify a series identity at truncation")
    p_verify.add_argument("identity", choices=("thm5-routes", "weight-routes", "kwi", "g1-product"))
    p_verify.add_argument("--g", type=_positive_int, default=1)
    p_verify.add_argument("--N", required=True, type=_positive_int, help="X truncation order")
    p_verify.add_argument("--Q", type=_positive_int, help="q truncation order")
    p_verify.add_argument("--perturb", type=_parse_perturb, metavar="n,s,delta",
                          help="deliberately corrupt one exponent (negative control)")
    p_verify.add_argument("--format", choices=("json", "pretty"), default="pretty")

    p_oracle = sub.add_parser("oracle", help="compare against brute-force enumeration")
    p_oracle.add_argument("--check", required=True,
                          choices=("M", "IA", "nilcount", "nilcount-total"))
    p_oracle.add_argument("--g", type=_positive_int)
    p_oracle.add_argument("--n", type=_positive_int)
    p_oracle.add_argument("--q", required=True, type=_positive_int, help="field size")
    p_oracle.add_argument("--lambda", dest="lam", type=_parse_partition,
                          help="partition as comma-separated parts, e.g. 2,1")
    p_oracle.add_argument("--f", help="monic polynomial over the field, e.g. x or x^2+x+1")
    p_oracle.add_argument("--format", choices=("json", "pretty"), default="pretty")

    p_scan = sub.add_parser("conjecture-scan", aliases=["conjecture_scan"],
                            help="scan counting polynomials for negative coefficients")
    p_scan.add_argument("--g", required=True, type=_positive_int)
    p_scan.add_argument("--Nmax", required=True, type=_positive_int, dest="n_max")
    p_scan.add_argument("--format", choices=("json", "pretty"), default="pretty")

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("action", choices=("path", "list", "clear"))
    p_cache.add_argument("--cache-dir", help="cache directory (default: $NILORB_CACHE)")

    return parser


# ---------------------------------------------------------------------------
# command handlers


def _envelope(command: str, parameters: dict, outputs: dict, reports: list, t0: float) -> dict:
    return {
        "command": command,
        "engine_version": ENGINE_VERSION,
        "parameters": parameters,
        "outputs": outputs,
        "reports": reports,
        "timing_ms": int((time.perf_counter() - t0) * 1000),
    }


def cmd_compute(args) -> int:
    t0 = time.perf_counter()
    mode = "n" if args.n is not None else "N"
    value = args.n if args.n is not None else args.N
    if args.kind == "H" and args.format == "csv":
        print("nilorb: csv output is only defined for polynomial kinds", file=sys.stderr)
        return EXIT_USAGE

    outputs = None
    root = _cache_root(args.cache_dir)
    if not args.no_cache:
        outputs = cache_load(root, args.kind, args.g, mode, value)
    if outputs is None:
        outputs = _compute_outputs(args.kind, args.g, mode, value)
        if not args.no_cache:
            try:
                cache_store(root, args.kind, args.g, mode, value, outputs)
            except OSError as exc:
                print(f"nilorb: result not cached in {root}: {exc}", file=sys.stderr)

    if args.format == "pretty":
        print(_payload_to_pretty(args.kind, outputs, single=(mode == "n")))
    elif args.format == "csv":
        print(_payload_to_csv(outputs))
    else:
        parameters = {"kind": args.kind, "g": args.g, mode: value}
        print(canonical_json(_envelope("compute", parameters, outputs, [], t0)))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import pipeline

    t0 = time.perf_counter()
    # the usage rules: --Q is required by the truncated identities and
    # refused by the others, --perturb is for kwi, g1-product is at g = 1
    identity, truncated = args.identity, args.identity in ("kwi", "g1-product")
    error = None
    if identity == "g1-product" and args.g != 1:
        error = "g1-product is the tuple-length-1 identity; omit --g"
    elif truncated and args.Q is None:
        error = f"{identity} needs --Q (q truncation order)"
    elif args.perturb and identity != "kwi":
        error = "--perturb applies only to the kwi identity"
    elif not truncated and args.Q is not None:
        error = f"{identity} has no q truncation; omit --Q"
    if error:
        print(f"nilorb: {error}", file=sys.stderr)
        return EXIT_USAGE
    if identity == "thm5-routes":
        report = pipeline.verify_product_routes(args.g, args.N)
    elif identity == "weight-routes":
        report = pipeline.verify_weight_routes(args.g, args.N)
    elif identity == "kwi":
        report = pipeline.verify_triple_product(args.g, args.N, args.Q, perturb=args.perturb)
    else:
        report = pipeline.verify_g1_product(args.N, args.Q)

    payload = _report_payload(report)
    if args.format == "json":
        parameters = {"identity": args.identity, "g": report.g,
                      "N": args.N, "Q": args.Q}
        print(canonical_json(_envelope("verify", parameters, {"report": payload}, [payload], t0)))
    else:
        status = "PASS" if report.passed else "FAIL"
        detail = ""
        if report.mismatch:
            m = report.mismatch
            where = f"X^{m.x_degree}" + (f", q^{m.q_degree}" if m.q_degree is not None else "")
            detail = f"  first mismatch at {where}: {m.lhs} != {m.rhs}"
        print(f"{report.identity} (g={report.g}, N={report.x_order}"
              + (f", Q={report.q_order}" if report.q_order is not None else "")
              + f"): {status}{detail}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _oracle_rows(args) -> tuple[list[dict], dict]:
    from . import fforacle, pipeline
    from .partitions import inner_product

    field = fforacle.FieldSpec.of(args.q)
    rows = []
    if args.check in ("M", "IA"):
        if args.g is None or args.n is None:
            raise ValueError(f"--check {args.check} needs --g and --n")
        if args.check == "M":
            engine = int(pipeline.orbit_count(args.g, args.n).evaluate(args.q))
            by_average = fforacle.burnside_orbit_count(field, args.n, args.g)
            by_listing = len(fforacle.orbits(field, args.n, args.g))
            rows.append({"quantity": "orbit count (Burnside average)",
                         "engine": engine, "oracle": by_average,
                         "match": engine == by_average})
            rows.append({"quantity": "orbit count (explicit orbits)",
                         "engine": engine, "oracle": by_listing,
                         "match": engine == by_listing})
        else:
            i_engine = int(pipeline.indecomposable_count(args.g, args.n).evaluate(args.q))
            a_engine = int(pipeline.absolutely_indecomposable_count(args.g, args.n).evaluate(args.q))
            i_oracle, a_oracle = fforacle.indecomposability_counts(field, args.n, args.g)
            rows.append({"quantity": "indecomposable orbit count",
                         "engine": i_engine, "oracle": i_oracle,
                         "match": i_engine == i_oracle})
            rows.append({"quantity": "absolutely indecomposable orbit count",
                         "engine": a_engine, "oracle": a_oracle,
                         "match": a_engine == a_oracle})
        params = {"check": args.check, "g": args.g, "n": args.n, "q": args.q}
    elif args.check == "nilcount":
        if args.lam is None or args.f is None:
            raise ValueError("--check nilcount needs --lambda and --f")
        f = _parse_poly_text(args.f, args.q)
        d = len(f) - 1
        formula = args.q ** (d * (inner_product(args.lam, args.lam) - args.lam.length))
        enumerated = fforacle.nilpotent_commutant_count(field, f, args.lam)
        rows.append({"quantity": "nilpotent commutant count",
                     "engine": formula, "oracle": enumerated,
                     "match": formula == enumerated})
        params = {"check": args.check, "lambda": list(args.lam.parts),
                  "f": args.f, "q": args.q}
    else:  # nilcount-total
        if args.n is None:
            raise ValueError("--check nilcount-total needs --n")
        formula = args.q ** (args.n * args.n - args.n)
        enumerated = len(fforacle.nilpotent_matrices(field, args.n))
        rows.append({"quantity": "nilpotent matrix count",
                     "engine": formula, "oracle": enumerated,
                     "match": formula == enumerated})
        params = {"check": args.check, "n": args.n, "q": args.q}
    return rows, params


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    rows, params = _oracle_rows(args)
    if args.format == "json":
        print(canonical_json(_envelope("oracle", params, {"comparisons": rows}, [], t0)))
    else:
        width = max(len(r["quantity"]) for r in rows)
        for r in rows:
            flag = "ok" if r["match"] else "MISMATCH"
            print(f"{r['quantity']:<{width}}  engine={r['engine']}  "
                  f"oracle={r['oracle']}  {flag}")
    return EXIT_OK if all(r["match"] for r in rows) else EXIT_VERIFY_FAILED


def cmd_scan(args) -> int:
    from . import pipeline

    t0 = time.perf_counter()
    report = pipeline.scan_nonnegativity(args.g, args.n_max)
    payload = {
        "g": report.g,
        "n_max": report.n_max,
        "all_nonnegative": report.all_nonnegative,
        "negative_terms": [list(t) for t in report.negative_terms],
        "polynomials": [
            _poly_payload("A", report.g, cp.n, cp.value) for cp in report.polynomials
        ],
    }
    if args.format == "json":
        params = {"g": args.g, "Nmax": args.n_max}
        print(canonical_json(_envelope("conjecture-scan", params, {"scan": payload}, [], t0)))
    else:
        for cp in report.polynomials:
            print(cp)
        if report.all_nonnegative:
            print(f"all coefficients nonnegative for n <= {report.n_max}")
        else:
            for n, s, c in report.negative_terms:
                print(f"negative coefficient at n={n}, s={s}: {c}")
    return EXIT_OK if report.all_nonnegative else EXIT_VERIFY_FAILED


def cmd_cache(args) -> int:
    root = _cache_root(args.cache_dir)
    if args.action == "path":
        print(root)
        return EXIT_OK
    if args.action == "list":
        if root.is_dir():
            for path in sorted(root.glob(_CACHE_ENTRY_GLOB)):
                print(path.name)
        return EXIT_OK
    removed = 0
    if root.is_dir():
        for path in root.glob(_CACHE_ENTRY_GLOB):
            path.unlink()
            removed += 1
    print(f"removed {removed} cache entries", file=sys.stderr)
    return EXIT_OK


_HANDLERS = {
    "compute": cmd_compute,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "conjecture-scan": cmd_scan,
    "conjecture_scan": cmd_scan,
    "cache": cmd_cache,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:  # a SizeGuardError too
        print(f"nilorb: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ArithmeticError) as exc:  # an InternalCheckError too
        print(f"nilorb: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

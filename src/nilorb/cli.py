"""Command-line front end.

Subcommands:

* ``compute``          -- counting polynomials (kinds A, I, M, H)
* ``verify``           -- identity checks (thm5-routes, weight-routes, kwi,
                          g1-product)
* ``oracle``           -- brute-force finite-field cross-checks
* ``conjecture-scan``  -- coefficient nonnegativity scan
* ``cache``            -- on-disk result cache maintenance

This module declares and runs ``compute`` and ``cache``; ``checks`` declares
and runs the other three, and no other command loads it.  So a ``compute``
hit or ``--version`` loads no module of the engine, and a miss only the chain.

Every handler returns its result as ``(passed, parameters, outputs,
reports, text)`` and raises ``ValueError`` on a usage error, or lets an
``OSError`` of the cache directory through; ``main`` alone prints it and
picks the exit code: 0 success/pass, 1 verification failure, 2 usage error,
size-guard violation or cache directory error, 3 internal assertion
failure.  A ``text`` of None means ``--format json``, printed as the
envelope.  Results go to standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
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
    if mode == "N" and kind == "M":
        # generating-series convention: the X^0 term 1 leads the list
        polys.append(_poly_payload("M", g, 0, PolyQ([1])))
    for n in range(1, value + 1) if mode == "N" else [value]:
        polys.append(_poly_payload(kind, g, n, pipeline.counting_value(kind, g, n).value))
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
    try:
        return Path.home() / ".cache" / "nilorb"
    except RuntimeError:  # no HOME and no account entry for the user
        raise ValueError("no home directory to keep the cache in: "
                         "give --cache-dir or set NILORB_CACHE") from None


def _cache_file(root: Path, kind: str, g: int, mode: str, value: int) -> Path:
    """The entry of ``--n value`` (``..._n3.json``) or ``--N value``
    (``..._upto3.json``): the two names differ in more than letter case, so
    a case-insensitive file system keeps both."""
    token = "upto" if mode == "N" else "n"
    return root / f"v{ENGINE_VERSION}__{kind}_g{g}_{token}{value}.json"


# the names ``_cache_file`` gives, for every engine version: ``cache list``
# and ``cache clear`` touch no other file in the directory
_CACHE_ENTRY_GLOB = "v*__*.json"


def _sha256():
    """A new SHA-256 object from the interpreter's own module, as in the
    stdlib's random module: hashlib loads OpenSSL, which adds about 3.5 MB to
    each process."""
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    return sha256()


@lru_cache(maxsize=None)
def _engine_source_digest() -> str:
    """SHA-256 over the package's ``.py`` sources, so an engine change that
    keeps its version number still invalidates every stored entry.  Computed
    on first use of the cache only."""
    digest = _sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _outputs_digest(outputs) -> str:
    """SHA-256 over the sorted-key compact JSON of a cache entry's outputs
    (written by json's C encoder), so an entry edited after it was stored
    is never served."""
    digest = _sha256()
    digest.update(json.dumps(outputs, sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()


def cache_load(root: Path, kind: str, g: int, mode: str, value: int) -> dict | None:
    """Load cached outputs; corruption, an unreadable entry, a stale engine
    version or changed engine sources mean a miss (with a warning on
    corruption or a read error), never a wrong answer.  Corruption includes
    outputs that parse but no longer match the digest stored with them."""
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
        if entry["outputs_sha256"] != _outputs_digest(entry["outputs"]):
            raise ValueError("outputs digest mismatch")
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
        "outputs_sha256": _outputs_digest(outputs),
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


#: every subcommand, in the order ``--help`` lists them: (name, aliases, help)
_COMMANDS = (
    ("compute", (), "compute a counting polynomial"),
    ("verify", (), "verify a series identity at truncation"),
    ("oracle", (), "compare against brute-force enumeration"),
    ("conjecture-scan", ("conjecture_scan",),
     "scan counting polynomials for negative coefficients"),
    ("cache", (), "inspect or clear the result cache"),
)
#: the subcommands that ``checks`` declares and runs; no other loads it
_CHECK_COMMANDS = ("verify", "oracle", "conjecture-scan")


def _add_arguments(command: str, p: argparse.ArgumentParser) -> None:
    if command == "compute":
        p.add_argument("--kind", required=True, choices=KINDS,
                       help="A: absolutely indecomposable, I: indecomposable, "
                            "M: all orbits, H: log-series coefficient")
        p.add_argument("--g", required=True, type=_positive_int, help="tuple length")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--n", type=_positive_int, help="single matrix order")
        group.add_argument("--N", type=_positive_int, help="all matrix orders 1..N")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        p.add_argument("--cache-dir", help="cache directory (default: $NILORB_CACHE)")
        p.add_argument("--no-cache", action="store_true", help="bypass the disk cache")
        p.set_defaults(handler=cmd_compute, command=command)
    else:  # cache
        p.add_argument("action", choices=("path", "list", "clear"))
        p.add_argument("--cache-dir", help="cache directory (default: $NILORB_CACHE)")
        p.set_defaults(handler=cmd_cache, command=command)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is registered, but only
    ``command`` (a name or an alias) gets its arguments: parsing one command
    builds none of the others' and, unless it is a check, loads no
    ``checks``.  The command's subparser sets its handler and its canonical
    name as the defaults ``handler`` and ``command``, so the alias it was
    given as is overwritten."""
    parser = argparse.ArgumentParser(
        prog="nilorb",
        description="Exact orbit counting for tuples of nilpotent matrices "
        "over finite fields under simultaneous conjugation.",
    )
    parser.add_argument("--version", action="version", version=f"nilorb {ENGINE_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, aliases, text in _COMMANDS:
        p = sub.add_parser(name, aliases=list(aliases), help=text)
        if command == name or command in aliases:
            if name in _CHECK_COMMANDS:
                from . import checks

                checks.add_arguments(name, p)
            else:
                _add_arguments(name, p)
    return parser


# ---------------------------------------------------------------------------
# command handlers


def cmd_compute(args) -> tuple:
    mode = "n" if args.n is not None else "N"
    value = args.n if args.n is not None else args.N
    if args.kind == "H" and args.format == "csv":
        raise ValueError("csv output is only defined for polynomial kinds")

    key = (args.kind, args.g, mode, value)
    if args.no_cache:
        outputs = _compute_outputs(*key)
    else:
        root = _cache_root(args.cache_dir)
        outputs = cache_load(root, *key)
        if outputs is None:
            outputs = _compute_outputs(*key)
            try:
                cache_store(root, *key, outputs)
            except OSError as exc:
                print(f"nilorb: result not cached in {root}: {exc}", file=sys.stderr)

    text = None
    if args.format == "pretty":
        text = _payload_to_pretty(args.kind, outputs, single=(mode == "n"))
    elif args.format == "csv":
        text = _payload_to_csv(outputs)
    return True, {"kind": args.kind, "g": args.g, mode: value}, outputs, [], text


def cmd_cache(args) -> tuple:
    root = _cache_root(args.cache_dir)
    if args.action == "path":
        return True, {}, {}, [], str(root)
    entries = sorted(root.glob(_CACHE_ENTRY_GLOB)) if root.is_dir() else []
    if args.action == "list":
        return True, {}, {}, [], "\n".join(path.name for path in entries)
    for path in entries:
        path.unlink()
    print(f"removed {len(entries)} cache entries", file=sys.stderr)
    return True, {}, {}, [], ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option values, so its first other word is the
    # subcommand
    command = next((word for word in argv if not word.startswith("-")), None)
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    t0 = time.perf_counter()
    try:
        passed, parameters, outputs, reports, text = args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:  # a SizeGuardError too
        print(f"nilorb: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ArithmeticError) as exc:  # an InternalCheckError too
        print(f"nilorb: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if text is None:
        print(canonical_json({
            "command": args.command,
            "engine_version": ENGINE_VERSION,
            "parameters": parameters,
            "outputs": outputs,
            "reports": reports,
            "timing_ms": int((time.perf_counter() - t0) * 1000),
        }))
    elif text:
        print(text)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

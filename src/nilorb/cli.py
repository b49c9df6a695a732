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
``_parse`` reads the command line from the command table by hand, with no
option-parsing library (none loads ``gettext`` or ``locale`` either), and
``clihelp`` writes ``--help`` from the same table.

Every handler returns its result as ``(passed, parameters, outputs,
reports, text)`` and raises ``ValueError`` on a usage error, or lets an
``OSError`` of the cache directory through; ``main`` alone prints it and
picks the exit code: 0 success/pass, 1 verification failure, 2 usage error,
size-guard violation, cache directory error, a request too large for the
memory or a result that standard output refused, 3 internal assertion
failure.  A ``text`` of None means ``--format json``, printed as the
envelope.  Results go to standard output, which ``main`` flushes before it
picks the code; diagnostics go to standard error, and one that cannot be
written is dropped.  ``entry``, which ``python -m nilorb`` and the
``nilorb`` script call, then runs the exit functions, flushes both streams
and leaves by ``os._exit``: the interpreter's teardown, about 13% of a
cache hit's time, would only free what the process is about to drop.
``main`` called in process keeps the normal exit.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

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


def _say(line: str) -> None:
    """Print the diagnostic ``line`` on standard error.  One that cannot be
    written is dropped: it changes neither the result nor the exit code."""
    if sys.stderr is not None:  # None: started with descriptor 2 closed
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# printing of stored payloads


def _payload_to_pretty(kind: str, outputs: dict, single: bool) -> str:
    """Format the stored coefficient strings as they are, with the formatter
    that the counts and ``RationalFunctionQ`` print with; each H value is
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


def _sha256(chunks) -> str:
    """The hex SHA-256 of the bytes ``chunks`` in turn, from the
    interpreter's own module, as in the stdlib's random module: hashlib
    loads OpenSSL, which adds about 3.5 MB to each process."""
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    digest = sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


@lru_cache(maxsize=None)
def _engine_source_digest() -> str:
    """SHA-256 over the package's ``.py`` sources, so an engine change that
    keeps its version number still invalidates every stored entry.  Computed
    on first use of the cache only."""
    return _sha256(path.name.encode() + b"\0" + path.read_bytes() + b"\0"
                   for path in sorted(Path(__file__).parent.glob("*.py")))


def _entry_digest(kind: str, g: int, mode: str, value: int, outputs) -> str:
    """SHA-256 over the sorted-key compact JSON (json's C encoder) of a
    request's key and its outputs, so an entry is served only for the key it
    was stored under, and only as it was stored."""
    return _sha256([json.dumps([kind, g, mode, value, outputs], sort_keys=True,
                               separators=(",", ":")).encode()])


def cache_load(root: Path, kind: str, g: int, mode: str, value: int) -> dict | None:
    """Load cached outputs, or None on a miss; never a wrong answer, and no
    file content raises.  An entry stored by other engine sources is a
    silent miss.  Anything else wrong is a miss with a warning: a read
    error, JSON that is not an entry, or a digest that does not match the
    requested key and the stored outputs (an edited coefficient, an entry
    copied from another key's name)."""
    path = _cache_file(root, kind, g, mode, value)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text())
        if type(entry) is not dict:
            raise ValueError("not a JSON object")
        if entry["engine_source"] != _engine_source_digest():
            return None
        if entry["sha256"] != _entry_digest(kind, g, mode, value, entry["outputs"]):
            raise ValueError("outputs digest mismatch")
        return entry["outputs"]
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        _say(f"nilorb: ignoring unreadable cache entry {path}: {exc}")
        return None


def cache_store(root: Path, kind: str, g: int, mode: str, value: int, outputs: dict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    entry = {"engine_source": _engine_source_digest(), "outputs": outputs,
             "sha256": _entry_digest(kind, g, mode, value, outputs)}
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
# command handlers


def cmd_compute(args) -> tuple:
    if (args.n is None) == (args.N is None):
        raise ValueError("give exactly one of --n and --N")
    mode = "n" if args.n is not None else "N"
    value = args.n if args.n is not None else args.N
    if args.kind == "H" and args.format == "csv":
        raise ValueError("csv output is only defined for polynomial kinds")

    key = (args.kind, args.g, mode, value)
    root = None if args.no_cache else _cache_root(args.cache_dir)
    outputs = None if root is None else cache_load(root, *key)
    if outputs is None:
        from .pipeline import request_outputs

        outputs = request_outputs(*key)
        if root is not None:
            try:
                cache_store(root, *key, outputs)
            except OSError as exc:
                _say(f"nilorb: result not cached in {root}: {exc}")

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
    # one entry that cannot be removed stops no other; each is named after
    # the count of those removed
    failures = []
    for path in entries:
        try:
            path.unlink()
        except OSError as exc:
            failures.append(str(exc))
    _say(f"removed {len(entries) - len(failures)} cache entries")
    if failures:
        raise OSError("\n".join(failures))
    return True, {}, {}, [], ""


# ---------------------------------------------------------------------------
# the command table and its parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _option(flag: str, type=str, *, choices=None, required=False, default=None,
            dest=None, help="") -> SimpleNamespace:
    """One argument of a command: an option, given as ``flag value`` or
    ``flag=value``, or, where ``flag`` has no leading ``--``, the command's
    positional argument, given as a bare word.  ``type`` converts the value
    (raising ``ValueError`` on a bad one) and ``choices``, if given, limits
    it; the type ``bool`` makes a switch, which takes no value.  The value
    is the attribute ``dest`` of the parsed namespace, by default the flag's
    name with ``_`` for ``-``."""
    return SimpleNamespace(flag=flag, type=type, choices=choices, required=required,
                           default=default, help=help,
                           dest=dest or flag.lstrip("-").replace("-", "_"))


#: every command, in the order ``--help`` lists them: (name, aliases, help)
_COMMANDS = (
    ("compute", (), "compute a counting polynomial"),
    ("verify", (), "verify a series identity at truncation"),
    ("oracle", (), "compare against brute-force enumeration"),
    ("conjecture-scan", ("conjecture_scan",),
     "scan counting polynomials for negative coefficients"),
    ("cache", (), "inspect or clear the result cache"),
)
#: the commands whose handlers and arguments ``checks.arguments`` gives; no
#: other command loads it
_CHECK_COMMANDS = ("verify", "oracle", "conjecture-scan")

_CACHE_DIR = _option("--cache-dir", help="cache directory (default: $NILORB_CACHE)")
#: the handler and the arguments of each other command
_ARGUMENTS = {
    "compute": (cmd_compute, (
        _option("--kind", choices=KINDS, required=True,
                help="A: absolutely indecomposable, I: indecomposable, "
                     "M: all orbits, H: log-series coefficient"),
        _option("--g", _positive_int, required=True, help="tuple length"),
        _option("--n", _positive_int, help="single matrix order (give --n or --N)"),
        _option("--N", _positive_int, help="all matrix orders 1..N (give --n or --N)"),
        _option("--format", choices=("json", "csv", "pretty"), default="pretty",
                help="output format (default pretty)"),
        _CACHE_DIR,
        _option("--no-cache", bool, default=False, help="bypass the disk cache"),
    )),
    "cache": (cmd_cache, (
        _option("action", choices=("path", "list", "clear"), required=True,
                help="print the directory, list its entries or remove them"),
        _CACHE_DIR,
    )),
}


def _printing(text: str) -> SimpleNamespace:
    """The parse of ``--help`` or ``--version``: its handler passes with
    ``text`` to print."""
    return SimpleNamespace(handler=lambda args: (True, {}, {}, [], text))


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command line ``argv`` as a namespace: the value of each argument
    of its command (the default where none is given), the ``handler`` that
    runs it and the command's canonical name ``command``.  An option is
    named exactly, never by a prefix, an empty value is no value, and its
    last occurrence wins.  Every usage error raises ``ValueError``."""
    word = argv[0] if argv else None
    if word == "--version":
        return _printing(f"nilorb {ENGINE_VERSION}")
    if word in ("-h", "--help"):
        from .clihelp import top_help

        return _printing(top_help(_COMMANDS))
    row = next((row for row in _COMMANDS if word == row[0] or word in row[1]), None)
    if row is None:
        raise ValueError(("missing command" if word is None else f"unknown command {word!r}")
                         + f": choose from {', '.join(name for name, _, _ in _COMMANDS)}")
    if row[0] in _CHECK_COMMANDS:
        from . import checks

        handler, arguments = checks.arguments(row[0])
    else:
        handler, arguments = _ARGUMENTS[row[0]]
    args = SimpleNamespace(handler=handler, command=row[0],
                           **{a.dest: a.default for a in arguments})
    by_flag = {a.flag: a for a in arguments}
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            from .clihelp import command_help

            return _printing(command_help(row, arguments))
        if word.startswith("-"):
            flag, has_value, value = word.partition("=")
            arg = by_flag.get(flag)
            if arg is None:
                raise ValueError(f"unknown option {flag!r}")
            if arg.type is bool:
                if has_value:
                    raise ValueError(f"{flag} takes no value")
                setattr(args, arg.dest, True)
                continue
            if not has_value:
                value = next(words, "")
            if not value or not has_value and value.startswith("--"):
                raise ValueError(f"{flag} needs a value")
        else:
            arg, value = next((a for a in arguments if a.flag[0] != "-"), None), word
            if arg is None or getattr(args, arg.dest) is not None:
                raise ValueError(f"unexpected argument {word!r}")
        try:
            converted = arg.type(value)
        except ValueError as exc:
            raise ValueError(f"argument {arg.flag}: {exc}") from None
        if arg.choices is not None and converted not in arg.choices:
            raise ValueError(f"argument {arg.flag}: invalid choice {value!r} "
                             f"(choose from {', '.join(arg.choices)})")
        setattr(args, arg.dest, converted)
    missing = [a.flag for a in arguments if a.required and getattr(args, a.dest) is None]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        t0 = time.perf_counter()
        passed, parameters, outputs, reports, text = args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # a SizeGuardError too
        # a line for each problem: ``cache clear`` names every entry it left
        for line in (str(exc) or "out of memory").split("\n"):
            _say(f"nilorb: {line}")
        return EXIT_USAGE
    except (AssertionError, ArithmeticError) as exc:  # an InternalCheckError too
        _say(f"nilorb: internal assertion failed: {exc}")
        return EXIT_INTERNAL
    if text is None:
        text = canonical_json({
            "command": args.command,
            "engine_version": ENGINE_VERSION,
            "parameters": parameters,
            "outputs": outputs,
            "reports": reports,
            "timing_ms": int((time.perf_counter() - t0) * 1000),
        })
    out = sys.stdout
    try:
        if out is None:  # started with descriptor 1 closed
            raise OSError("standard output is closed")
        if text:
            print(text, file=out)
        out.flush()
    except OSError as exc:
        if out is not None:
            # what standard output still holds would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        _say(f"nilorb: cannot write the result: {exc}")
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def entry() -> None:
    """Run ``main`` as the whole process, as ``python -m nilorb`` and the
    ``nilorb`` script do, and end it without the interpreter's teardown:
    the registered exit functions run (a coverage or start-up hook among
    them), then standard output and error are flushed, in the order the
    interpreter keeps, so that what an exit function writes is not lost,
    and ``os._exit`` leaves with main's code."""
    code = main()
    import atexit

    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:  # a result main reported, or a dropped diagnostic
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()

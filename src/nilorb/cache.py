"""The on-disk result cache of ``compute``.

An entry is one JSON file per request, named by ``_cache_file`` after the
engine version and the request's key, and holding
``{"engine_source", "outputs", "sha256"}``: the digest of the package's
sources and one digest over the key and the outputs.  ``cache_load`` serves
an entry only for the key it was stored under, only as it was stored and
only to the sources that stored it; ``cache_store`` replaces an entry
atomically.  Only a ``compute`` that uses the cache and the ``cache``
command load this module, so a ``--no-cache`` miss or ``--version``
compiles none of it.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

from . import __version__ as ENGINE_VERSION
from .cli import _say, canonical_json


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

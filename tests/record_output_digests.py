"""The SHA-256 of every A, I, M and H payload on a grid of real sizes.

Each digest is taken over the sorted-key compact JSON of
``pipeline.request_outputs(kind, g, "N", N)``, one per request, and
``output_digests.json`` beside this file holds them; the tier-1 test
``test_outputs_match_their_committed_digests`` recomputes each from cold
and compares exactly.  Rewrite the file only when an output changes on
purpose, from the root of a source checkout::

    PYTHONPATH=src python3 tests/record_output_digests.py
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path

from nilorb import pipeline

#: (g, N) of each request: every kind at every point, n = 1..N
GRID = ((1, 14), (2, 24), (3, 20), (4, 12), (5, 16), (7, 8))
KINDS = ("A", "I", "M", "H")
DIGESTS = Path(__file__).with_name("output_digests.json")


def output_digests() -> dict[str, str]:
    """The digest of each request on the grid, in this interpreter."""
    digests = {}
    for g, order in GRID:
        for kind in KINDS:
            payload = pipeline.request_outputs(kind, g, "N", order)
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            digests[f"{kind} g={g} N={order}"] = sha256(text.encode()).hexdigest()
    return digests


def changed_requests() -> list[str]:
    """The requests whose digest differs from the committed one, or that
    only one side has."""
    committed = json.loads(DIGESTS.read_text())
    computed = output_digests()
    return sorted(name for name in committed.keys() | computed.keys()
                  if committed.get(name) != computed.get(name))


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(output_digests(), indent=1) + "\n")
    print(f"wrote {len(GRID) * len(KINDS)} digests to {DIGESTS}")

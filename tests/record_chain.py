"""What the chain outputs, and how many polynomial products it makes, at
fixed requests.

``chain_record.json`` beside this file holds one row per request of
``SESSIONS``: ``sha256``, the SHA-256 of the sorted-key compact JSON of
``pipeline.request_outputs(kind, g, mode, value)``; ``products``, the
calls of ``PolyQ.__mul__`` with two nonzero ``PolyQ`` operands that the
request made; and ``coefficient_products``, the sum of len(a) * len(b)
over those calls.  Each session starts from an empty ``pipeline._MEMOS``
and runs its requests in order, so a row counts the work its request adds
to the requests before it in its session.  The tier-1 test
``test_chain_matches_its_committed_record`` records every row in a fresh
interpreter and compares each field exactly.  Rewrite the file only when
an output or a count changes on purpose, from the root of a source
checkout::

    PYTHONPATH=src python3 tests/record_chain.py
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path

from nilorb import pipeline
from nilorb.exactnum import PolyQ

#: (kind, g, mode, value) of each request, one tuple per session: A, I, M
#: and H to n = N at each of six (g, N); each request of the benchmark's
#: cold-chain workload alone; and M to n = 22 at g = 3 alone
SESSIONS = (
    *(tuple((kind, g, "N", order) for kind in "AIMH")
      for g, order in ((1, 14), (2, 24), (3, 20), (4, 12), (5, 16), (7, 8))),
    *((request,) for request in (("A", 2, "N", 9), ("I", 2, "N", 9), ("M", 2, "N", 9),
                                 ("H", 2, "N", 9), ("A", 2, "n", 11), ("A", 3, "n", 9),
                                 ("A", 5, "n", 7), ("M", 3, "N", 7))),
    (("M", 3, "N", 22),),
)
RECORD = Path(__file__).with_name("chain_record.json")


def record() -> dict[str, dict]:
    """The row of each request of ``SESSIONS``, in this interpreter."""
    counts = [0, 0]
    multiply = PolyQ.__mul__

    def counting(a, b):
        if isinstance(b, PolyQ) and a.numerators and b.numerators:
            counts[0] += 1
            counts[1] += len(a.numerators) * len(b.numerators)
        return multiply(a, b)

    rows = {}
    PolyQ.__mul__ = counting
    try:
        for session in SESSIONS:
            pipeline._MEMOS.clear()
            for kind, g, mode, value in session:
                counts[:] = 0, 0
                payload = pipeline.request_outputs(kind, g, mode, value)
                text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                rows[f"{kind} g={g} {mode}={value}"] = {
                    "sha256": sha256(text.encode()).hexdigest(),
                    "products": counts[0], "coefficient_products": counts[1]}
    finally:
        PolyQ.__mul__ = multiply
    return rows


def changes() -> dict[str, dict[str, list]]:
    """Each row whose record differs from the committed one, or that only
    one side has, in record order: each field that moved, with its
    committed and its recorded value (None where a side has no such row)."""
    committed, recorded = json.loads(RECORD.read_text()), record()
    moved = {}
    for row in dict.fromkeys([*committed, *recorded]):
        old, new = committed.get(row, {}), recorded.get(row, {})
        fields = {field: [old.get(field), new.get(field)] for field in dict.fromkeys([*old, *new])
                  if old.get(field) != new.get(field)}
        if fields:
            moved[row] = fields
    return moved


if __name__ == "__main__":
    rows = record()
    lines = (f" {json.dumps(row)}: {json.dumps(fields)}" for row, fields in rows.items())
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(rows)} rows to {RECORD}")

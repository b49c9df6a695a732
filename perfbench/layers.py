"""Time calls into each layer's public functions, in one fresh process.

    python perfbench/layers.py CACHE_DIR

prints one JSON object ``{metric: seconds}``.  ``nilorb`` must be importable
(PYTHONPATH=src); CACHE_DIR must not exist yet.

The probes are fixed, so the numbers compare across commits.  They run in
dependency order and the engine memoises its stages, so each stage's time
is its own: the log stage finds the weight series already built, A finds
the log coefficients, and so on.  A fresh process starts every run with
empty memos.
"""

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

# chain stages, as in `compute --kind M --g 2 --N 8`
CHAIN_G, CHAIN_N = 2, 8
# verifiers, as in `verify thm5-routes --g 3 --N 6`, `verify kwi --g 2 --N 5 --Q 20`
# and `verify g1-product --N 8 --Q 30`
ROUTES = (3, 6)
KWI = (2, 5, 20)
G1 = (8, 30)
# brute-force oracle at 3x3 over F_2 with pairs of matrices
ORACLE_Q, ORACLE_N, ORACLE_G = 2, 3, 2
NILCOUNT = (((0, 1), (2, 1), 3), ((1, 1, 1), (2,), 2))  # (f, lambda, q)
# cache layer: repetitions of each in-process call
CACHE_REPS = 5


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main() -> int:
    cache_dir = sys.argv[1]
    out = {}

    t0 = time.perf_counter()
    from nilorb import cli, fforacle, pipeline
    from nilorb.partitions import Partition

    out["setup.import_s"] = time.perf_counter() - t0

    g, n_max = CHAIN_G, CHAIN_N
    ns = range(1, n_max + 1)
    _, out["pipeline.weight_series_s"] = _timed(pipeline.weight_series, g, n_max)
    _, out["pipeline.log_s"] = _timed(lambda: [pipeline.log_weight_coefficient(g, n) for n in ns])
    _, out["pipeline.A_s"] = _timed(lambda: [pipeline.absolutely_indecomposable_count(g, n) for n in ns])
    _, out["pipeline.I_s"] = _timed(lambda: [pipeline.indecomposable_count(g, n) for n in ns])
    _, out["pipeline.M_s"] = _timed(pipeline.orbit_count_series, g, n_max)

    reports = []
    report, out["pipeline.verify_routes_s"] = _timed(pipeline.verify_product_routes, *ROUTES)
    reports.append(report)
    report, out["pipeline.kwi_s"] = _timed(pipeline.verify_triple_product, *KWI)
    reports.append(report)
    report, out["pipeline.g1_s"] = _timed(pipeline.verify_g1_product, *G1)
    reports.append(report)
    if not all(r.passed for r in reports):
        raise SystemExit("a verifier probe failed")

    field = fforacle.FieldSpec.of(ORACLE_Q)
    burnside, out["fforacle.burnside_s"] = _timed(
        fforacle.burnside_orbit_count, field, ORACLE_N, ORACLE_G)
    records, out["fforacle.orbits_s"] = _timed(fforacle.orbits, field, ORACLE_N, ORACLE_G)
    _, out["fforacle.classify_s"] = _timed(
        fforacle.indecomposability_counts, field, ORACLE_N, ORACLE_G)
    if burnside != len(records):
        raise SystemExit("oracle probes disagree on the orbit count")
    t0 = time.perf_counter()
    for f, lam, q in NILCOUNT:
        fforacle.nilpotent_commutant_count(fforacle.FieldSpec.of(q), f, Partition(lam))
    out["fforacle.nilcount_s"] = time.perf_counter() - t0

    # the cache layer, on the entry `compute --kind M --g 2 --N 8` stores
    key = ("M", CHAIN_G, "N", CHAIN_N)
    args = ["compute", "--kind", "M", "--g", str(CHAIN_G), "--N", str(CHAIN_N),
            "--cache-dir", cache_dir]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        if cli.main(args + ["--format", "json"]) != 0:
            raise SystemExit("compute probe failed")
    root = Path(cache_dir)
    loads, stores, hits = [], [], []
    for _ in range(CACHE_REPS):
        outputs, seconds = _timed(cli.cache_load, root, *key)
        if outputs is None:
            raise SystemExit("cache probe missed a stored entry")
        loads.append(seconds)
        _, seconds = _timed(cli.cache_store, root / "rewrite", *key, outputs)
        stores.append(seconds)
        for fmt in ("pretty", "json", "csv"):
            with contextlib.redirect_stdout(sink):
                code, seconds = _timed(cli.main, args + ["--format", fmt])
            if code != 0:
                raise SystemExit("cache-hit probe failed")
            hits.append(seconds)
    out["cli.cache_load_s"] = statistics.median(loads)
    out["cli.cache_store_s"] = statistics.median(stores)
    out["cli.main_hit_s"] = statistics.median(hits)

    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

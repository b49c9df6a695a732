import json
import subprocess
import sys

import pytest

from nilorb import checks, cli
from nilorb.exactnum import SizeGuardError
from nilorb.partitions import partition_count

# ---------------------------------------------------------------------------
# the cost guard of verify weight-routes


def test_weight_routes_refuses_sizes_past_its_guard(capsys, monkeypatch):
    def reached(g, order):
        raise LookupError(f"the routes ran at N={order}")

    # the guard refuses before any route runs, and lets N = 26 through
    monkeypatch.setattr(checks, "_column_rows", reached)
    assert sum(partition_count(n) for n in range(1, 27)) == 11731
    with pytest.raises(LookupError, match="N=26"):
        checks.verify_weight_routes(5, 26)
    with pytest.raises(SizeGuardError, match="N=27 weighs 14741 partitions"):
        checks.verify_weight_routes(2, 27)
    code = cli.main(["verify", "weight-routes", "--g", "2", "--N", "40"])
    assert (code, *capsys.readouterr()) == (2, "", "nilorb: weight-routes at N=40 weighs "
                                            "14741 partitions up to n=27, beyond the guard "
                                            "of 12000\n")


def test_weight_routes_guard_counts_no_further_than_it_must(nilorb_env):
    # the guard stops at the first n whose running total passes it, so a
    # huge N costs no more than N = 27
    proc = subprocess.run([sys.executable, "-m", "nilorb", "verify", "weight-routes",
                           "--g", "2", "--N", "1000000000"],
                          capture_output=True, text=True, env=nilorb_env, timeout=1)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("nilorb: weight-routes at N=1000000000 weighs 14741 partitions "
                           "up to n=27, beyond the guard of 12000\n")


def test_products_refuse_windows_past_their_guard(capsys, monkeypatch):
    def reached(*args):
        raise LookupError("the product's work began")

    # the guard refuses before the exponent tables or the weight series are
    # built, and lets N * Q = 16,000 through
    monkeypatch.setattr(checks, "absolutely_indecomposable_count", reached)
    monkeypatch.setattr(checks, "_product_check", reached)
    for verify in (lambda n, q: checks.verify_triple_product(2, n, q), checks.verify_g1_product):
        with pytest.raises(LookupError):
            verify(16, 1000)
        with pytest.raises(SizeGuardError, match="N=1, Q=16001 .* N\\*Q = 16001 coefficients"):
            verify(1, 16001)
    code = cli.main(["verify", "g1-product", "--N", "200", "--Q", "40000"])
    assert (code, *capsys.readouterr()) == (
        2, "", "nilorb: g1-product at N=200, Q=40000 multiplies in a window of N*Q = 8000000 "
        "coefficients, beyond the guard of 16000\n")


def test_products_refuse_chains_past_their_guard(capsys, monkeypatch):
    def reached(*args):
        raise LookupError("the chain's work began")

    # the guard reads g and N alone, so it refuses before A or the weight
    # series is built, and lets g * N^3 = 44,000 through
    monkeypatch.setattr(checks, "absolutely_indecomposable_count", reached)
    monkeypatch.setattr(checks, "weight_series", reached)
    for g, n in ((44, 10), (2, 28)):
        with pytest.raises(LookupError):
            checks.verify_triple_product(g, n, 1)
    with pytest.raises(LookupError):
        checks.verify_g1_product(35, 1)
    with pytest.raises(SizeGuardError, match="^kwi at g=2, N=40 .* g\\*N\\^3 = 128000, "):
        checks.verify_triple_product(2, 40, 100)
    with pytest.raises(SizeGuardError, match="^g1-product at g=1, N=36 .* g\\*N\\^3 = 46656, "):
        checks.verify_g1_product(36, 1)
    code = cli.main(["verify", "g1-product", "--N", "60", "--Q", "60"])
    assert (code, *capsys.readouterr()) == (
        2, "", "nilorb: g1-product at g=1, N=60 builds the chain to X^60 at g*N^3 = 216000, "
        "beyond the guard of 44000\n")


def test_orbit_routes_and_scan_refuse_chains_past_their_guard(capsys, monkeypatch):
    def reached(*args):
        raise LookupError("the chain's work began")

    # thm5-routes and conjecture-scan read g and N alone too, so they refuse
    # before log M or A is built, and let g * N^3 = 44,000 through
    monkeypatch.setattr(checks, "_log_orbit_component_coefficient", reached)
    monkeypatch.setattr(checks, "_orbit_log_mismatch", reached)
    monkeypatch.setattr(checks, "absolutely_indecomposable_count", reached)
    for g, n in ((44, 10), (2, 28)):
        with pytest.raises(LookupError):
            checks.verify_product_routes(g, n)
        with pytest.raises(LookupError):
            checks.scan_nonnegativity(g, n)
    with pytest.raises(SizeGuardError,
                       match="^thm5-routes at g=2, N=29 .* g\\*N\\^3 = 48778, "):
        checks.verify_product_routes(2, 29)
    with pytest.raises(SizeGuardError,
                       match="^conjecture-scan at g=45, N=10 .* g\\*N\\^3 = 45000, "):
        checks.scan_nonnegativity(45, 10)
    for argv, message in (
            (["verify", "thm5-routes", "--g", "2", "--N", "32"],
             "thm5-routes at g=2, N=32 builds the chain to X^32 at g*N^3 = 65536"),
            (["conjecture-scan", "--g", "2", "--Nmax", "36"],
             "conjecture-scan at g=2, N=36 builds the chain to X^36 at g*N^3 = 93312")):
        code = cli.main(argv)
        assert (code, *capsys.readouterr()) == (
            2, "", f"nilorb: {message}, beyond the guard of 44000\n")


# ---------------------------------------------------------------------------
# each check stays off the route it checks, observed in fresh interpreters

# Runs one check under sys.setprofile and prints its violations: the calls
# into the checked route that the check made, each with the calls it ran in.
# A memoised function that hits its memo runs no Python frame, so each
# memoised function of the chain is first replaced by a plain function of the
# same name that calls it; then every call shows.  argv: the check, and 1 to
# tangle it with the route it checks (the negative control).
_ROUTE_PROBE = r"""
import json, sys
from nilorb import checks, partitions, pipeline, series

check, tangle = sys.argv[1], sys.argv[2] == "1"
CHAIN = (pipeline, partitions, series)
chain_names = {obj.__name__ for m in CHAIN for obj in vars(m).values()
               if callable(obj) and not isinstance(obj, type)
               and getattr(obj, "__module__", None) == m.__name__}

def visible(fn):
    def call(*args):
        return fn(*args)
    call.__code__ = call.__code__.replace(co_name=fn.__name__)
    return call

plain = {}
for module in (*CHAIN, checks):
    for name, obj in list(vars(module).items()):
        if hasattr(obj, "cache_info") and obj.__module__ in {m.__name__ for m in CHAIN}:
            setattr(module, name, plain.setdefault(obj, visible(obj)))

def tangled(module, name, route):
    fn = getattr(module, name)
    def call(*args):
        route()
        return fn(*args)
    setattr(module, name, call)

def trace(fn, *args):
    calls, stack = [], []
    def profile(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_name, tuple(stack)))
            stack.append(frame.f_code.co_name)
        elif event == "return" and stack:
            stack.pop()
    sys.setprofile(profile)
    try:
        report = fn(*args)
    finally:
        sys.setprofile(None)
    assert report.passed, report
    return calls

if check == "weight-routes":
    # the partition route never reaches the column route
    if tangle:
        tangled(pipeline, "orbit_weight", lambda: partitions.q_binomial(2, 1))
    calls = trace(checks.verify_weight_routes, 2, 8)
    bad = [c for c in calls if c[0] in {"column_sum", "column_weight", "q_binomial"}
           and "_partition_weight" in c[1]]
    witness = (sum(c[0] == "_partition_weight" for c in calls) == 8
               and any(c[0] == "column_weight" for c in calls))
elif check == "thm5-routes":
    # the product route to log M never reaches I
    if tangle:
        tangled(pipeline, "monic_irreducible_numerator",
                lambda: pipeline.indecomposable_count(2, 1))
    calls = trace(checks.verify_product_routes, 2, 5)
    bad = [c for c in calls if c[0] == "indecomposable_count"
           and "_log_orbit_product_coefficient" in c[1]]
    witness = (sum(c[0] == "_log_orbit_product_coefficient" for c in calls) == 5
               and any(c[0] == "indecomposable_count" for c in calls))
elif check == "kwi":
    # past fetching A's coefficients, the product side takes no log and no exp
    if tangle:
        tangled(checks, "_bi_mul_power", lambda: pipeline._log_numerators(2, 1))
    calls = trace(checks.verify_triple_product, 2, 4, 16)
    bad = [c for c in calls if c[0] in {"log_coefficients", "exp_coefficients", "_log_numerators"}
           and "absolutely_indecomposable_count" not in c[1]]
    witness = any(c[0] == "_log_numerators" and "absolutely_indecomposable_count" in c[1]
                  for c in calls)
elif check in ("oracle-M", "oracle-IA"):
    # no oracle function reaches the chain: the chain runs only where
    # _oracle_rows fetches the engine's value that it compares
    import types
    from nilorb import fforacle
    kind = check[len("oracle-"):]
    fetches = {"orbit_count"} if kind == "M" else {"indecomposable_count",
                                                   "absolutely_indecomposable_count"}
    oracle_names = {name for name, obj in vars(fforacle).items()
                    if callable(obj) and getattr(obj, "__module__", None) == fforacle.__name__}
    if tangle:
        tangled(fforacle, "nilpotent_matrices", lambda: pipeline.weight_series(2, 1))

    def oracle():
        rows, _ = checks._oracle_rows(types.SimpleNamespace(check=kind, g=2, n=2, q=2))
        return types.SimpleNamespace(passed=all(row["match"] for row in rows))

    calls = trace(oracle)
    chain = [c for c in calls if c[0] in chain_names]
    # a chain call inside an oracle function, or a first chain call that is
    # not one of _oracle_rows' fetches
    bad = [c for c in chain if oracle_names & set(c[1])
           or (not chain_names & set(c[1])
               and (c[1][-1], c[0]) not in {("_oracle_rows", name) for name in fetches})]
    witness = ({c[0] for c in chain if c[1][-1] == "_oracle_rows"} == fetches
               and any(c[0] in {"burnside_orbit_count", "indecomposability_counts"}
                       for c in calls))
elif check == "oracle-nilcount":
    # the commutant count reaches no chain function: the chain runs only
    # where _oracle_rows fetches the engine's exponent that it compares
    import types
    from nilorb import fforacle
    oracle_names = {name for name, obj in vars(fforacle).items()
                    if callable(obj) and getattr(obj, "__module__", None) == fforacle.__name__}
    lam = partitions.Partition((2, 1))
    if tangle:
        tangled(fforacle, "is_nilpotent", lambda: partitions.nilpotent_commutant_exponent(lam))

    def oracle():
        args = types.SimpleNamespace(check="nilcount", lam=lam, f="x", q=3)
        rows, _ = checks._oracle_rows(args)
        return types.SimpleNamespace(passed=all(row["match"] for row in rows))

    calls = trace(oracle)
    chain = [c for c in calls if c[0] in chain_names]
    bad = [c for c in chain if oracle_names & set(c[1])
           or (not chain_names & set(c[1])
               and (c[1][-1], c[0]) != ("_oracle_rows", "nilpotent_commutant_exponent"))]
    witness = ({c[0] for c in chain if c[1][-1] == "_oracle_rows"}
               == {"nilpotent_commutant_exponent"}
               and any(c[0] == "nilpotent_commutant_count" for c in calls))
else:  # g1-product
    # the double product calls nothing of the chain; only the weight series
    # it is compared with does
    if tangle:
        tangled(checks, "_bi_mul_power", lambda: pipeline.weight_series(1, 1))
    calls = trace(checks.verify_g1_product, 5, 12)
    bad = [c for c in calls if c[0] in chain_names and "_expand_weight_series" not in c[1]]
    witness = (any(c[0] == "_bi_mul_power" for c in calls)
               and any(c[0] == "weight_series" and "_expand_weight_series" in c[1]
                       for c in calls))
print(json.dumps({"witness": witness, "violations": bad[:3]}))
"""

ROUTE_CHECKS = ("weight-routes", "thm5-routes", "kwi", "g1-product", "oracle-M", "oracle-IA",
                "oracle-nilcount")


def route_probe(env, check: str, tangle: bool) -> dict:
    proc = subprocess.run([sys.executable, "-c", _ROUTE_PROBE, check, "1" if tangle else "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("check", ROUTE_CHECKS)
def test_each_check_stays_off_the_route_it_checks(nilorb_env, check):
    probe = route_probe(nilorb_env, check, tangle=False)
    assert probe["witness"], "the probe did not see both routes run"
    assert probe["violations"] == []


@pytest.mark.parametrize("check", ROUTE_CHECKS)
def test_route_probe_catches_a_check_that_calls_its_route(nilorb_env, check):
    probe = route_probe(nilorb_env, check, tangle=True)
    assert probe["witness"]
    assert probe["violations"], "a check that calls the route it checks went unseen"

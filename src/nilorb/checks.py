"""The identity checks, and the commands that run them.

Each verifier compares the chain with a route that shares no code with the
part of the chain it checks:

* ``verify_weight_routes``: the column route's weight series against the
  partition route's, up to any order (every run of the chain checks them
  up to X**6 only);
* ``verify_product_routes``: the product route to log M against the
  component route;
* ``verify_triple_product``: the weight series against the triple product
  whose exponents are the coefficients of A;
* ``verify_g1_product``: at g = 1, the weight series against a plain double
  product that no counting polynomial enters;

and ``scan_nonnegativity`` reports every negative coefficient of A.  The
``verify``, ``oracle`` and ``conjecture-scan`` commands live here too, so
that ``compute`` loads none of this module.
"""

from __future__ import annotations

import re
from typing import Optional

from .exactnum import SizeGuardError, _check_ints, _Record
from .partitions import column_weight, partition_count, weight_denominator
from .pipeline import (
    CountingPolynomial,
    Mismatch,
    _column_rows,
    _log_orbit_component_coefficient,
    _orbit_log_mismatch,
    _weight_mismatch,
    absolutely_indecomposable_count,
    fraction_texts,
    weight_series,
)

#: the most partitions (of 1..N together) that ``verify_weight_routes``
#: weighs by the partition route.  N = 26 (11,731 partitions) runs: it took
#: 10.3 s at g = 2 and 11.8 s at g = 5 (2 cores, Python 3.11.7), about twice
#: N = 24 (7,337 partitions).  N = 27 (14,741) is refused.
_WEIGHT_ROUTES_PARTITIONS = 12_000
#: the largest window N * Q of coefficients that ``verify_triple_product``
#: and ``verify_g1_product`` multiply in.  The product makes about
#: (N Q)**2 / 4 coefficient updates, so its time grows as the window's
#: square: at N * Q = 16,000, kwi took 8.3 s at (g, N, Q) = (2, 16, 1000) and
#: 9.5 s at (2, 20, 800), and g1-product 6.1 s at (16, 1000) (in process, 2
#: cores, Python 3.11.7); 0.54 s at (2, 12, 288).
_PRODUCT_WINDOW = 16_000
#: the largest g * N**3 up to which ``verify_triple_product``,
#: ``verify_g1_product`` (at g = 1), ``verify_product_routes`` and
#: ``scan_nonnegativity`` build the chain they check.  The log stage
#: multiplies about N**2 / 2 pairs of polynomials of q-degree up to about
#: g N**2, some (g N**3)**2 / 6 coefficient products.  A to n = N with the
#: weight series took 3.3 s at (g, N) = (2, 28), 2.6 s at (1, 35), 2.3 s at
#: (3, 24), 1.9 s at (5, 20) and 1.3 s at (10, 16), at g N**3 <= 44,000
#: each; A to n = 40 at g = 2 took 37 s, and the weight series alone to
#: N = 60 at g = 1 about 15 s (in process, 2 cores, Python 3.11.7).  From
#: the command line thm5-routes took 3.8 s and conjecture-scan 4.2 s at
#: (2, 28), against 9.9 s at (2, 32) and 18.5 s at (2, 36), on the same
#: host.
_PRODUCT_CHAIN = 44_000


class VerificationReport(_Record):
    """The outcome of one verifier: its first mismatch, or None when the two
    sides agree throughout the window."""

    __slots__ = ("identity", "g", "x_order", "q_order", "mismatch")

    @property
    def passed(self) -> bool:
        return self.mismatch is None


class ScanReport(_Record):
    """The negative coefficients ``(n, s, c)`` of A_g(n, q) for n <= n_max,
    with the polynomials scanned."""

    __slots__ = ("g", "n_max", "negative_terms", "polynomials")

    @property
    def all_nonnegative(self) -> bool:
        return not self.negative_terms


# ---------------------------------------------------------------------------
# identity verifiers


def verify_weight_routes(g: int, order: int) -> VerificationReport:
    """Compare the column route's weight-series numerators with the partition
    route's for X**1..X**order, reporting the first (X**n, q**s) at which
    they differ rather than raising.

    The partition route weighs every partition of 1..order, so its cost
    follows their number; past ``_WEIGHT_ROUTES_PARTITIONS`` of them this
    raises ``SizeGuardError`` before any work, counting them only up to the
    first n that passes it."""
    _check_ints(1, g=g, order=order)
    count = 0
    for n in range(1, order + 1):
        count += partition_count(n)
        if count > _WEIGHT_ROUTES_PARTITIONS:
            raise SizeGuardError(f"weight-routes at N={order} weighs {count} partitions up "
                                 f"to n={n}, beyond the guard of {_WEIGHT_ROUTES_PARTITIONS}")
    rows = _column_rows(g, order)
    mismatches = (_weight_mismatch(g, n, column_weight(g, rows[n], n))
                  for n in range(1, order + 1))
    return VerificationReport("weight-routes", g, order, None,
                              next(filter(None, mismatches), None))


def verify_product_routes(g: int, order: int) -> VerificationReport:
    """Compare the two independent constructions of log M for X**1..X**order,
    reporting the first X**n at which they differ rather than raising.  A
    g * order**3 past ``_PRODUCT_CHAIN`` raises ``SizeGuardError`` before
    any work."""
    _check_ints(1, g=g, order=order)
    _guard_chain("thm5-routes", g, order)
    mismatches = (_orbit_log_mismatch(g, n, _log_orbit_component_coefficient(g, n))
                  for n in range(1, order + 1))
    return VerificationReport("thm5-routes", g, order, None,
                              next(filter(None, mismatches), None))


def _bi_mul_power(rows: list[list[int]], n: int, c: int, a: int) -> None:
    """Multiply ``rows`` in place by (1 - q**c X**n) ** a in the doubly
    truncated ring, in one pass over the generalised binomial series
    sum_j (-1)**j C(a, j) q**(cj) X**(nj).  Its integer coefficients follow
    b_j = b_(j-1) (j-1-a) / j; terms past either truncation are dropped.
    Row m gains multiples of rows m - nj below it, so m runs downwards and
    every row read is still the one before the multiplication."""
    q_order = len(rows[0]) - 1
    terms, b = [], 1
    for j in range(1, (len(rows) - 1) // n + 1):
        b = b * (j - 1 - a) // j
        if b == 0 or c * j > q_order:
            break
        terms.append((n * j, c * j, b))
    for m in range(len(rows) - 1, n - 1, -1):
        row = rows[m]
        for shift, power, b in terms:
            if shift > m:
                break
            row[power:] = [x + b * y for x, y in zip(row[power:], rows[m - shift])]


def _product_rows(tables: dict, x_order: int, q_order: int) -> list[list[int]]:
    """The product over n <= x_order, s and 0 <= i <= q_order - s of
    (1 - q**(s+i) X**n) ** tables[n][s], as rows: row m holds the
    coefficients of q**0..q**q_order in the X**m coefficient.  The factors
    with one c = s + i are powers of one binomial, so each (n, c) takes one
    pass, with the exponent b(n, c) = the sum of tables[n][s] over s <= c."""
    rows = [[0] * (q_order + 1) for _ in range(x_order + 1)]
    rows[0][0] = 1
    for n in range(1, x_order + 1):
        table, b = tables[n], 0
        for c in range(q_order + 1):
            b += table[c] if c < len(table) else 0
            if b:
                _bi_mul_power(rows, n, c, b)
    return rows


def _expand_weight_series(g: int, x_order: int, q_order: int) -> list[list[int]]:
    """The weight series' coefficients of X**0..X**x_order as rows of the
    coefficients of q**0..q**q_order: each numerator p_n divided by D_n as a
    power series over the integers, exact at every step because
    D_n(0) = (-1)**n."""
    rows = []
    for n, p in enumerate(weight_series(g, x_order)):
        den = weight_denominator(n).numerators
        out = []
        for k in range(q_order + 1):
            acc = p.numerators[k] if k < len(p.numerators) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc * den[0])
        rows.append(out)
    return rows


def _guard_chain(identity: str, g: int, x_order: int) -> None:
    """Refuse a chain to X**x_order at g past ``_PRODUCT_CHAIN``, reading
    g and x_order alone, so before any of the chain is built."""
    if g * x_order ** 3 > _PRODUCT_CHAIN:
        raise SizeGuardError(f"{identity} at g={g}, N={x_order} builds the chain to X^{x_order} "
                             f"at g*N^3 = {g * x_order ** 3}, beyond the guard of "
                             f"{_PRODUCT_CHAIN}")


def _guard_product(identity: str, g: int, x_order: int, q_order: int) -> None:
    """Refuse truncation orders below 1, a window past ``_PRODUCT_WINDOW``
    and a chain past ``_PRODUCT_CHAIN``, before any work."""
    _check_ints(1, x_order=x_order, q_order=q_order)
    if x_order * q_order > _PRODUCT_WINDOW:
        raise SizeGuardError(f"{identity} at N={x_order}, Q={q_order} multiplies in a window of "
                             f"N*Q = {x_order * q_order} coefficients, beyond the guard of "
                             f"{_PRODUCT_WINDOW}")
    _guard_chain(identity, g, x_order)


def _product_check(identity: str, g: int, tables: dict, x_order: int,
                   q_order: int) -> VerificationReport:
    """Compare the product of the exponent tables (``_product_rows``) with
    the weight series at g, both to X**x_order and q**q_order, reporting the
    first (X**n, q**k) at which they differ."""
    rhs = _product_rows(tables, x_order, q_order)
    lhs = _expand_weight_series(g, x_order, q_order)
    mismatches = (Mismatch(n, k, str(a), str(b)) for n in range(x_order + 1)
                  for k, (a, b) in enumerate(zip(lhs[n], rhs[n])) if a != b)
    return VerificationReport(identity, g, x_order, q_order, next(mismatches, None))


def verify_triple_product(
    g: int,
    x_order: int,
    q_order: int,
    perturb: Optional[tuple[int, int, int]] = None,
) -> VerificationReport:
    """Check that the weight series equals the triple product over
    (n, s, i) of (1 - q**(s+i) X**n) ** a(n, s), where a(n, s) are the
    coefficients of the absolutely-indecomposable counts.

    Both sides are expanded in X up to x_order and q up to q_order; factors
    with s + i > q_order are 1 modulo the q-truncation and are skipped.
    The factors of one (n, s + i) merge into one power of one binomial,
    applied in one pass through its binomial series, so the right side
    stays in integer arithmetic on rows of q-coefficients.  A window
    x_order * q_order past ``_PRODUCT_WINDOW``, or a g * x_order**3 past
    ``_PRODUCT_CHAIN``, raises ``SizeGuardError`` before any work.
    ``perturb = (n, s, d)`` adds d to the exponent a(n, s) -- a
    deliberate-corruption hook for negative-control testing; it must lie
    inside the window (n <= x_order, s <= q_order) and have d != 0.
    """
    _check_ints(1, g=g)
    _guard_product("kwi", g, x_order, q_order)
    if perturb is not None:
        pn, ps, delta = perturb
        # a zero delta, or a coefficient past q**q_order, changes nothing
        # inside the window, so the control could not fail
        if not (1 <= pn <= x_order and 0 <= ps <= q_order) or delta == 0:
            raise ValueError("perturbation outside the verified window")
    tables = {n: list(absolutely_indecomposable_count(g, n).coefficient_list)
              for n in range(1, x_order + 1)}
    if perturb is not None:
        tables[pn].extend([0] * (ps + 1 - len(tables[pn])))
        tables[pn][ps] += delta
    return _product_check("kwi", g, tables, x_order, q_order)


def verify_g1_product(x_order: int, q_order: int) -> VerificationReport:
    """At g = 1 the weight series equals the plain double product of
    (1 - q**i X**n); this builds that product directly, without going
    through the counting polynomials: every exponent table is (1,).  A
    window past ``_PRODUCT_WINDOW``, or an x_order**3 past
    ``_PRODUCT_CHAIN``, raises ``SizeGuardError`` before any work."""
    _guard_product("g1-product", 1, x_order, q_order)
    return _product_check("g1-product", 1, dict.fromkeys(range(1, x_order + 1), (1,)),
                          x_order, q_order)


def scan_nonnegativity(g: int, n_max: int) -> ScanReport:
    """List every negative coefficient of the absolutely-indecomposable
    counts for n up to n_max.  An empty list means the nonnegativity
    conjecture holds in range; a nonempty one is a finding, not an error.
    A g * n_max**3 past ``_PRODUCT_CHAIN`` raises ``SizeGuardError`` before
    any work."""
    _check_ints(2, g=g)
    _check_ints(1, n_max=n_max)
    _guard_chain("conjecture-scan", g, n_max)
    negatives = []
    polys = []
    for n in range(1, n_max + 1):
        cp = absolutely_indecomposable_count(g, n)
        polys.append(cp)
        for s, c in enumerate(cp.coefficient_list):
            if c < 0:
                negatives.append((n, s, c))
    return ScanReport(g, n_max, tuple(negatives), tuple(polys))


# ---------------------------------------------------------------------------
# the commands: their arguments, as rows of the command table that ``cli``
# parses, and their handlers, called from ``cli.main``


def _parse_partition(text: str):
    from .partitions import Partition

    try:
        return Partition(sorted((int(p) for p in text.split(",")), reverse=True))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None


def _parse_perturb(text: str) -> tuple[int, int, int]:
    try:
        n, s, delta = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"perturbation must be 'n,s,delta', got {text!r}") from None
    return n, s, delta


def arguments(command: str) -> tuple:
    """The handler and the arguments (``cli._option``) of ``verify``,
    ``oracle`` or ``conjecture-scan``."""
    from .cli import _option as option, _positive_int

    formats = option("--format", choices=("json", "pretty"), default="pretty",
                     help="output format (default pretty)")
    if command == "verify":
        return cmd_verify, (
            option("identity", choices=("thm5-routes", "weight-routes", "kwi", "g1-product"),
                   required=True, help="the identity to verify"),
            option("--g", _positive_int, default=1, help="tuple length (default 1)"),
            option("--N", _positive_int, required=True, help="X truncation order"),
            option("--Q", _positive_int, help="q truncation order"),
            option("--perturb", _parse_perturb,
                   help="n,s,delta: deliberately corrupt one exponent (negative control)"),
            formats)
    if command == "oracle":
        return cmd_oracle, (
            option("--check", choices=("M", "IA", "nilcount", "nilcount-total"), required=True,
                   help="the count to compare: M and IA take --g and --n, nilcount "
                        "--lambda and --f, nilcount-total --n"),
            option("--g", _positive_int, help="tuple length"),
            option("--n", _positive_int, help="matrix order"),
            option("--q", _positive_int, required=True, help="field size"),
            option("--lambda", _parse_partition, dest="lam",
                   help="partition as comma-separated parts, e.g. 2,1"),
            option("--f", help="monic polynomial over the field, e.g. x or x^2+x+1"),
            formats)
    return cmd_scan, (  # conjecture-scan
        option("--g", _positive_int, required=True, help="tuple length"),
        option("--Nmax", _positive_int, required=True, dest="n_max",
               help="largest matrix order"),
        formats)


def _report_payload(report: VerificationReport) -> dict:
    payload = dict(zip(report.__slots__, report._values()), passed=report.passed)
    if report.mismatch is not None:
        payload["mismatch"] = dict(zip(Mismatch.__slots__, report.mismatch._values()))
    return payload


def cmd_verify(args) -> tuple:
    # the usage rules: --Q is required by the truncated identities and
    # refused by the others, --perturb is for kwi, g1-product is at g = 1
    identity, truncated = args.identity, args.identity in ("kwi", "g1-product")
    if identity == "g1-product" and args.g != 1:
        raise ValueError("g1-product is the tuple-length-1 identity; omit --g")
    if truncated and args.Q is None:
        raise ValueError(f"{identity} needs --Q (q truncation order)")
    if args.perturb and identity != "kwi":
        raise ValueError("--perturb applies only to the kwi identity")
    if not truncated and args.Q is not None:
        raise ValueError(f"{identity} has no q truncation; omit --Q")
    if identity == "thm5-routes":
        report = verify_product_routes(args.g, args.N)
    elif identity == "weight-routes":
        report = verify_weight_routes(args.g, args.N)
    elif identity == "kwi":
        report = verify_triple_product(args.g, args.N, args.Q, perturb=args.perturb)
    else:
        report = verify_g1_product(args.N, args.Q)

    payload = _report_payload(report)
    text = None
    if args.format == "pretty":
        status = "PASS" if report.passed else "FAIL"
        detail = ""
        if report.mismatch:
            m = report.mismatch
            where = f"X^{m.x_degree}" + (f", q^{m.q_degree}" if m.q_degree is not None else "")
            detail = f"  first mismatch at {where}: {m.lhs} != {m.rhs}"
        text = (f"{report.identity} (g={report.g}, N={report.x_order}"
                + (f", Q={report.q_order}" if report.q_order is not None else "")
                + f"): {status}{detail}")
    parameters = {"identity": identity, "g": report.g, "N": args.N, "Q": args.Q}
    if args.perturb is not None:
        parameters["perturb"] = list(args.perturb)
    return report.passed, parameters, {"report": payload}, [payload], text


_TERM_RE = re.compile(r"^(\d+)?(?:(x)(?:\^(\d+))?)?$")


def _parse_poly_text(text: str) -> dict[int, int]:
    """Parse e.g. 'x', 'x^2+x+1', 'x-1' into its integer coefficients by
    degree, leaving out the degrees no term names."""
    compact = text.replace(" ", "")
    tokens = re.findall(r"[+-]?[^+-]+", compact)
    # findall skips what no term matches, so the terms must make up the text
    if not tokens or "".join(tokens) != compact:
        raise ValueError(f"cannot parse polynomial {text!r}")
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
    return coeffs


def _value_at(cp: CountingPolynomial, q: int) -> int | str:
    """The exact value of ``cp`` at q: an int, or the text of a value that
    is not an integer (which no count can be, so its row fails)."""
    v, d = cp.value.at(q), cp.denominator
    return v // d if v % d == 0 else fraction_texts((v,), d)[0]


def _row(quantity: str, engine, oracle: int) -> dict:
    return {"quantity": quantity, "engine": engine, "oracle": oracle, "match": engine == oracle}


#: the options that each oracle check takes, by their argument names; the
#: flags of the others must be absent
_ORACLE_TAKES = {"M": ("g", "n"), "IA": ("g", "n"), "nilcount": ("lam", "f"),
                 "nilcount-total": ("n",)}
_ORACLE_FLAGS = {"g": "--g", "n": "--n", "lam": "--lambda", "f": "--f"}


def _oracle_rows(args) -> tuple[list[dict], dict]:
    from . import fforacle, partitions, pipeline

    # in every check the oracle counts first, so that its guards refuse a
    # size past its reach before the chain or a closed form does work that
    # grows with the input
    field = fforacle.FieldSpec.of(args.q)
    takes = _ORACLE_TAKES[args.check]
    if any(getattr(args, name, None) is None for name in takes):
        raise ValueError(f"--check {args.check} needs "
                         + " and ".join(_ORACLE_FLAGS[name] for name in takes))
    for name, flag in _ORACLE_FLAGS.items():
        if name not in takes and getattr(args, name, None) is not None:
            raise ValueError(f"--check {args.check} takes no {flag}")
    if args.check in ("M", "IA"):
        if args.check == "M":
            by_average = fforacle.burnside_orbit_count(field, args.n, args.g)
            by_listing = sum(1 for _ in fforacle.orbit_listing(field, args.n, args.g))
            engine = _value_at(pipeline.orbit_count(args.g, args.n), args.q)
            rows = [_row("orbit count (Burnside average)", engine, by_average),
                    _row("orbit count (explicit orbits)", engine, by_listing)]
        else:
            i_oracle, a_oracle = fforacle.indecomposability_counts(field, args.n, args.g)
            rows = [
                _row("indecomposable orbit count",
                     _value_at(pipeline.indecomposable_count(args.g, args.n), args.q), i_oracle),
                _row("absolutely indecomposable orbit count",
                     _value_at(pipeline.absolutely_indecomposable_count(args.g, args.n), args.q),
                     a_oracle),
            ]
        params = {"check": args.check, "g": args.g, "n": args.n, "q": args.q}
    elif args.check == "nilcount":
        coeffs = _parse_poly_text(args.f)
        # the oracle's order guard sees deg f before f is written out in full
        d = max(coeffs)
        fforacle._guard_commutant_order(field, d, args.lam)
        count = fforacle.nilpotent_commutant_count(
            field, tuple(coeffs.get(k, 0) % field.p for k in range(d + 1)), args.lam)
        engine = args.q ** (d * partitions.nilpotent_commutant_exponent(args.lam))
        rows = [_row("nilpotent commutant count", engine, count)]
        params = {"check": args.check, "lambda": list(args.lam.parts),
                  "f": args.f, "q": args.q}
    else:  # nilcount-total
        count = len(fforacle.nilpotent_matrices(field, args.n))
        rows = [_row("nilpotent matrix count", args.q ** (args.n * args.n - args.n), count)]
        params = {"check": args.check, "n": args.n, "q": args.q}
    return rows, params


def cmd_oracle(args) -> tuple:
    rows, params = _oracle_rows(args)
    text = None
    if args.format == "pretty":
        width = max(len(r["quantity"]) for r in rows)
        text = "\n".join(
            f"{r['quantity']:<{width}}  engine={r['engine']}  oracle={r['oracle']}  "
            + ("ok" if r["match"] else "MISMATCH") for r in rows)
    return all(r["match"] for r in rows), params, {"comparisons": rows}, [], text


def cmd_scan(args) -> tuple:
    report = scan_nonnegativity(args.g, args.n_max)
    payload = {
        "g": report.g,
        "n_max": report.n_max,
        "all_nonnegative": report.all_nonnegative,
        "negative_terms": [list(t) for t in report.negative_terms],
        "polynomials": [cp.payload() for cp in report.polynomials],
    }
    text = None
    if args.format == "pretty":
        lines = [str(cp) for cp in report.polynomials]
        if report.all_nonnegative:
            lines.append(f"all coefficients nonnegative for n <= {report.n_max}")
        lines += [f"negative coefficient at n={n}, s={s}: {c}"
                  for n, s, c in report.negative_terms]
        text = "\n".join(lines)
    params = {"g": args.g, "Nmax": args.n_max}
    return report.all_nonnegative, params, {"scan": payload}, [], text


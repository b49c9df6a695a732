"""Aggregation used by the benchmark: medians and percentiles with their
sample counts, ratios with their base, and module self time and exact call
counts taken from profiler records.

Profiler records are the ``stats`` dictionary of :class:`pstats.Stats`:
``(filename, first_line, function_name) -> (primitive_calls, calls,
self_time, cumulative_time, callers)``.
"""

from __future__ import annotations

import ast
import statistics
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path


@dataclass(frozen=True)
class Summary:
    """A statistic together with the number of samples it was taken from."""

    value: float
    samples: int


def median(values) -> Summary:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return Summary(statistics.median(values), len(values))


def percentile(values, p: int) -> Summary:
    """The p-th percentile (1 <= p <= 99) by linear interpolation between
    order statistics, as ``statistics.quantiles(method="inclusive")``."""
    values = list(values)
    if not values:
        raise ValueError("percentile of no samples")
    if not 1 <= p <= 99:
        raise ValueError("percentile must be in 1..99")
    if len(values) == 1:
        return Summary(values[0], 1)
    return Summary(statistics.quantiles(values, n=100, method="inclusive")[p - 1], len(values))


def samples_beyond(samples: int, p: int) -> int:
    """How many of ``samples`` values lie beyond the p-th percentile."""
    return samples * (100 - p) // 100


@dataclass(frozen=True)
class Ratio:
    """``part / base``; 0 when the base is 0 (nothing was attempted)."""

    part: float
    base: float

    @property
    def value(self) -> float:
        return self.part / self.base if self.base else 0.0


# ---------------------------------------------------------------------------
# profiler records


def module_of(filename: str) -> str | None:
    """Layer name of a profiled source file: the module stem for files of the
    ``nilorb`` package, ``fractions`` for the standard library's fractions
    module, None for everything else (built-ins, other libraries)."""
    path = Path(filename)
    if path.suffix != ".py":
        return None
    if path.parent.name == "nilorb":
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    return None


def module_self_times(stats: dict) -> dict[str, float]:
    """Self time summed per module.  Time in built-in functions is not
    attributed to the module that called them."""
    out: dict[str, float] = {}
    for (filename, _line, _name), record in stats.items():
        module = module_of(filename)
        if module is not None:
            out[module] = out.get(module, 0.0) + record[2]
    return out


def total_self_time(stats: dict) -> float:
    """Self time summed over every record: the whole profiled time."""
    return sum(record[2] for record in stats.values())


@lru_cache(maxsize=None)
def _qualnames(filename: str) -> dict[int, str]:
    """First line of each function in a source file (the first decorator's
    line for a decorated one, as the profiler records it) -> qualified
    name such as ``PolyQ.gcd``."""
    tree = ast.parse(Path(filename).read_text(), filename)
    out: dict[int, str] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[first] = name
                    out.setdefault(child.lineno, name)
                visit(child, name + ".")

    visit(tree, "")
    return out


def qualname(filename: str, line: int, name: str) -> str:
    """Qualified name of a profiled function; the bare name when the source
    cannot be read."""
    try:
        return _qualnames(filename).get(line, name)
    except (OSError, SyntaxError):
        return name


def call_counts(stats: dict, targets: dict[str, tuple[str, str]]) -> dict[str, int]:
    """Exact call counts for ``{metric: (module, qualified name)}``; a target
    that never ran counts 0."""
    wanted = {target: metric for metric, target in targets.items()}
    out = {metric: 0 for metric in targets}
    for (filename, line, name), record in stats.items():
        module = module_of(filename)
        if module is None:
            continue
        metric = wanted.get((module, qualname(filename, line, name)))
        if metric is not None:
            out[metric] += record[1]
    return out

"""The nilorb benchmark: real ``nilorb`` commands in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references

Run from the root of a source checkout; the program is run from ``src``
with no install.  Every request is one fresh ``python -m nilorb`` process.
One client issues them: the next request starts when the previous one has
exited, so at most one request runs at a time.  The seed shuffles the
order of the workload's request list (fixed in ``workloads.json``), and so
how cache hits and misses interleave; it changes no request.  Every
output and exit code is checked against ``references.json``.

``--trace 0`` makes as many shuffled passes over the list as fit in
``--seconds`` (at least one) and reports the end-to-end metrics.  ``--trace 1`` makes one
plain pass, then the same pass with each request under cProfile, then
times the layers' public functions in fresh processes (``layers.py``),
and reports the per-layer metrics.  Progress and every metric, by name
with its unit, go to standard output; the last line is one JSON object.

The benchmark changes nothing on the machine: no CPU pinning, no cache
dropping, no priority changes.  What noise remains is the machine's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pstats
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import measure

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: wall-clock budget of one run; a request still running at the end is killed
RUN_BUDGET_S = 170.0
#: `nilorb --version` processes before each pass, so set-up is sampled across the run
SETUP_RUNS = 5
LAYER_RUNS = 3
TAIL_PERCENTILE = 90
#: the end-to-end metrics of the result line.  ``req_p50_s`` is only printed:
#: on cold-chain it names one of 8 requests and its run-to-run spread was
#: beyond any usable bound.  ``req_p90_s`` is printed only where at least 10
#: samples lie beyond it (cache-hit).
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")

CALL_TARGETS = {
    "calls.fraction_new": ("fractions", "Fraction.__new__"),
    "calls.polyq_gcd": ("exactnum", "PolyQ.gcd"),
    "calls.polyq_mul": ("exactnum", "PolyQ.__mul__"),
    "calls.rf_add": ("exactnum", "RationalFunctionQ.__add__"),
    "calls.rf_mul": ("exactnum", "RationalFunctionQ.__mul__"),
    "calls.orbit_weight": ("partitions", "orbit_weight"),
    "calls.inner_product": ("partitions", "inner_product"),
    "calls.qseries_mul_qpower": ("exactnum", "TruncatedQSeries.mul_qpower"),
    "calls.mat_mul": ("fforacle", "mat_mul"),
}
SELF_MODULES = ("fractions", "exactnum", "series", "partitions", "pipeline", "fforacle", "cli")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, no references, ...)."""


# ---------------------------------------------------------------------------
# requests and their checks


@dataclass(frozen=True)
class Request:
    args: tuple[str, ...]
    exit: int = 0
    #: run against the pass's cache directory (``--cache-dir`` is appended)
    cache: bool = False

    @property
    def rid(self) -> str:
        return " ".join(self.args)


@dataclass
class Outcome:
    request: Request
    seconds: float
    rss_mb: float
    exit: int
    stdout: bytes
    #: None without a cache; else whether the entry was already stored
    hit: bool | None = None


def load_workloads() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())["workloads"]


def expand(requests: list[dict], cache: bool = False) -> list[Request]:
    out = []
    for item in requests:
        req = Request(tuple(item["args"]), item.get("exit", 0), cache)
        out.extend([req] * item.get("repeat", 1))
    return out


def canonical_output(request: Request, stdout: bytes) -> bytes:
    """The output with its run-dependent part dropped: ``timing_ms`` of a
    JSON envelope.  Other formats are deterministic as printed."""
    if "--format" in request.args and request.args[request.args.index("--format") + 1] == "json":
        envelope = json.loads(stdout)
        envelope.pop("timing_ms", None)
        return json.dumps(envelope, sort_keys=True, indent=2).encode()
    return stdout


def digest(request: Request, stdout: bytes) -> str:
    return hashlib.sha256(canonical_output(request, stdout)).hexdigest()


def passed(outcome: Outcome, references: dict[str, str]) -> bool:
    """A request passes when it exits as expected and its canonical output
    matches the reference digest."""
    if outcome.exit != outcome.request.exit:
        return False
    try:
        return digest(outcome.request, outcome.stdout) == references[outcome.request.rid]
    except ValueError:  # not JSON although --format json was asked for
        return False


def fail_ratio(outcomes: list[Outcome], references: dict[str, str]) -> measure.Ratio:
    failed = sum(1 for o in outcomes if not passed(o, references))
    return measure.Ratio(failed, len(outcomes))


def load_references() -> dict[str, str]:
    path = BENCH / "references.json"
    if not path.exists():
        raise BenchmarkError(f"no reference digests at {path}")
    return json.loads(path.read_text())["digests"]


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("NILORB_CACHE", None)
    return env


class Runner:
    """Issues requests one at a time, through ``launch.py``, inside a
    per-run work directory.  Use it as a context manager: leaving it stops
    the launcher and anything it still runs, and removes the directory."""

    def __init__(self, deadline: float):
        self.work = WORK / str(os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = deadline
        self.cache_dir: Path | None = None
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
            start_new_session=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.launcher.stdin.close()
        else:
            os.killpg(self.launcher.pid, signal.SIGKILL)
        self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    def spawn(self, argv: list[str]) -> tuple[int, float, float, bytes]:
        """Run one process to its end; (exit code, wall seconds, peak RSS in
        MB, standard output).  It is killed at the run's deadline."""
        out, err = self.work / "stdout", self.work / "stderr"
        timeout = self.deadline - time.monotonic()
        self.launcher.stdin.write("\t".join([repr(timeout), str(out), str(err), *argv]) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise BenchmarkError("the launcher stopped")
        code, seconds, rss_kb = reply.split("\t")
        return int(code), float(seconds), int(rss_kb) / 1024.0, out.read_bytes()

    def request(self, request: Request, profile_to: Path | None = None) -> Outcome:
        args = list(request.args)
        if request.cache:
            args += ["--cache-dir", str(self.cache_dir)]
        if profile_to is None:
            argv = [sys.executable, "-m", "nilorb", *args]
        else:
            argv = [sys.executable, str(BENCH / "profiled.py"), str(profile_to), *args]
        before = len(os.listdir(self.cache_dir)) if request.cache else 0
        code, seconds, rss, stdout = self.spawn(argv)
        hit = None
        if request.cache:
            hit = len(os.listdir(self.cache_dir)) == before
        return Outcome(request, seconds, rss, code, stdout, hit)

    def run_pass(self, order: list[Request], prepared: Path | None,
                 profile_dir: Path | None = None) -> tuple[float, list[Outcome]]:
        """One pass over the list, against a fresh copy of the prepared cache;
        (wall seconds, outcomes)."""
        if prepared is not None:
            self.cache_dir = self.work / "cache"
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            shutil.copytree(prepared, self.cache_dir)
        outcomes = []
        t0 = time.perf_counter()
        for i, request in enumerate(order):
            prof = None if profile_dir is None else profile_dir / f"{i:04d}.prof"
            outcomes.append(self.request(request, prof))
        return time.perf_counter() - t0, outcomes

    def prepare_cache(self, keys: list[Request]) -> Path:
        """Store the entries later passes hit; untimed."""
        prepared = self.work / "prepared"
        prepared.mkdir()
        self.cache_dir = prepared
        for request in keys:
            outcome = self.request(request)
            if outcome.exit != 0:
                raise BenchmarkError(f"cache preparation failed: {request.rid}")
        return prepared

    def setup_times(self) -> list[float]:
        """Wall time of ``nilorb --version``: start-up and import, nothing else."""
        times = []
        for _ in range(SETUP_RUNS):
            code, seconds, _, stdout = self.spawn([sys.executable, "-m", "nilorb", "--version"])
            if code != 0 or not stdout.startswith(b"nilorb "):
                raise BenchmarkError("`nilorb --version` failed")
            times.append(seconds)
        return times

    def layer_times(self) -> dict[str, measure.Summary]:
        samples: dict[str, list[float]] = {}
        for i in range(LAYER_RUNS):
            argv = [sys.executable, str(BENCH / "layers.py"), str(self.work / f"layers{i}")]
            code, _, _, stdout = self.spawn(argv)
            if code != 0:
                raise BenchmarkError("layer probes failed: "
                                     + (self.work / "stderr").read_text()[-2000:])
            for name, value in json.loads(stdout.decode().splitlines()[-1]).items():
                samples.setdefault(name, []).append(value)
        return {name: measure.median(values) for name, values in samples.items()}


# ---------------------------------------------------------------------------
# a run


def end_to_end(walls: list[float], outcomes: list[Outcome],
               setup: list[float] | None) -> dict[str, tuple[measure.Summary, str, str]]:
    """{metric: (summary, unit, how it was taken)}.

    The host's speed drifts over tens of seconds, so the times that are
    compared across runs are each taken at their least disturbed: the
    fastest pass, and each request at its fastest over the passes."""
    latencies = [o.seconds for o in outcomes]
    fastest: dict[str, float] = {}
    for o in outcomes:
        fastest[o.request.rid] = min(o.seconds, fastest.get(o.request.rid, o.seconds))
    out = {
        "wall_s": (measure.Summary(min(walls), len(walls)), "s",
                   f"fastest of {len(walls)} pass(es): " + " ".join(f"{w:.3f}" for w in walls)),
        "req_p50_s": (measure.median(fastest[o.request.rid] for o in outcomes), "s",
                      f"median over {len(outcomes)} requests, each at its fastest "
                      f"of {len(walls)} pass(es)"),
        "peak_rss_mb": (measure.Summary(max(o.rss_mb for o in outcomes), len(outcomes)), "MB",
                        f"largest of {len(outcomes)} request processes"),
    }
    tail = measure.percentile(latencies, TAIL_PERCENTILE)
    beyond = measure.samples_beyond(tail.samples, TAIL_PERCENTILE)
    if beyond >= 10:
        out["req_p90_s"] = (tail, "s", f"p90 of {tail.samples} requests, {beyond} beyond it")
    if setup is not None:
        out["setup_s"] = (measure.median(setup), "s",
                          f"median of {len(setup)} `nilorb --version` processes")
    return out


def profile_metrics(stats: dict) -> dict[str, tuple[float, str, str]]:
    self_times = measure.module_self_times(stats)
    total = measure.total_self_time(stats)
    out = {f"self.{m}_s": (self_times.get(m, 0.0), "s", "profiler self time") for m in SELF_MODULES}
    out["self.total_s"] = (total, "s", "all profiled time, built-ins included")
    share = measure.Ratio(self_times.get("fractions", 0.0), total)
    out["share.fractions"] = (share.value, "ratio", f"self.fractions_s over self.total_s = {total:.3f} s")
    for name, count in measure.call_counts(stats, CALL_TARGETS).items():
        module, qual = CALL_TARGETS[name]
        out[name] = (count, "count", f"calls of {module}.{qual}")
    return out


def run(workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "nilorb" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources at {SRC / 'nilorb'}")
    references = load_references()
    requests = expand(workload["requests"], workload.get("cache", False))
    missing = sorted({r.rid for r in requests} - references.keys())
    if missing:
        raise BenchmarkError(f"no reference digest for: {missing}")

    rng = random.Random(seed)
    start = time.monotonic()
    with Runner(start + RUN_BUDGET_S) as runner:
        prepared = None
        if workload.get("cache"):
            prepared = runner.prepare_cache(expand(workload["prepare"], cache=True))
        if trace:
            order = rng.sample(requests, len(requests))
            return traced_run(runner, workload["name"], seed, order, references, prepared)
        # passes continue while the next one, as long as the last, still ends
        # within --seconds (at least one pass) and well within the budget
        setup, walls, outcomes = [], [], []
        phase = time.monotonic()
        while not walls or (time.monotonic() - phase + walls[-1] <= seconds
                            and time.monotonic() - start + 2 * walls[-1] < RUN_BUDGET_S):
            setup += runner.setup_times()
            wall, done = runner.run_pass(rng.sample(requests, len(requests)), prepared)
            walls.append(wall)
            outcomes.extend(done)
        failures = fail_ratio(outcomes, references)
        metrics = end_to_end(walls, outcomes, setup)
        report(workload["name"], seed, metrics, failures, outcomes)
        return result(failures, {k: (metrics[k][0].value, metrics[k][1]) for k in END_TO_END})


def traced_run(runner: Runner, name: str, seed: int, order: list[Request],
               references: dict[str, str], prepared: Path | None) -> dict:
    wall, plain = runner.run_pass(order, prepared)
    profile_dir = runner.work / "profiles"
    profile_dir.mkdir()
    traced_wall, traced = runner.run_pass(order, prepared, profile_dir)
    stats = pstats.Stats(*sorted(str(p) for p in profile_dir.iterdir())).stats
    layers = runner.layer_times()

    outcomes = plain + traced
    failures = fail_ratio(outcomes, references)
    report(name, seed, end_to_end([wall], plain, None), failures, plain)

    lookups = [o.hit for o in plain if o.hit is not None]
    hits = measure.Ratio(sum(lookups), len(lookups))
    overhead = measure.Ratio(traced_wall, wall)
    metrics: dict[str, tuple[float, str, str]] = {
        name: (summary.value, "s", f"median of {summary.samples} probe processes")
        for name, summary in layers.items()
    }
    metrics["cli.cache_hit_ratio"] = (hits.value, "ratio", f"{hits.part:.0f} hits of {hits.base:.0f} lookups")
    metrics["cli.cache_lookups"] = (len(lookups), "count", "compute requests that consult the cache")
    metrics.update(profile_metrics(stats))
    metrics["trace.overhead_ratio"] = (overhead.value, "ratio",
                                       f"profiled pass {traced_wall:.3f} s over plain pass {wall:.3f} s")
    print(f"per-layer metrics (profiled pass of {len(traced)} requests, "
          f"{LAYER_RUNS} probe processes):")
    for name in sorted(metrics):
        value, unit, how = metrics[name]
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {how}")
    return result(failures, {k: v[:2] for k, v in metrics.items()})


def report(name: str, seed, metrics: dict, failures: measure.Ratio, outcomes: list[Outcome]) -> None:
    print(f"workload {name}: closed loop, 1 client, {len(outcomes)} requests, seed {seed}")
    for metric, (summary, unit, how) in metrics.items():
        print(f"  {metric:<12} {summary.value:>12.6f} {unit:<3} {how}")
    print(f"  {'fail_ratio':<12} {failures.value:>12.6f} {'':<3} "
          f"{failures.part:.0f} failed of {failures.base:.0f} attempted")


def result(failures: measure.Ratio, metrics: dict[str, tuple[float, str]]) -> dict:
    """The result line; ``metrics`` maps a name to (value, unit)."""
    return {
        "correct": failures.part == 0,
        "attempted": int(failures.base),
        "failed": int(failures.part),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


# ---------------------------------------------------------------------------
# reference digests


def record_references() -> None:
    """Run each distinct request once and store the digest of its canonical
    output.  Cache requests run against a fresh directory, so they compute."""
    digests = {}
    with Runner(time.monotonic() + 3600) as runner:
        for workload in load_workloads():
            requests = expand(workload["requests"], workload.get("cache", False))
            for request in requests:
                if request.rid in digests:
                    continue
                if request.cache:
                    runner.cache_dir = runner.work / "cache"
                    shutil.rmtree(runner.cache_dir, ignore_errors=True)
                    runner.cache_dir.mkdir()
                outcome = runner.request(request)
                if outcome.exit != request.exit:
                    raise BenchmarkError(f"{request.rid}: exit {outcome.exit}, expected {request.exit}")
                digests[request.rid] = digest(request, outcome.stdout)
                print(f"{outcome.seconds:8.3f} s  {request.rid}")
    (BENCH / "references.json").write_text(
        json.dumps({"digests": dict(sorted(digests.items()))}, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_references:
            record_references()
            return 0
        workloads = {w["name"]: w for w in load_workloads()}
        if args.workload not in workloads:
            parser.error(f"--workload must be one of {sorted(workloads)}")
        out = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

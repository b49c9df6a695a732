"""Tests of the benchmark itself: its aggregation, its correctness check
(with negative controls) and its refusal to run without the program.

    python3 -m pytest perfbench
"""

import cProfile
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import measure  # noqa: E402
import run as bench  # noqa: E402

# ---------------------------------------------------------------------------
# aggregation


def test_median_states_its_sample_count():
    assert measure.median([3.0, 1.0, 2.0]) == measure.Summary(2.0, 3)
    assert measure.median([4.0, 1.0, 2.0, 3.0]) == measure.Summary(2.5, 4)
    with pytest.raises(ValueError):
        measure.median([])


def test_p90_interpolates_and_counts_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    tail = measure.percentile(reversed(values), 90)
    assert tail == measure.Summary(pytest.approx(90.1), 100)
    assert measure.samples_beyond(tail.samples, 90) == 10
    assert measure.samples_beyond(16, 90) == 1
    assert measure.percentile([0.5], 90) == measure.Summary(0.5, 1)
    assert measure.percentile([1.0, 2.0], 50).value == pytest.approx(1.5)


def test_ratio_keeps_its_base():
    ratio = measure.Ratio(3, 12)
    assert (ratio.value, ratio.part, ratio.base) == (0.25, 3, 12)
    assert measure.Ratio(0, 0).value == 0.0


def _records(rows):
    """pstats-style records from (file, line, name, calls, self_time)."""
    return {(f, line, name): (calls, calls, tt, tt, {}) for f, line, name, calls, tt in rows}


def test_module_self_time_sums_records_per_module():
    stats = _records([
        ("/x/src/nilorb/exactnum.py", 10, "__mul__", 5, 0.25),
        ("/x/src/nilorb/exactnum.py", 40, "gcd", 2, 0.5),
        ("/x/src/nilorb/cli.py", 3, "main", 1, 0.125),
        ("/usr/lib/python3/fractions.py", 62, "__new__", 9, 1.0),
        ("~", 0, "<built-in method math.gcd>", 7, 2.0),
        ("/usr/lib/python3/json/decoder.py", 5, "decode", 1, 0.0625),
    ])
    assert measure.module_self_times(stats) == {
        "exactnum": 0.75, "cli": 0.125, "fractions": 1.0}
    assert measure.total_self_time(stats) == 3.9375
    assert measure.module_of("/x/other/exactnum.py") is None


def test_call_counts_resolve_methods_by_class(tmp_path):
    source = tmp_path / "nilorb" / "exactnum.py"
    source.parent.mkdir()
    source.write_text(
        "class PolyQ:\n"                     # 1
        "    def __mul__(self, o):\n"        # 2
        "        return o\n"                 # 3
        "\n"                                 # 4
        "    @staticmethod\n"                # 5
        "    def gcd(a, b):\n"               # 6
        "        return a\n"                 # 7
        "\n"                                 # 8
        "class RationalFunctionQ:\n"         # 9
        "    def __mul__(self, o):\n"        # 10
        "        return o\n"                 # 11
    )
    stats = _records([
        (str(source), 2, "__mul__", 4, 0.1),
        (str(source), 5, "gcd", 3, 0.1),     # a decorated function starts at its decorator
        (str(source), 10, "__mul__", 7, 0.1),
    ])
    counts = measure.call_counts(stats, {
        "polyq_mul": ("exactnum", "PolyQ.__mul__"),
        "polyq_gcd": ("exactnum", "PolyQ.gcd"),
        "rf_mul": ("exactnum", "RationalFunctionQ.__mul__"),
        "absent": ("series", "TruncatedXSeries.log"),
    })
    assert counts == {"polyq_mul": 4, "polyq_gcd": 3, "rf_mul": 7, "absent": 0}


def test_call_counts_from_a_real_profile():
    from nilorb.exactnum import PolyQ

    a, b = PolyQ([-1, 0, 1]), PolyQ([1, 1])
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(3):
        a.gcd(b)
    profiler.disable()
    profiler.create_stats()
    counts = measure.call_counts(profiler.stats, bench.CALL_TARGETS)
    assert counts["calls.polyq_gcd"] == 3
    assert counts["calls.fraction_new"] > 0
    assert counts["calls.mat_mul"] == 0


# ---------------------------------------------------------------------------
# the correctness check and its negative controls


def _request(rid):
    for workload in bench.load_workloads():
        for request in bench.expand(workload["requests"], workload.get("cache", False)):
            if request.rid == rid:
                return request
    raise KeyError(rid)


def test_every_request_has_a_reference_digest():
    references = bench.load_references()
    for workload in bench.load_workloads():
        requests = bench.expand(workload["requests"], workload.get("cache", False))
        assert {r.rid for r in requests} <= references.keys()


def test_cache_hit_workload_shape():
    (workload,) = [w for w in bench.load_workloads() if w["name"] == "cache-hit"]
    requests = bench.expand(workload["requests"], cache=True)
    stored = {tuple(item["args"][:-2]) for item in workload["prepare"]}
    misses = [r for r in requests if r.args[:-2] not in stored]
    assert len(requests) >= 100
    assert len({r.args[:-2] for r in misses}) == len(misses) == 12


@pytest.fixture(scope="module")
def real_outcomes():
    """Outcomes of real requests: pretty, json, and the perturbed control."""
    rids = [
        "oracle --check nilcount-total --n 3 --q 2",
        "oracle --check M --g 2 --n 2 --q 2 --format json",
        "verify kwi --g 2 --N 5 --Q 20 --perturb 2,1,1",
    ]
    with bench.Runner(time.monotonic() + 120) as runner:
        return [runner.request(_request(rid)) for rid in rids]


def _with(outcome, **changes):
    fields = dict(vars(outcome), **changes)
    return bench.Outcome(**fields)


def test_real_outputs_pass(real_outcomes):
    references = bench.load_references()
    assert [o.exit for o in real_outcomes] == [0, 0, 1]
    assert all(bench.passed(o, references) for o in real_outcomes)
    assert bench.fail_ratio(real_outcomes, references).value == 0.0
    assert all(o.rss_mb > 0 and o.seconds > 0 for o in real_outcomes)


def test_timing_field_is_not_compared(real_outcomes):
    references = bench.load_references()
    outcome = real_outcomes[1]
    envelope = json.loads(outcome.stdout)
    envelope["timing_ms"] += 1000
    assert bench.passed(_with(outcome, stdout=json.dumps(envelope).encode()), references)


def test_corrupted_output_raises_fail_ratio(real_outcomes):
    references = bench.load_references()
    pretty, as_json, _ = real_outcomes
    corrupted = [
        _with(pretty, stdout=pretty.stdout.replace(b"64", b"65")),
        _with(as_json, stdout=as_json.stdout.replace(b'"engine": 5', b'"engine": 6')),
        _with(as_json, stdout=as_json.stdout[:-10]),
    ]
    for bad in corrupted:
        assert bad.stdout not in (pretty.stdout, as_json.stdout)
        assert not bench.passed(bad, references)
    ratio = bench.fail_ratio(real_outcomes + corrupted, references)
    assert (ratio.part, ratio.base) == (3, 6)


def test_unexpected_exit_code_raises_fail_ratio(real_outcomes):
    references = bench.load_references()
    pretty, _, perturbed = real_outcomes
    # the perturbed control passes only by failing its verification
    wrong = [_with(perturbed, exit=0), _with(pretty, exit=3)]
    assert not any(bench.passed(o, references) for o in wrong)
    assert bench.fail_ratio(wrong, references).value == 1.0


def test_request_past_the_deadline_is_killed():
    with bench.Runner(time.monotonic() + 0.5) as runner:
        code, seconds, _, _ = runner.spawn(
            [sys.executable, "-c", "import time; time.sleep(30)"])
    assert code < 0 and seconds < 10


# ---------------------------------------------------------------------------
# the command


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "no program sources" in proc.stderr


def test_unknown_workload_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        bench.main(["--workload", "no-such-workload"])
    assert exc.value.code == 2

import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import nilorb
from nilorb import KINDS, checks, cli, fforacle, partitions, pipeline
from nilorb.exactnum import InternalCheckError, PolyQ
from nilorb.pipeline import CountingPolynomial

GOLDEN_PRETTY = {
    1: "1",
    2: "2q",
    3: "q^4 + 3q^2 + 2q",
    4: "q^9 + q^7 + q^6 + 4q^5 + 2q^4 + 7q^3 + 4q^2 + 2q",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_pretty_single(capsys):
    for n, expected in GOLDEN_PRETTY.items():
        code, out, _ = run(capsys, "compute", "--kind", "A", "--g", "2",
                           "--n", str(n), "--no-cache")
        assert code == 0
        assert out.strip() == expected


def test_compute_json_sequence_structure(capsys):
    code, out, _ = run(capsys, "compute", "--kind", "M", "--g", "2",
                       "--N", "2", "--format", "json", "--no-cache")
    assert code == 0
    payload = json.loads(out)
    coeffs = [p["coeffs"] for p in payload["outputs"]["polynomials"]]
    assert coeffs == [["1"], ["1"], ["1", "2"]]
    assert payload["parameters"] == {"kind": "M", "g": 2, "N": 2}
    assert payload["engine_version"]


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--kind", "A", "--g", "2",
                       "--n", "3", "--format", "csv", "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,g,n,s,coefficient"
    assert lines[1:] == [
        "A,2,3,0,0",
        "A,2,3,1,2",
        "A,2,3,2,3",
        "A,2,3,3,0",
        "A,2,3,4,1",
    ]


def test_compute_h_kind(capsys):
    code, out, _ = run(capsys, "compute", "--kind", "H", "--g", "2",
                       "--n", "1", "--no-cache")
    assert code == 0
    assert out.strip() == "(1) / (q - 1)"
    code, out, _ = run(capsys, "compute", "--kind", "H", "--g", "2",
                       "--n", "2", "--format", "json", "--no-cache")
    item = json.loads(out)["outputs"]["rational_functions"][0]
    assert item["num_coeffs"] == ["1", "4", "4"]
    assert item["den_coeffs"] == ["-2", "0", "2"]


def test_compute_h_csv_is_usage_error(capsys):
    code, out, err = run(capsys, "compute", "--kind", "H", "--g", "2",
                         "--n", "1", "--format", "csv", "--no-cache")
    assert (code, out, err) == (2, "", "nilorb: csv output is only defined for polynomial kinds\n")


def test_internal_check_failure_exits_3(capsys, monkeypatch):
    # every integer option is >= 1, so no input reaches a division by zero:
    # one is an engine defect too (exit 3), never a usage error (exit 2)
    for error in (InternalCheckError, ZeroDivisionError):
        def broken(kind, g, n):
            raise error("routes disagree")

        monkeypatch.setattr(pipeline, "counting_value", broken)
        code, out, err = run(capsys, "compute", "--kind", "A", "--g", "2",
                             "--n", "3", "--no-cache")
        assert (code, out, err) == (3, "", "nilorb: internal assertion failed: routes disagree\n")


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # a request too large for the memory (A at g = 10^11 asks for a list of
    # about 10^11 coefficients) is refused like a size guard, in one line
    # with exit 2, never with a traceback and exit 1, which says that a
    # verification failed; the error is raised here, no memory is spent
    for error, line in ((MemoryError(), "out of memory"), (MemoryError("no room"), "no room")):
        def exhausted(kind, g, mode, value):
            raise error

        monkeypatch.setattr(pipeline, "request_outputs", exhausted)
        code, out, err = run(capsys, "compute", "--kind", "A", "--g", "99999999999",
                             "--n", "2", "--no-cache")
        assert (code, out, err) == (2, "", f"nilorb: {line}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the full device /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_a_result_that_cannot_be_written_exits_2(nilorb_env, unbuffered, fmt):
    # every write to /dev/full fails: buffered, at main's flush, unbuffered,
    # at the print itself; either way main says so in one line and exits 2,
    # and nothing is left to fail again at interpreter exit
    env = {k: v for k, v in nilorb_env.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["compute", "--kind", "A", "--g", "2", "--n", "3", "--no-cache", "--format", fmt]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "nilorb", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2, "nilorb: cannot write the result: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the full device /dev/full")
def test_a_diagnostic_that_cannot_be_written_changes_nothing(nilorb_env, tmp_path):
    # a usage error still exits 2, and a result that could not be cached is
    # still printed, when standard error refuses every write
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    runs = [(2, "", ["frobnicate"]),
            (0, GOLDEN_PRETTY[3] + "\n",
             ["compute", "--kind", "A", "--g", "2", "--n", "3", "--cache-dir", str(not_a_dir)])]
    for code, out, argv in runs:
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "nilorb", *argv], stdout=subprocess.PIPE,
                                  stderr=full, text=True, env=nilorb_env, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out), argv


def spawn_nilorb(env, argv, closed: int, other_to) -> int:
    """Exit code of ``python -m nilorb argv`` started with descriptor
    ``closed`` (1 or 2) closed and the other of the two on the file
    ``other_to``."""
    actions = [(os.POSIX_SPAWN_CLOSE, closed),
               (os.POSIX_SPAWN_OPEN, 3 - closed, str(other_to), os.O_WRONLY | os.O_CREAT, 0o600)]
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "nilorb", *argv], env,
                         file_actions=actions)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"{argv} still ran after 60 s")
        time.sleep(0.01)
    return os.waitstatus_to_exitcode(done[1])


def test_a_closed_stream_gets_the_documented_exit(nilorb_env, tmp_path):
    # with no standard output the result is refused as one that cannot be
    # written; with no standard error a diagnostic is dropped, never printed
    # on standard output, and the exit code is kept
    compute = ["compute", "--kind", "A", "--g", "2", "--n", "3", "--no-cache"]
    runs = [(1, compute, 2, "nilorb: cannot write the result: standard output is closed\n"),
            (2, compute, 0, GOLDEN_PRETTY[3] + "\n"),
            (2, ["frobnicate"], 2, "")]
    for i, (closed, argv, code, other) in enumerate(runs):
        other_to = tmp_path / f"fd{3 - closed}_{i}"
        assert spawn_nilorb(nilorb_env, argv, closed, other_to) == code, (closed, argv)
        assert other_to.read_text() == other, (closed, argv)


def test_compute_rejects_invalid_g(capsys):
    code, _, _ = run(capsys, "compute", "--kind", "A", "--g", "0", "--n", "1")
    assert code == 2


def test_json_payload_is_canonical_and_deterministic(capsys):
    code, out1, _ = run(capsys, "compute", "--kind", "A", "--g", "2",
                        "--n", "5", "--format", "json", "--no-cache")
    assert code == 0
    parsed = json.loads(out1)
    assert cli.canonical_json(parsed) == out1.strip()
    _, out2, _ = run(capsys, "compute", "--kind", "A", "--g", "2",
                     "--n", "5", "--format", "json", "--no-cache")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(tmp_path, capsys):
    args = ["compute", "--kind", "A", "--g", "2", "--n", "6",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    code, out2, _ = run(capsys, *args)
    assert code == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_cache_corruption_recovers(tmp_path, capsys):
    args = ["compute", "--kind", "A", "--g", "2", "--n", "3",
            "--cache-dir", str(tmp_path)]
    run(capsys, *args)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{not json")
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out.strip() == GOLDEN_PRETTY[3]
    assert "ignoring unreadable cache entry" in err


def _edit_coefficients(entry):
    entry["outputs"]["polynomials"][0]["coeffs"] = ["0", "0", "7"]
    return entry


def _without(field):
    return lambda entry: {key: v for key, v in entry.items() if key != field}


@pytest.mark.parametrize("corrupt, reason", [
    (lambda entry: {**entry, "outputs": {"polys": []}}, "outputs digest mismatch"),
    (_edit_coefficients, "outputs digest mismatch"),
    (_without("sha256"), "'sha256'"),
    (lambda entry: {**entry, "sha256": 7}, "outputs digest mismatch"),
    (_without("outputs"), "'outputs'"),
    (_without("engine_source"), "'engine_source'"),
    (lambda entry: [], "not a JSON object"),
    (lambda entry: "entry", "not a JSON object"),
    (lambda entry: None, "not a JSON object"),
], ids=["outputs-replaced", "coefficient-edited", "digest-missing", "digest-ill-typed",
        "outputs-missing", "source-missing", "json-list", "json-string", "json-null"])
def test_cache_entry_that_parses_but_is_corrupt_is_recomputed(tmp_path, capsys, corrupt, reason):
    args = ["compute", "--kind", "A", "--g", "2", "--n", "3", "--cache-dir", str(tmp_path)]
    code, expected, _ = run(capsys, *args[:-2], "--no-cache")
    assert (code, expected) == (0, GOLDEN_PRETTY[3] + "\n")
    assert run(capsys, *args) == (0, expected, "")
    path = cli._cache_file(tmp_path, "A", 2, "n", 3)
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    warning = f"nilorb: ignoring unreadable cache entry {path}: {reason}\n"
    assert run(capsys, *args) == (0, expected, warning)
    # the recomputed entry replaced the corrupt one
    assert run(capsys, *args) == (0, expected, "")


def test_cache_entry_holds_its_source_digest_outputs_and_one_digest(tmp_path):
    outputs = {"polynomials": []}
    cli.cache_store(tmp_path, "A", 2, "n", 3, outputs)
    entry = json.loads(cli._cache_file(tmp_path, "A", 2, "n", 3).read_text())
    assert entry == {"engine_source": cli._engine_source_digest(), "outputs": outputs,
                     "sha256": cli._entry_digest("A", 2, "n", 3, outputs)}
    # the digest covers the key: no two keys share it
    keys = [(kind, g, mode, value) for kind in KINDS for g in (2, 3) for mode in "nN"
            for value in (3, 4)]
    assert len({cli._entry_digest(*key, outputs) for key in keys}) == len(keys)


@pytest.mark.parametrize("source, target", [
    (("A", 2, "n", 3), ("A", 2, "n", 4)),
    (("A", 2, "n", 3), ("A", 2, "N", 3)),
    (("A", 2, "n", 3), ("I", 2, "n", 3)),
    (("A", 2, "n", 3), ("A", 3, "n", 3)),
], ids=["value", "mode", "kind", "g"])
def test_cache_entry_under_another_keys_name_is_recomputed(tmp_path, capsys, source, target):
    # an entry copied from n3's name to n4's is well formed and from these
    # sources, but stored for another key: its digest says so
    def argv(kind, g, mode, value):
        return ["compute", "--kind", kind, "--g", str(g), f"--{mode}", str(value),
                "--format", "json", "--cache-dir", str(tmp_path)]

    def result(code, out, err):
        envelope = json.loads(out)
        envelope.pop("timing_ms")
        return code, envelope, err

    assert run(capsys, *argv(*source))[0] == 0
    code, expected, _ = result(*run(capsys, *argv(*target)[:-2], "--no-cache"))
    assert code == 0
    path = cli._cache_file(tmp_path, *target)
    shutil.copy(cli._cache_file(tmp_path, *source), path)
    warning = f"nilorb: ignoring unreadable cache entry {path}: outputs digest mismatch\n"
    assert result(*run(capsys, *argv(*target))) == (0, expected, warning)
    assert result(*run(capsys, *argv(*target))) == (0, expected, "")


def test_cache_entry_nested_past_the_parser_is_recomputed(tmp_path, capsys):
    # JSON nested deeper than the parser recurses raises RecursionError,
    # which is a warning too, never a traceback
    path = cli._cache_file(tmp_path, "A", 2, "n", 3)
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.cache_load(tmp_path, "A", 2, "n", 3) is None
    warning = capsys.readouterr().err
    assert warning.startswith(f"nilorb: ignoring unreadable cache entry {path}: ")
    assert "recursion" in warning


@settings(max_examples=100, deadline=None)
@given(st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                    max_leaves=8))
def test_no_json_value_in_an_entry_raises(tmp_path_factory, value):
    # any JSON value at an entry's path, or as its outputs and digest, is a
    # miss, and none raises
    root = tmp_path_factory.getbasetemp()
    path = cli._cache_file(root, "A", 2, "n", 3)
    for content in (value, {"engine_source": cli._engine_source_digest(), "outputs": value,
                            "sha256": value}):
        path.write_text(json.dumps(content))
        assert cli.cache_load(root, "A", 2, "n", 3) is None


def test_cache_dir_that_is_a_file_still_prints_the_result(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run(capsys, "compute", "--kind", "A", "--g", "2", "--n", "3",
                         "--cache-dir", str(not_a_dir))
    assert code == 0
    assert out.strip() == GOLDEN_PRETTY[3]
    assert err.startswith(f"nilorb: result not cached in {not_a_dir}: ")


def test_directory_at_an_entry_path_is_a_miss(tmp_path, capsys):
    entry = cli._cache_file(tmp_path, "A", 2, "n", 3)
    entry.mkdir()
    code, out, err = run(capsys, "compute", "--kind", "A", "--g", "2", "--n", "3",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.strip() == GOLDEN_PRETTY[3]
    warnings = err.splitlines()
    assert warnings[0].startswith(f"nilorb: ignoring unreadable cache entry {entry}: ")
    assert warnings[1].startswith(f"nilorb: result not cached in {tmp_path}: ")
    assert len(warnings) == 2 and entry.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]  # no temporary file left


def test_no_home_directory_needs_a_cache_dir_only_when_caching(capsys, monkeypatch):
    # Path.home raises RuntimeError when HOME is unset and the user id has no
    # account entry; --no-cache never asks for it, the cache is a usage error
    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("NILORB_CACHE", raising=False)
    monkeypatch.setattr(cli.Path, "home", classmethod(no_home))
    compute = ["compute", "--kind", "A", "--g", "2", "--n", "3"]
    assert run(capsys, *compute, "--no-cache") == (0, GOLDEN_PRETTY[3] + "\n", "")
    message = ("nilorb: no home directory to keep the cache in: "
               "give --cache-dir or set NILORB_CACHE\n")
    for argv in (compute, ["cache", "path"], ["cache", "list"], ["cache", "clear"]):
        assert run(capsys, *argv) == (2, "", message), argv


def test_cache_clear_reports_an_entry_it_cannot_remove(tmp_path, capsys):
    # an entry that cannot be removed (a directory at n3) stops no other
    n2, n3, n4 = (cli._cache_file(tmp_path, "A", 2, "n", n) for n in (2, 3, 4))
    n2.write_text("{}")
    n3.mkdir()
    n4.write_text("{}")
    code, out, err = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    removed, failure = err.splitlines()
    assert removed == "removed 2 cache entries"
    assert failure.startswith("nilorb: ") and str(n3) in failure
    assert [p.name for p in tmp_path.iterdir()] == [n3.name] and n3.is_dir()


def test_cache_entry_names_differ_in_more_than_case(tmp_path):
    # a case-insensitive file system (the macOS and Windows defaults) would
    # store --n 3 and --N 3 as one file, and each would evict the other
    for kind in KINDS:
        names = {cli._cache_file(tmp_path, kind, 2, mode, 3).name.lower() for mode in "nN"}
        assert len(names) == 2, kind


def test_cache_entry_of_another_engine_version_is_not_read(tmp_path, capsys, monkeypatch):
    # the version is in the entry's name alone: an entry stored under one
    # version is never opened under another
    monkeypatch.setattr(cli, "ENGINE_VERSION", "0.0.0")
    cli.cache_store(tmp_path, "A", 2, "n", 3, {"polynomials": []})
    stored = cli._cache_file(tmp_path, "A", 2, "n", 3)
    assert cli.cache_load(tmp_path, "A", 2, "n", 3) == {"polynomials": []}
    monkeypatch.setattr(cli, "ENGINE_VERSION", nilorb.__version__)
    assert cli._cache_file(tmp_path, "A", 2, "n", 3) != stored
    assert cli.cache_load(tmp_path, "A", 2, "n", 3) is None
    assert capsys.readouterr().err == ""
    assert [path.name for path in tmp_path.iterdir()] == [stored.name]


def test_cache_engine_source_change_is_miss(tmp_path, capsys, monkeypatch):
    cli.cache_store(tmp_path, "A", 2, "n", 3, {"polynomials": []})
    assert cli.cache_load(tmp_path, "A", 2, "n", 3) == {"polynomials": []}
    monkeypatch.setattr(cli, "_engine_source_digest", lambda: "0" * 64)
    assert cli.cache_load(tmp_path, "A", 2, "n", 3) is None
    assert capsys.readouterr().err == ""  # a stale entry is a silent miss


def test_version_does_not_digest_the_sources(capsys):
    cli._engine_source_digest.cache_clear()
    assert run(capsys, "--version")[0] == 0
    assert cli._engine_source_digest.cache_info().misses == 0


def test_source_digest_falls_back_through_each_sha256(monkeypatch):
    import hashlib
    import types

    expected = cli._engine_source_digest.__wrapped__()
    used = []
    sha2 = types.ModuleType("_sha2")
    sha2.sha256 = lambda: used.append("_sha2") or hashlib.sha256()
    monkeypatch.setitem(sys.modules, "_sha256", None)  # as on Python 3.12+
    monkeypatch.setitem(sys.modules, "_sha2", sha2)
    assert cli._engine_source_digest.__wrapped__() == expected
    assert used == ["_sha2"]
    monkeypatch.setitem(sys.modules, "_sha2", None)  # neither: hashlib
    assert cli._engine_source_digest.__wrapped__() == expected


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NILORB_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "compute", "--kind", "A", "--g", "2", "--n", "2")
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    code, out, _ = run(capsys, "cache", "path")
    assert out.strip() == str(tmp_path)
    code, out, _ = run(capsys, "cache", "list")
    assert "A_g2_n2" in out
    code, _, err = run(capsys, "cache", "clear")
    assert code == 0
    assert not list(tmp_path.glob("*.json"))


def test_cache_list_and_clear_touch_only_cache_entries(tmp_path, capsys):
    # files nilorb never wrote share the directory with one entry
    foreign = [tmp_path / "notes.json", tmp_path / "settings.json", tmp_path / "v1.json"]
    for path in foreign:
        path.write_text("{}")
    code, _, _ = run(capsys, "compute", "--kind", "A", "--g", "2", "--n", "2",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    entry = cli._cache_file(tmp_path, "A", 2, "n", 2)
    code, out, _ = run(capsys, "cache", "list", "--cache-dir", str(tmp_path))
    assert code == 0 and out == f"{entry.name}\n"
    code, _, err = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0 and err == "removed 1 cache entries\n"
    assert sorted(tmp_path.iterdir()) == sorted(foreign)


@pytest.mark.parametrize("kind", ["A", "I", "M", "H"])
def test_pretty_cache_hit_matches_uncached(tmp_path, capsys, kind):
    args = ["compute", "--kind", kind, "--g", "2", "--N", "3", "--format", "pretty"]
    code, uncached, _ = run(capsys, *args, "--no-cache")
    assert code == 0
    expected = ["M_2(0,q) = 1"] if kind == "M" else []
    for n in range(1, 4):
        expected.append(f"H_2({n},q) = {pipeline.log_weight_coefficient(2, n)}" if kind == "H"
                        else str(pipeline.counting_value(kind, 2, n)))
    assert uncached == "\n".join(expected) + "\n"
    cached = args + ["--cache-dir", str(tmp_path)]
    assert run(capsys, *cached)[1] == uncached
    assert len(list(tmp_path.glob("*.json"))) == 1
    code, hit, _ = run(capsys, *cached)
    assert code == 0
    assert hit == uncached


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "kwi", "--g", "2", "--N", "3", "--Q", "12")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "verify", "kwi", "--g", "2", "--N", "3",
                       "--Q", "12", "--perturb", "2,1,1")
    assert code == 1
    assert "FAIL" in out and "X^2" in out


def test_verify_kwi_at_n8_and_its_negative_controls(capsys):
    code, out, _ = run(capsys, "verify", "kwi", "--g", "2", "--N", "8", "--Q", "30")
    assert code == 0 and "PASS" in out
    for perturb in ("2,1,1", "2,1,-5"):
        code, out, _ = run(capsys, "verify", "kwi", "--g", "2", "--N", "8", "--Q", "30",
                           "--perturb", perturb)
        assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("perturb", ["2,9,1", "2,1,0"])
def test_verify_kwi_rejects_perturbations_that_change_nothing(capsys, perturb):
    # s > Q lies past the q-window and delta = 0 changes no exponent: either
    # control would pass, so both are usage errors
    code, out, err = run(capsys, "verify", "kwi", "--g", "2", "--N", "3", "--Q", "6",
                         "--perturb", perturb)
    assert code == 2 and "PASS" not in out
    assert "outside the verified window" in err


def test_verify_json_mismatch_payload(capsys):
    # a failed check prints its whole result, then exits 1
    code, out, err = run(capsys, "verify", "kwi", "--g", "2", "--N", "3",
                         "--Q", "12", "--perturb", "2,1,1", "--format", "json")
    assert (code, err) == (1, "")
    envelope = json.loads(out)
    assert envelope["parameters"] == {"identity": "kwi", "g": 2, "N": 3, "Q": 12,
                                      "perturb": [2, 1, 1]}
    report = envelope["outputs"]["report"]
    assert envelope["reports"] == [report]
    assert report == {"identity": "kwi", "g": 2, "x_order": 3, "q_order": 12, "passed": False,
                      "mismatch": {"x_degree": 2, "q_degree": 1, "lhs": "-1", "rhs": "-2"}}


def test_verify_routes_and_g1(capsys):
    code, _, _ = run(capsys, "verify", "thm5-routes", "--g", "3", "--N", "4")
    assert code == 0
    code, _, _ = run(capsys, "verify", "g1-product", "--N", "4", "--Q", "8")
    assert code == 0


def test_verify_routes_rejects_q(capsys):
    # both route checks compare exact coefficients; a --Q would be recorded
    # in the envelope but truncate nothing
    for identity in ("thm5-routes", "weight-routes"):
        code, out, err = run(capsys, "verify", identity, "--g", "2", "--N", "3",
                             "--Q", "9", "--format", "json")
        assert code == 2 and out == ""
        assert err == f"nilorb: {identity} has no q truncation; omit --Q\n"
        code, out, err = run(capsys, "verify", identity, "--g", "2", "--N", "3",
                             "--perturb", "2,1,1")
        assert code == 2 and out == ""
        assert "--perturb" in err


def test_verify_weight_routes(capsys):
    code, out, _ = run(capsys, "verify", "weight-routes", "--g", "3", "--N", "7")
    assert code == 0
    assert out == "weight-routes (g=3, N=7): PASS\n"
    code, out, _ = run(capsys, "verify", "weight-routes", "--g", "2", "--N", "4",
                       "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["parameters"] == {"identity": "weight-routes", "g": 2, "N": 4, "Q": None}
    assert envelope["outputs"]["report"] == {
        "identity": "weight-routes", "g": 2, "x_order": 4, "q_order": None,
        "passed": True, "mismatch": None}


@pytest.mark.parametrize("argv, message", [
    (["kwi", "--g", "2"], "kwi needs --Q (q truncation order)"),
    (["g1-product"], "g1-product needs --Q (q truncation order)"),
    (["g1-product", "--perturb", "1,1,1"], "g1-product needs --Q (q truncation order)"),
    (["g1-product", "--g", "2", "--Q", "4"],
     "g1-product is the tuple-length-1 identity; omit --g"),
    (["g1-product", "--Q", "4", "--perturb", "1,1,1"],
     "--perturb applies only to the kwi identity"),
    (["thm5-routes", "--Q", "4", "--perturb", "1,1,1"],
     "--perturb applies only to the kwi identity"),
    (["weight-routes", "--g", "2", "--Q", "4"], "weight-routes has no q truncation; omit --Q"),
])
def test_verify_usage_messages(capsys, argv, message):
    for fmt in ("pretty", "json"):
        code, out, err = run(capsys, "verify", *argv, "--N", "3", "--format", fmt)
        assert (code, out, err) == (2, "", f"nilorb: {message}\n"), fmt


def test_verify_usage_errors(capsys):
    code, _, _ = run(capsys, "verify", "kwi", "--g", "2", "--N", "3")
    assert code == 2  # missing --Q
    code, _, _ = run(capsys, "verify", "g1-product", "--g", "2", "--N", "3", "--Q", "4")
    assert code == 2
    code, _, _ = run(capsys, "verify", "nonsense", "--N", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# oracle


def test_oracle_orbit_count(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "M", "--g", "2",
                       "--n", "2", "--q", "2")
    assert code == 0
    assert "engine=5" in out and "oracle=5" in out


def test_oracle_classification(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "IA", "--g", "2",
                       "--n", "3", "--q", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["outputs"]["comparisons"]
    assert [r["oracle"] for r in rows] == [32, 32]
    assert all(r["match"] for r in rows)


def test_oracle_commutant_count(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "nilcount",
                       "--lambda", "2,1", "--f", "x", "--q", "3")
    assert code == 0
    assert "engine=27" in out and "oracle=27" in out


def test_oracle_total_count(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "nilcount-total",
                       "--n", "3", "--q", "2")
    assert code == 0
    assert "engine=64" in out


# negative controls: each check, its oracle side perturbed, must exit 1 and
# flag exactly the perturbed row


def test_oracle_orbit_count_control(capsys, monkeypatch):
    burnside = fforacle.burnside_orbit_count
    monkeypatch.setattr(fforacle, "burnside_orbit_count", lambda *a: burnside(*a) + 1)
    code, out, _ = run(capsys, "oracle", "--check", "M", "--g", "2", "--n", "2", "--q", "2")
    assert code == 1
    assert out.splitlines() == [
        "orbit count (Burnside average)  engine=5  oracle=6  MISMATCH",
        "orbit count (explicit orbits)   engine=5  oracle=5  ok",
    ]


def test_oracle_orbit_count_control_on_the_table(capsys, monkeypatch):
    # Burnside reads its fixed points off the listing's table: undoing one
    # 2-cycle of one permutation (2 -> 4 fixed points of 4) makes the sum at
    # g = 1 indivisible by the group order 6, which Burnside checks first
    tables = fforacle._conjugation_tables

    def more_fixed_points(field, n):
        perms, nil = tables(field, n)
        k = next(k for k, perm in enumerate(perms) if perm != tuple(range(len(nil))))
        perm = list(perms[k])
        i = next(i for i, j in enumerate(perm) if i != j)
        h = perm.index(i)
        perm[i], perm[h] = i, perm[i]
        return perms[:k] + (tuple(perm),) + perms[k + 1:], nil

    monkeypatch.setattr(fforacle, "_conjugation_tables", more_fixed_points)
    code, out, err = run(capsys, "oracle", "--check", "M", "--g", "1", "--n", "2", "--q", "2")
    assert (code, out, err) == (
        3, "", "nilorb: internal assertion failed: "
               "Burnside sum is not divisible by the group order\n")


def test_oracle_classification_control(capsys, monkeypatch):
    counts = fforacle.indecomposability_counts

    def fewer_absolutely_indecomposable(*args):
        i, a = counts(*args)
        return i, a - 1

    monkeypatch.setattr(fforacle, "indecomposability_counts", fewer_absolutely_indecomposable)
    code, out, _ = run(capsys, "oracle", "--check", "IA", "--g", "2", "--n", "2", "--q", "3",
                       "--format", "json")
    assert code == 1
    rows = json.loads(out)["outputs"]["comparisons"]
    assert [(r["quantity"], r["engine"], r["oracle"], r["match"]) for r in rows] == [
        ("indecomposable orbit count", 6, 6, True),
        ("absolutely indecomposable orbit count", 6, 5, False),
    ]


def test_oracle_commutant_count_control(capsys, monkeypatch):
    count = fforacle.nilpotent_commutant_count
    monkeypatch.setattr(fforacle, "nilpotent_commutant_count", lambda *a: count(*a) - 1)
    code, out, _ = run(capsys, "oracle", "--check", "nilcount",
                       "--lambda", "2,1", "--f", "x", "--q", "3")
    assert code == 1
    assert out.splitlines() == ["nilpotent commutant count  engine=27  oracle=26  MISMATCH"]


def test_oracle_total_count_control(capsys, monkeypatch):
    nilpotents = fforacle.nilpotent_matrices
    monkeypatch.setattr(fforacle, "nilpotent_matrices", lambda *a: nilpotents(*a)[1:])
    code, out, _ = run(capsys, "oracle", "--check", "nilcount-total", "--n", "3", "--q", "2",
                       "--format", "json")
    assert code == 1
    rows = json.loads(out)["outputs"]["comparisons"]
    assert rows == [{"quantity": "nilpotent matrix count", "engine": 64, "oracle": 63,
                     "match": False}]


# the oracle only counts, and each closed form is compared once, in the row
# that reports it: a nilpotency test that misses the zero matrix makes a
# MISMATCH row (exit 1), not an internal assertion (exit 3).  It runs in a
# fresh interpreter, so that the enumeration the oracle caches stays out of
# every other test

_MISSES_ZERO = """
import sys
from nilorb import cli, fforacle
nilpotent = fforacle.is_nilpotent
fforacle.is_nilpotent = lambda field, m: any(map(any, m)) and nilpotent(field, m)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, row", [
    (["nilcount-total", "--n", "2", "--q", "2"],
     "nilpotent matrix count  engine=4  oracle=3  MISMATCH"),
    (["nilcount", "--lambda", "2,1", "--f", "x", "--q", "3"],
     "nilpotent commutant count  engine=27  oracle=26  MISMATCH"),
])
def test_oracle_nilpotent_miscount_is_a_mismatch(nilorb_env, argv, row):
    proc = subprocess.run([sys.executable, "-c", _MISSES_ZERO, "oracle", "--check", *argv],
                          capture_output=True, text=True, env=nilorb_env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, row + "\n", "")


# negative controls on the engine side: a value that is not an integer at q
# is a mismatch that shows it exactly, never a value cut to an integer


def plus_q_squared_over_8(count):
    def perturbed(g, n):
        cp = count(g, n)
        return CountingPolynomial(cp.kind, g, n, cp.value * 8 + PolyQ([0, 0, 1]), 8)
    return perturbed


def test_oracle_orbit_count_fails_on_a_non_integral_engine_value(capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "orbit_count", plus_q_squared_over_8(pipeline.orbit_count))
    code, out, _ = run(capsys, "oracle", "--check", "M", "--g", "2", "--n", "2", "--q", "2")
    assert code == 1
    assert out.splitlines() == [
        "orbit count (Burnside average)  engine=11/2  oracle=5  MISMATCH",
        "orbit count (explicit orbits)   engine=11/2  oracle=5  MISMATCH",
    ]


def test_oracle_classification_fails_on_a_non_integral_engine_value(capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "absolutely_indecomposable_count",
                        plus_q_squared_over_8(pipeline.absolutely_indecomposable_count))
    code, out, _ = run(capsys, "oracle", "--check", "IA", "--g", "2", "--n", "2", "--q", "3",
                       "--format", "json")
    assert code == 1
    rows = json.loads(out)["outputs"]["comparisons"]
    assert [(r["quantity"], r["engine"], r["oracle"], r["match"]) for r in rows] == [
        ("indecomposable orbit count", 6, 6, True),
        ("absolutely indecomposable orbit count", "57/8", 6, False),
    ]


def test_oracle_orbit_count_classifies_no_orbit(capsys, monkeypatch):
    def classified(*args):
        raise LookupError("an orbit was classified")

    monkeypatch.setattr(fforacle, "_endomorphism_profile", classified)
    code, out, _ = run(capsys, "oracle", "--check", "M", "--g", "3", "--n", "2", "--q", "3")
    assert code == 0 and out.count(" ok\n") == 2
    with pytest.raises(LookupError):
        run(capsys, "oracle", "--check", "IA", "--g", "3", "--n", "2", "--q", "3")


def test_oracle_guard_is_usage_error(capsys):
    # one size past the guard at n = 1, q = 2 and q = 7, and two sizes it
    # never admits; at n = 1 the refusal comes before any g-tuple is built
    n1_past = fforacle._ORBIT_REACH_N1 + 1
    for n, q, g in ((3, 3, 2), (2, 2, 8), (2, 7, 3), (2, 8, 1), (1, 9, n1_past), (1, 2, 10 ** 9)):
        with pytest.raises(fforacle.SizeGuardError) as guard:
            fforacle.burnside_orbit_count(fforacle.FieldSpec.of(q), n, g)
        code, _, err = run(capsys, "oracle", "--check", "M", "--g", str(g),
                           "--n", str(n), "--q", str(q))
        assert code == 2
        assert err == f"nilorb: orbit enumeration at n={n}, q={q}, g={g} exceeds the guard\n"
        assert err == f"nilorb: {guard.value}\n"


def test_oracle_commutant_guard_is_usage_error(capsys, monkeypatch):
    # M_4(F_3), the commutant of a scalar 4 x 4 matrix, has 3^16 elements;
    # the guard refuses it before ``_span`` builds the first, so a guard that
    # let it through fails here at once, not after an hour of enumeration
    def built(n):
        raise LookupError("an element of the commutant was built")

    monkeypatch.setattr(fforacle, "zero_matrix", built)
    for f in ("x", "x+1", "x+2"):
        code, out, err = run(capsys, "oracle", "--check", "nilcount", "--lambda", "1,1,1,1",
                             "--f", f, "--q", "3")
        assert (code, out, err) == (
            2, "", "nilorb: commutant algebra with 3^16 elements exceeds the guard\n")


@pytest.mark.parametrize("lam, f, q, order", [
    ("1", "x^35+x^2+1", "2", 35),
    ("4000000", "x", "3", 4000000),
    ("1", "x^10000000", "2", 10000000),
])
def test_oracle_commutant_order_guard_runs_first(capsys, monkeypatch, lam, f, q, order):
    # the engine's exponent (an inner product) grows as the largest part,
    # and f's coefficient list, which the count is given, as deg f; the order
    # guard refuses before either is built (the count's own trial division of
    # f is pinned in test_fforacle)
    def reached(*args):
        raise LookupError("work that grows with the input ran before the guard")

    monkeypatch.setattr(partitions, "nilpotent_commutant_exponent", reached)
    monkeypatch.setattr(fforacle, "nilpotent_commutant_count", reached)
    code, out, err = run(capsys, "oracle", "--check", "nilcount", "--lambda", lam,
                         "--f", f, "--q", q)
    assert (code, out, err) == (
        2, "", f"nilorb: commutant enumeration at order {order} over q={q} exceeds the guard\n")


def test_oracle_nilcount_compares_the_engines_exponent(capsys, monkeypatch):
    # the row's engine value is q^(deg f * e(lam)) with e from the engine's
    # partitions module, the exponent its orbit weights use: one more in e
    # is a mismatch (exit 1), not a value the row computed on its own
    argv = ["oracle", "--check", "nilcount", "--lambda", "2,1", "--f", "x", "--q", "3"]
    rows = "nilpotent commutant count  engine={}  oracle=27  {}\n"
    assert run(capsys, *argv) == (0, rows.format(27, "ok"), "")
    exponent = partitions.nilpotent_commutant_exponent
    monkeypatch.setattr(partitions, "nilpotent_commutant_exponent",
                        lambda lam: exponent(lam) + 1)
    assert run(capsys, *argv) == (1, rows.format(81, "MISMATCH"), "")


def test_oracle_matrix_guard_runs_before_the_closed_form(nilorb_env):
    # 3^(n^2 - n) at n = 4000 has about 7.6 million digits; the matrix guard
    # must refuse before it is computed, well within the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "nilorb", "oracle", "--check", "nilcount-total",
         "--n", "4000", "--q", "3"],
        capture_output=True, text=True, env=nilorb_env, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "nilorb: enumerating 3^16000000 matrices exceeds the desk-scale guard\n")


def test_oracle_field_guard_runs_before_any_work(nilorb_env):
    # 1,000,000,007 is a prime: the field table refuses it by lookup, where
    # a search for its smallest divisor would run past the timeout, for the
    # closed-form count and for the orbit enumeration alike
    for check in (["nilcount-total", "--n", "1"], ["M", "--g", "1", "--n", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "nilorb", "oracle", "--check", *check, "--q", "1000000007"],
            capture_output=True, text=True, env=nilorb_env, timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "nilorb: fields beyond 9 elements are not supported (q=1000000007)\n"), check


def test_oracle_missing_arguments(capsys):
    code, _, _ = run(capsys, "oracle", "--check", "nilcount", "--q", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# conjecture scan


def test_scan_command(capsys):
    code, out, _ = run(capsys, "conjecture-scan", "--g", "2", "--Nmax", "4")
    assert code == 0
    assert "all coefficients nonnegative" in out
    code, out, _ = run(capsys, "conjecture_scan", "--g", "2", "--Nmax", "2",
                       "--format", "json")
    assert code == 0
    scan = json.loads(out)["outputs"]["scan"]
    assert scan["all_nonnegative"] is True
    assert scan["negative_terms"] == []


# ---------------------------------------------------------------------------
# the command contract: every command's JSON is the one six-key envelope
# under its canonical name (failed checks and usage errors are tested with
# their commands above)


ENVELOPE_KEYS = {"command", "engine_version", "parameters", "outputs", "reports", "timing_ms"}
CONTRACT_RUNS = {
    "compute": ["compute", "--kind", "M", "--g", "2", "--N", "3", "--no-cache"],
    "verify": ["verify", "kwi", "--g", "2", "--N", "3", "--Q", "6"],
    "oracle": ["oracle", "--check", "M", "--g", "2", "--n", "2", "--q", "2"],
    "conjecture-scan": ["conjecture-scan", "--g", "2", "--Nmax", "3"],
    "conjecture_scan": ["conjecture_scan", "--g", "2", "--Nmax", "3"],
}


@pytest.mark.parametrize("given", sorted(CONTRACT_RUNS))
def test_json_envelope_has_six_keys_under_the_canonical_name(capsys, given):
    code, out, err = run(capsys, *CONTRACT_RUNS[given], "--format", "json")
    assert (code, err) == (0, "")
    envelope = json.loads(out)
    assert set(envelope) == ENVELOPE_KEYS
    assert envelope["command"] == given.replace("_", "-")
    assert envelope["engine_version"] == nilorb.__version__
    assert out == cli.canonical_json(envelope) + "\n"


# ---------------------------------------------------------------------------
# the parser: every usage error is one line on standard error and exit 2


COMPUTE = ["compute", "--kind", "A", "--g", "2", "--n", "3", "--no-cache"]


@pytest.mark.parametrize("argv, problem", [
    ([], "missing command"),
    (["frobnicate"], "unknown command 'frobnicate'"),
    (["comptue", *COMPUTE[1:]], "unknown command 'comptue'"),
    ([*COMPUTE, "--colour", "red"], "unknown option '--colour'"),
    ([*COMPUTE, "--form", "json"], "unknown option '--form'"),
    (["compute", "--kind", "A", "--n", "3", "--g"], "--g needs a value"),
    (["compute", "--kind", "A", "--g", "x", "--n", "3"], "--g: not an integer: 'x'"),
    (["compute", "--kind", "A", "--g", "0", "--n", "3"], "--g: must be >= 1, got 0"),
    (["compute", "--kind", "B", "--g", "2", "--n", "3"], "--kind: invalid choice 'B'"),
    ([*COMPUTE, "--format", "xml"], "--format: invalid choice 'xml'"),
    (["verify", "nonsense", "--N", "3"], "identity: invalid choice 'nonsense'"),
    (["verify", "--N", "3"], "missing identity"),
    (["cache", "list", "clear"], "unexpected argument 'clear'"),
    ([*COMPUTE, "--N", "3"], "give exactly one of --n and --N"),
    (["compute", "--kind", "A", "--g", "2"], "give exactly one of --n and --N"),
    (["compute", "--g", "2", "--n", "3"], "missing --kind"),
    (["oracle", "--check", "nilcount", "--lambda", "2,x", "--f", "x", "--q", "3"],
     "--lambda: bad partition '2,x'"),
    (["verify", "kwi", "--g", "2", "--N", "3", "--Q", "6", "--perturb", "1,2"],
     "--perturb: perturbation must be 'n,s,delta'"),
    # an empty value is no value, so it never falls through to a default
    (["compute", "--kind", "A", "--g", "2", "--n", "3", "--cache-dir="], "--cache-dir needs a value"),
    (["compute", "--kind", "A", "--g", "2", "--n", "3", "--cache-dir", ""],
     "--cache-dir needs a value"),
    (["compute", "--kind=", "A", "--g", "2", "--n", "3"], "--kind needs a value"),
    ([*COMPUTE, "--no-cache=x"], "--no-cache takes no value"),
    # the terms must make up the whole text of --f: none is dropped unread
    *((["oracle", "--check", "nilcount", "--lambda", "2,1", "--f", f, "--q", "3"],
       f"cannot parse polynomial {f!r}") for f in ("x+", "x--", "+", "x^2--1", "x^2++x", " ")),
    (["oracle", "--check", "nilcount", "--lambda", "1", "--f", "2y", "--q", "3"],
     "cannot parse term '2y' in '2y'"),
    # each oracle check takes its own options, and refuses the others
    (["oracle", "--check", "M", "--n", "2", "--q", "2"], "--check M needs --g and --n"),
    (["oracle", "--check", "nilcount", "--f", "x", "--q", "2"],
     "--check nilcount needs --lambda and --f"),
    (["oracle", "--check", "nilcount-total", "--q", "2"], "--check nilcount-total needs --n"),
    (["oracle", "--check", "nilcount-total", "--n", "2", "--q", "2", "--g", "5",
      "--lambda", "2,1", "--f", "x"], "--check nilcount-total takes no --g"),
    (["oracle", "--check", "M", "--g", "1", "--n", "2", "--q", "2", "--lambda", "3", "--f", "x^2"],
     "--check M takes no --lambda"),
    (["oracle", "--check", "IA", "--g", "1", "--n", "2", "--q", "2", "--f", "x"],
     "--check IA takes no --f"),
    (["oracle", "--check", "nilcount", "--lambda", "2", "--f", "x", "--q", "2", "--n", "2"],
     "--check nilcount takes no --n"),
])
def test_usage_errors_are_one_line_and_exit_2(capsys, monkeypatch, tmp_path, argv, problem):
    # a refused command creates no cache directory
    cache = tmp_path / "cache"
    monkeypatch.setenv("NILORB_CACHE", str(cache))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("nilorb: ") and problem in err and len(err.splitlines()) == 1
    assert not cache.exists()


def test_polynomial_text_parses_term_by_term():
    assert checks._parse_poly_text("x^2+x+1") == {2: 1, 1: 1, 0: 1}
    assert checks._parse_poly_text(" 2x^3 - x + 4 - 1") == {3: 2, 1: -1, 0: 3}


def test_option_forms_and_the_canonical_name(capsys):
    spaced = run(capsys, *COMPUTE, "--format", "csv")
    assert spaced[0] == 0
    joined = ["compute", "--kind=A", "--g=2", "--n=3", "--no-cache", "--format=csv"]
    assert run(capsys, *joined) == spaced
    assert run(capsys, "compute", "--kind", "A", "--g", "5", *COMPUTE[3:], "--format", "csv") \
        == spaced  # the last --g wins
    verify = ["verify", "kwi", "--g", "2", "--N", "3", "--Q", "6"]
    assert run(capsys, "verify", "kwi", "--g=2", "--N=3", "--Q=6") == run(capsys, *verify)
    assert cli._parse(["conjecture_scan", "--g", "2", "--Nmax", "3"]).command == "conjecture-scan"


def test_help_lists_every_command_and_option(capsys):
    code, top, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    for name, aliases, _ in cli._COMMANDS:
        assert all(word in top for word in (name, *aliases)), name
        if name in cli._CHECK_COMMANDS:
            _, arguments = checks.arguments(name)
        else:
            _, arguments = cli._ARGUMENTS[name]
        # every option by its flag, and the positional by its choices
        words = [a.flag if a.flag.startswith("--") else "{" + ",".join(a.choices) + "}"
                 for a in arguments]
        for given in (name, *aliases):
            for flag in ("--help", "-h"):
                code, out, err = run(capsys, given, flag)
                assert (code, err) == (0, ""), (given, flag)
                assert out.startswith(f"usage: nilorb {name} "), (given, flag)
                assert all(word in out for word in words), (given, flag)
    assert run(capsys, "--version") == (0, f"nilorb {nilorb.__version__}\n", "")
    assert nilorb.__version__ == "0.1.0"


# ---------------------------------------------------------------------------
# packaging smoke


def test_module_invocation(nilorb_env):
    proc = subprocess.run(
        [sys.executable, "-m", "nilorb", "--version"],
        capture_output=True, text=True, env=nilorb_env,
    )
    assert proc.returncode == 0
    assert "nilorb" in proc.stdout


def test_entry_point_help(nilorb_env):
    for command in ([], *([name] for name, _, _ in cli._COMMANDS)):
        proc = subprocess.run(
            [sys.executable, "-m", "nilorb", *command, "--help"],
            capture_output=True, text=True, env=nilorb_env,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), command
        assert proc.stdout.startswith(" ".join(["usage: nilorb", *command])), command


# runs the command line through ``cli.entry``, as ``python -m nilorb`` does,
# after registering one exit function and running CONTROL; that function
# reports on standard error how many threads were alive and whether the
# chain was loaded, with no newline, so that only a flush puts it out
_ENTRY = """
import atexit, sys, threading
from nilorb import cli

def report():
    sys.stderr.write(f"exit function: threads {threading.active_count()}, "
                     f"chain {'nilorb.pipeline' in sys.modules}")

atexit.register(report)
CONTROL
cli.entry()
"""


def entry_run(env, *argv, control: str = "") -> subprocess.CompletedProcess:
    env = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", _ENTRY.replace("CONTROL", control), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_left_cleanly(proc, code: int, chain: bool) -> None:
    """``entry`` left with ``code``, once the exit function had run exactly
    once, with the main thread alone, and its report had been flushed."""
    before, _, report = proc.stderr.rpartition("exit function: ")
    assert proc.returncode == code, proc.stderr
    assert report == f"threads 1, chain {chain}", proc.stderr
    assert "exit function: " not in before, proc.stderr


def test_entry_flushes_runs_the_exit_functions_and_keeps_the_code(nilorb_env, tmp_path):
    compute = ["compute", "--kind", "A", "--g", "2", "--n", "3", "--cache-dir", str(tmp_path)]
    stored = entry_run(nilorb_env, *compute)
    assert_left_cleanly(stored, 0, chain=True)
    # the entry the first process stored is whole: the next one is a hit
    hit = entry_run(nilorb_env, *compute)
    assert_left_cleanly(hit, 0, chain=False)
    assert stored.stdout == hit.stdout == GOLDEN_PRETTY[3] + "\n"
    failed = entry_run(nilorb_env, "verify", "kwi", "--g", "2", "--N", "5", "--Q", "20",
                       "--perturb", "2,1,1")
    assert_left_cleanly(failed, 1, chain=True)
    # a usage error is one line on standard error, and nothing on standard output
    for argv in (["frobnicate"], [*compute, "--form", "json"],
                 ["compute", "--kind", "A", "--g", "0", "--n", "3"]):
        usage = entry_run(nilorb_env, *argv)
        assert_left_cleanly(usage, 2, chain=False)
        message = usage.stderr.rpartition("exit function: ")[0]
        assert usage.stdout == "", argv
        assert message.startswith("nilorb: ") and message.find("\n") == len(message) - 1, argv
    # a result several times a pipe's buffer reaches the reader whole
    large = entry_run(nilorb_env, "compute", "--kind", "M", "--g", "30", "--N", "8",
                      "--format", "json", "--no-cache")
    assert_left_cleanly(large, 0, chain=True)
    assert len(large.stdout) > 65536
    assert json.loads(large.stdout)["outputs"]["polynomials"][-1]["n"] == 8


@pytest.mark.parametrize("control", [
    "atexit._run_exitfuncs = lambda: None",  # an entry that skips the exit functions
    "sys.stderr.flush = lambda: None",  # an entry that skips the flush
])
def test_entry_contract_control(nilorb_env, control):
    proc = entry_run(nilorb_env, "--version", control=control)
    with pytest.raises(AssertionError):
        assert_left_cleanly(proc, 0, chain=False)
    assert_left_cleanly(entry_run(nilorb_env, "--version"), 0, chain=False)


# runs each command line of the JSON list argv[1] through ``cli.main`` in
# one interpreter, after CONTROL, prints the exit codes, and then exits
# normally, with the interpreter's teardown
_IN_TURN = """
import contextlib, io, json, os, sys
from nilorb import cli

CONTROL
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(*codes)
"""


def dev_mode_run(env, commands, control: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c",
                           _IN_TURN.replace("CONTROL", control), json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_no_command_leaves_a_resource_for_teardown(nilorb_env, tmp_path):
    # ``entry`` skips the teardown that would warn of a file left open, so
    # every command runs here in a dev-mode process that does tear down,
    # with every warning an error
    cache = ["--cache-dir", str(tmp_path)]
    compute = ["compute", "--kind", "A", "--g", "2", "--n", "3", *cache]
    commands = [compute, compute, ["cache", "list", *cache], ["cache", "clear", *cache],
                ["verify", "kwi", "--g", "2", "--N", "3", "--Q", "9"],
                ["oracle", "--check", "M", "--g", "1", "--n", "2", "--q", "2"],
                ["conjecture-scan", "--g", "2", "--Nmax", "3"], ["--help"]]
    proc = dev_mode_run(nilorb_env, commands)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, " ".join(["0"] * len(commands)) + "\n", "removed 1 cache entries\n")
    # control: a file left open for teardown to close shows
    leaked = dev_mode_run(nilorb_env, [["--version"]], control="cli._left = open(os.devnull)")
    assert "ResourceWarning: unclosed file" in leaked.stderr


# ---------------------------------------------------------------------------
# import cost

# the engine's modules, and the stdlib modules that only a Fraction or a
# dataclass would load
ENGINE_MODULES = {"nilorb.exactnum", "nilorb.partitions", "nilorb.series",
                  "nilorb.pipeline", "nilorb.checks", "nilorb.fforacle",
                  "fractions", "dataclasses"}
CHAIN_MODULES = {"nilorb.exactnum", "nilorb.partitions", "nilorb.series", "nilorb.pipeline"}

# runs one command in a fresh interpreter, then prints its exit code and the
# modules it loaded
_LOADED = """
import contextlib, io, sys
from nilorb import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def modules_loaded(env, *argv) -> tuple[int, set]:
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, env=env, check=True)
    code, *modules = proc.stdout.split()
    return int(code), set(modules)


def engine_modules_loaded(env, *argv) -> set:
    code, modules = modules_loaded(env, *argv)
    assert code == 0, argv
    return modules & ENGINE_MODULES


def test_commands_load_only_the_engine_modules_they_need(tmp_path, nilorb_env):
    compute = ["compute", "--kind", "M", "--g", "2", "--N", "3",
               "--cache-dir", str(tmp_path), "--format"]
    # a miss of any kind loads the chain alone: no check, no oracle, and
    # (it runs on integers and records without dataclasses) no Fraction
    assert engine_modules_loaded(nilorb_env, *compute, "json") == CHAIN_MODULES
    for kind in KINDS:
        miss = engine_modules_loaded(nilorb_env, "compute", "--kind", kind, "--g", "2",
                                     "--N", "3", "--no-cache", "--format", "json")
        assert miss == CHAIN_MODULES, kind
    for fmt in ("json", "csv", "pretty"):
        assert engine_modules_loaded(nilorb_env, *compute, fmt) == set(), fmt
    h_pretty = ["compute", "--kind", "H", "--g", "2", "--N", "3", "--cache-dir", str(tmp_path)]
    assert "nilorb.exactnum" in engine_modules_loaded(nilorb_env, *h_pretty)
    assert engine_modules_loaded(nilorb_env, *h_pretty) == set()
    assert engine_modules_loaded(nilorb_env, "--version") == set()
    assert engine_modules_loaded(nilorb_env, "cache", "list", "--cache-dir",
                                 str(tmp_path)) == set()
    # the checks load their module, and only the oracle loads the oracle (it
    # takes the engine's value at q on the integers); no command loads
    # fractions or dataclasses
    with_checks = CHAIN_MODULES | {"nilorb.checks"}
    for argv in (["verify", "weight-routes", "--g", "2", "--N", "4"],
                 ["verify", "kwi", "--g", "2", "--N", "3", "--Q", "9"],
                 ["conjecture-scan", "--g", "2", "--Nmax", "3"]):
        assert engine_modules_loaded(nilorb_env, *argv) == with_checks, argv
    for check in ("M", "IA"):
        oracle = engine_modules_loaded(nilorb_env, "oracle", "--check", check, "--g", "2",
                                       "--n", "2", "--q", "2")
        assert oracle == with_checks | {"nilorb.fforacle"}, check


# the parser's stdlib modules: argparse imports gettext, whose first
# translation imports locale
PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_no_command_loads_the_parser_modules(tmp_path, nilorb_env):
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, env=nilorb_env, check=True)
    compute = ["compute", "--kind", "M", "--g", "2", "--N", "3",
               "--cache-dir", str(tmp_path), "--format"]
    runs = [
        (0, ["--version"]),
        (0, ["--help"]),
        (0, ["compute", "--help"]),
        (0, [*compute, "json"]),  # the miss that stores the entry
        *((0, [*compute, fmt]) for fmt in ("json", "csv", "pretty")),
        (0, ["cache", "list", "--cache-dir", str(tmp_path)]),
        (0, ["verify", "weight-routes", "--g", "2", "--N", "3"]),
        (0, ["oracle", "--check", "M", "--g", "1", "--n", "2", "--q", "2"]),
        (0, ["conjecture-scan", "--g", "2", "--Nmax", "3"]),
        (2, ["compute", "--kind", "A", "--g", "0", "--n", "3"]),
    ]
    for expected, argv in runs:
        code, modules = modules_loaded(nilorb_env, *argv)
        assert code == expected, argv
        assert not PARSER_MODULES & (modules - set(bare.stdout.split())), argv
        # and only help compiles the help text's module
        assert ("nilorb.clihelp" in modules) == ("--help" in argv), argv


def test_moved_checks_resolve_to_the_checks_module():
    for name in ("ScanReport", "VerificationReport", "scan_nonnegativity", "verify_g1_product",
                 "verify_product_routes", "verify_triple_product", "verify_weight_routes"):
        value = getattr(checks, name)
        assert getattr(nilorb, name) is value and getattr(pipeline, name) is value, name
    with pytest.raises(AttributeError):
        pipeline.no_such_name


def test_package_exports_resolve_to_their_submodules():
    star = {}
    exec("from nilorb import *", star)
    for name in nilorb.__all__:
        value = getattr(nilorb, name)
        assert star[name] is value
        if name != "__version__":
            assert value.__module__.startswith("nilorb.")
            assert getattr(importlib.import_module(value.__module__), name) is value
    assert pipeline.KINDS is nilorb.KINDS
    with pytest.raises(AttributeError):
        nilorb.no_such_name

"""scripts/bench_ab.py runs the benchmark on two checkouts and writes the
parent-versus-change file; here both sides are this checkout, on mock, or
``run_once`` is replaced to report a broken run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def test_bench_ab_writes_the_comparison_file(tmp_path):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_ab.py"), str(REPO), str(REPO),
         "--topic", "smoke", "--workloads", "verify-short", "--seeds", "1", "2",
         "--seconds", "0.2", "--backend", "mock:10007", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(record) == {"what", "command", "env", "workloads", "notes"}
    assert "--backend mock:10007" in record["command"]
    lines = record["env"]["src_lines"]  # both sides are this checkout
    assert lines["parent"] == lines["change"]
    assert type(lines["change"]) is int and lines["change"] > 0
    modules = record["env"]["src_module_lines"]  # wc -l of each src/seqsig/*.py, per side
    assert modules["parent"] == modules["change"]
    assert modules["change"]["bn254.py"] > 0 and "__init__.py" in modules["change"]
    assert sum(modules["change"].values()) == lines["change"]
    lines = record["env"]["test_lines"]
    assert lines["parent"] == lines["change"]
    assert type(lines["change"]) is int and lines["change"] > 0
    run = record["workloads"]["verify-short"]
    assert run["seeds"] == [1, 2] and run["first"] == ["parent", "change"]
    assert run["correct"] is True and run["failed"] == {"parent": 0, "change": 0}
    assert set(run["attempted"]) == {"parent", "change"}  # each run's op count, per side
    for counts in run["attempted"].values():
        assert len(counts) == 2 and all(type(n) is int and n > 0 for n in counts)
    bounds = {m["name"]: m["bound"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(run["metrics"]) == set(bounds)
    for name, m in run["metrics"].items():
        assert len(m["parent"]) == len(m["change"]) == 2
        assert m["bound"] == bounds[name]
        assert m["change_lower_in_pairs"] in ("0/2", "1/2", "2/2")
        for key in ("parent_median", "change_median", "parent_iqr", "change_iqr",
                    "relative_change", "parent_spread"):
            assert isinstance(m[key], float)
        assert type(m["gain_holds"]) is bool and type(m["within_bound"]) is bool
    # each kind of sample of verify-short, read from the runs' result files
    assert set(run["kinds"]) == {"verify.pks1", "verify.pks2", "verify.sas1", "verify.ms",
                                 "op.round", "combine", "sign"}
    for m in run["kinds"].values():
        assert len(m["parent"]) == len(m["change"]) == 2 and m["bound"] is None
        assert m["within_bound"] is None
        assert all(isinstance(x, float) and x > 0 for x in m["parent"] + m["change"])


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_ab", REPO / "scripts" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("broken", [{"failed": 1}, {"correct": False}])
def test_a_broken_run_writes_the_file_and_exits_one(tmp_path, monkeypatch, capsys, broken):
    bench_ab = _load_script()
    bounds = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}

    def run_once(checkout, workload, seed, seconds, backend):
        result = {"metrics": {name: {"value": 1.0} for name in bounds},
                  "failed": 0, "correct": True}
        result["attempted"] = 10 * seed
        out = checkout / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        relative = {"verify.x": [seed, 3.0, 9.0], "op.y": [2.0 * seed], "sign": [1.0]}
        (out / f"result-{workload}-seed{seed}-trace0.json").write_text(
            json.dumps({"relative": relative}))
        if (workload, seed, checkout.name) == ("cold-files", 2, "change"):
            result.update(broken)
        return result, {}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    (tmp_path / "change" / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_ab, "run_once", run_once)
    code = bench_ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--topic", "broken",
                          "--workloads", "verify-short", "cold-files", "--seeds", "1", "2",
                          "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.strip().endswith("cold-files seed 2 change")
    record = json.loads((tmp_path / "BENCH_broken.json").read_text())
    assert record["workloads"]["verify-short"]["correct"] is True
    assert record["workloads"]["cold-files"]["failed"]["change"] == broken.get("failed", 0)
    assert record["workloads"]["cold-files"]["correct"] is broken.get("correct", True)
    assert record["workloads"]["cold-files"]["attempted"] == {"parent": [10, 20],
                                                              "change": [10, 20]}
    kinds = record["workloads"]["cold-files"]["kinds"]  # per run, the median of each kind
    assert set(kinds) == {"verify.x", "op.y", "sign"}
    assert kinds["verify.x"]["parent"] == kinds["verify.x"]["change"] == [3.0, 3.0]
    assert kinds["op.y"]["change"] == [2.0, 4.0] and kinds["op.y"]["bound"] is None


def test_checkouts_with_different_benchmarks_are_refused_before_any_run(tmp_path, monkeypatch,
                                                                          capsys):
    """A changed BENCHMARK.json and a perfbench file on one side only are
    named, the exit is 2, and no run is made and no file written; a
    perfbench file the same on both sides is not named."""
    bench_ab = _load_script()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("# the same on both sides\n")
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({**spec, "run_seconds": 1}))
    (tmp_path / "change" / "perfbench" / "extra.py").write_text("")
    calls = []
    monkeypatch.setattr(bench_ab, "run_once", lambda *a: calls.append(a))
    code = bench_ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--topic", "refused",
                          "--workloads", "verify-short", "--seeds", "1", "--out", str(tmp_path)])
    assert code == 2 and calls == []
    err = capsys.readouterr().err
    assert err.strip().endswith("BENCHMARK.json, perfbench/extra.py")
    assert not (tmp_path / "BENCH_refused.json").exists()


# ten parent runs: median 10.0, quartiles 9.8 and 10.2 (statistics.quantiles), IQR 0.4
PARENT = [9.6, 9.8, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.2, 10.4]


@pytest.mark.parametrize("change, gain", [
    ([p - 1.0 for p in PARENT], True),  # lower in 10/10, by 1.0 > 0.4
    ([p - 1.0 for p in PARENT[:9]] + [11.0], True),  # lower in 9/10
    ([p - 1.0 for p in PARENT[:8]] + [10.2, 10.4], False),  # lower in 8/10, ties count for neither
    ([p - 0.3 for p in PARENT], False),  # lower in 10/10, but by 0.3 < 0.4
    (list(PARENT), False),  # all ties
])
def test_gain_holds_takes_nine_tenths_of_pairs_and_a_median_gap_beyond_the_parent_iqr(change,
                                                                                      gain):
    m = _load_script().compare(PARENT, change, 0.15)
    assert m["parent_iqr"] == 0.4
    assert m["gain_holds"] is gain and m["within_bound"] is True


@pytest.mark.parametrize("shift, within", [(0.0, True), (1.5, True), (1.51, False), (3.0, False)])
def test_within_bound_compares_the_medians_against_the_bound(shift, within):
    """The parent's median is 10.0 and the bound 0.15: a change median up to
    11.5 is within it."""
    m = _load_script().compare(PARENT, [p + shift for p in PARENT], 0.15)
    assert m["within_bound"] is within and m["gain_holds"] is False
    assert _load_script().compare(PARENT, PARENT, None)["within_bound"] is None

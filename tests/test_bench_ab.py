"""scripts/bench_ab.py runs the benchmark on two checkouts and writes the
parent-versus-change file; here both sides are this checkout, on mock."""

import json
import subprocess
import sys
from pathlib import Path

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
    lines = record["env"]["test_lines"]
    assert lines["parent"] == lines["change"]
    assert type(lines["change"]) is int and lines["change"] > 0
    run = record["workloads"]["verify-short"]
    assert run["seeds"] == [1, 2] and run["first"] == ["parent", "change"]
    assert run["correct"] is True and run["failed"] == {"parent": 0, "change": 0}
    bounds = {m["name"]: m["bound"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(run["metrics"]) == set(bounds)
    for name, m in run["metrics"].items():
        assert len(m["parent"]) == len(m["change"]) == 2
        assert m["bound"] == bounds[name]
        assert m["change_lower_in_pairs"] in ("0/2", "1/2", "2/2")
        for key in ("parent_median", "change_median", "parent_iqr", "change_iqr",
                    "relative_change", "parent_spread"):
            assert isinstance(m[key], float)

"""The benchmark's own test: the same workload code on the mock backend.

Runs in seconds, so the plumbing (metric names, tamper rejections, the
correctness gate, spans, the count pass, the sweep) is checked without the
minutes-long real-curve run:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run

run._import_library()

from perfbench import spans, spec, workloads  # noqa: E402  (needs src/ on the path)
from seqsig import bn254, groups, sas  # noqa: E402

MOCK = "mock:10007"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _main(capsys, *args):
    code = run.main(["--seed", "3", "--backend", MOCK, *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_benchmark_json_is_the_generated_spec():
    assert (run.ROOT / "BENCHMARK.json").read_text() == spec.spec_text()


def test_spec_respects_the_format_limits():
    s = spec.spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(s["workloads"]) <= 8 and 1 <= len(s["per_layer"]) <= 128
    names = [m["name"] for part in ("workloads", "end_to_end", "per_layer") for m in s[part]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in s["workloads"])
    assert all(UNIT.match(m["unit"]) for part in ("end_to_end", "per_layer") for m in s[part])
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(spec.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result, _ = _main(capsys, "--workload", workload, "--seconds", "0.2", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in spec.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    code, result, lines = _main(capsys, "--workload", workload, "--seconds", "0.2", "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, *_ in spec.per_layer_metrics()]
    for scheme, l, want in spec.SWEEP:
        assert metrics[f"groups.pairings_per_verify.{scheme}.l{l}"]["value"] == want
    assert metrics["groups.multi_exp.terms_per_verify.sas2.l20"]["value"] == 120
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["bench.op.self_ms"]["value"] > 0
    assert any("cannot be counted from outside" in ln for ln in lines)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tampered_inputs_are_rejected(workload):
    wl = workloads.WORKLOADS[workload](MOCK, 5)
    checks = []
    for i in range(12):
        checks += wl.op(i, workloads.Recorder(), workloads.op_rng(5, workload, i))
    results = [(what, check() if callable(check) else check) for what, check in checks]
    assert {"tampered input rejected", "honest input accepted"} <= {what for what, _ in results}
    assert all(ok for _, ok in results)


def test_gate_counts_a_wrong_verdict_as_failed(monkeypatch):
    wl = workloads.Chain20(MOCK, 5)
    monkeypatch.setattr(sas, "agg_verify", lambda *a, **k: True)
    out = workloads.run_ops(wl, 5, n_ops=2)
    assert out.attempted == 2 and out.failed == 2  # the 8th verify of each chain is tampered


def test_reference_runs_are_left_out_of_the_samples_they_scale():
    rec = workloads.Recorder(probe=True)
    with rec.timing("outer"):
        for _ in range(3):
            with rec.timing("inner"):
                workloads.reference_work()
    assert len(rec.probes) == 8 and rec.probe_s == pytest.approx(sum(rec.probes))
    # the outer sample holds the three inner samples, not the six reference runs around them
    assert rec.samples["outer"][0] < sum(rec.samples["inner"]) + 0.5 * 1e3 * sum(rec.probes[1:7])
    assert rec.relative["outer"][0] == pytest.approx(sum(rec.relative["inner"]), rel=0.5)
    assert all(0.2 < r < 5 for r in rec.relative["inner"])
    assert not workloads.Recorder().relative


def test_spans_nest_and_are_removed_afterwards():
    import seqsig
    original = sas.multi_exp
    wl = workloads.VerifyShort(MOCK, 5)
    tracer = spans.Tracer()
    with tracer.install(seqsig):
        assert sas.multi_exp is not original
        out = workloads.run_ops(wl, 5, n_ops=2, tracer=tracer)
    assert sas.multi_exp is original and groups.MockDlogBackend.exp.__name__ == "exp"
    stats, gap = tracer.summary(out.attempted)
    assert out.failed == 0 and gap < 1e-9
    assert stats["pks.sign"]["calls"] == 2 and stats["groups.pairing_product"]["qty"] > 0


def test_field_op_counts_repeat_exactly():
    import seqsig
    runs = []
    for _ in range(2):
        counter = spans.FieldOpCounter(spec.FIELD_OPS)
        with counter.install(seqsig):
            bn254.pairing(bn254.G1_GEN, bn254.G2_GEN)
        runs.append(counter.counts)
    assert runs[0] == runs[1] and all(n > 0 for n in runs[0].values())
    assert bn254.fq2_mul.__name__ == "fq2_mul"


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout

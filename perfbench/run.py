"""Run one seqsig benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain20 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
gives the per-layer metrics: an untraced half, the same ops again under
spans (their ratio is ``trace.overhead_ratio``), a field-op count pass and
the cost-model sweep. Every verdict and round-trip is checked; a failure
makes ``correct`` false and the exit code 1.

Report lines go first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and a full
result record are written under ``perfbench/out/``.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``perfbench/spec.py``.
The library is imported from ``src/`` of this checkout only; without it the
command exits nonzero before measuring anything.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
P90_MIN_SAMPLES = 100  # so that at least 10 samples lie beyond the p90


def _import_library():
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import seqsig
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import seqsig from {SRC}: {exc}")
    if Path(seqsig.__file__).resolve().parent != SRC / "seqsig":
        sys.exit(f"perfbench: seqsig was imported from {seqsig.__file__}, not from {SRC}")
    return seqsig


def environment(seed, seqsig):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    gmpy2 = importlib.util.find_spec("gmpy2") is not None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
        "gmpy2_importable": gmpy2,
        "arithmetic": "plain int" if type(seqsig.bn254.P) is int else "gmpy2 mpz (not plain ints)",
    }


def _stat(xs, fn, unit, scale=1.0):
    """(value, unit, note); value is None when the op did not run or, for a
    p90, when fewer than 10 samples would lie beyond it."""
    if not xs:
        return None, unit, "no samples: not exercised by this workload or this run"
    if fn is _p90 and len(xs) < P90_MIN_SAMPLES:
        return None, unit, f"omitted: n={len(xs)}, a p90 needs >= {P90_MIN_SAMPLES} samples"
    return fn(xs) * scale, unit, f"n={len(xs)}"


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8]


def _mean_of_medians(samples, prefix, unit):
    """Median per kind (``verify.pks1``, ``op.file-register``, ...), then the
    mean over kinds: a pooled median over kinds of different cost sits in
    the sparse tail of one of them and jumps from run to run. ``samples``
    are either ms or reference runs (``Recorder.relative``)."""
    kinds = sorted(k for k in samples if k.startswith(prefix) and samples[k])
    value = statistics.fmean(statistics.median(samples[k]) for k in kinds)
    return value, unit, "mean of medians of " + ", ".join(f"{k} (n={len(samples[k])})" for k in kinds)


def end_to_end(out, setup_times):
    """Every end-to-end metric, reported or not, as {name: (value, unit, note)}."""
    s, rel = out.rec.samples, out.rec.relative
    median = statistics.median
    verify_all = [x for k in s if k.startswith("verify.") for x in s[k]]
    return {
        "setup_s": (median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "op_p50_ref": _mean_of_medians(rel, "op.", "ref"),
        "verify_p50_ref": _mean_of_medians(rel, "verify.", "ref"),
        "reference_ms_p50": (1e3 * median(out.rec.probes), "ms",
                             f"one run of the reference work, n={len(out.rec.probes)}"),
        "op_ms_p50": _mean_of_medians(s, "op.", "ms"),
        "verify_ms_p50": _mean_of_medians(s, "verify.", "ms"),
        "verify_ms_p90": _stat(verify_all, _p90, "ms"),
        "reject_ms_p50": _stat(s["reject"], median, "ms"),
        "sign_ms_p50": _stat(s["sign"], median, "ms"),
        "sign_ms_p90": _stat(s["sign"], _p90, "ms"),
        "chain_s_p50": _stat(s["chain"], median, "s", 1e-3),
        "combine_ms_p50": _stat(s["combine"], median, "ms"),
        "load_ms_p50": _stat(s["load"], median, "ms"),
        "load_ms_p90": _stat(s["load"], _p90, "ms"),
        "register_ms_p50": _stat(s["register"], median, "ms"),
        "ops_per_s": (out.attempted / out.busy_s, "1/s", f"{out.attempted} ops in {out.busy_s:.3f} s busy"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
        "failed_ratio": (out.failed / out.attempted, "ratio", f"{out.failed}/{out.attempted} ops"),
    }


def per_layer(stats, overhead, field_counts, sweep_results, spec):
    values = {}
    for label, wanted in spec.SPAN_STATS.items():
        st = stats.get(label, {"calls": 0, "qty": 0, "self_ms": 0.0})
        for stat in wanted:
            values[f"{label}.{stat}"] = st[stat if stat in ("calls", "self_ms") else "qty"]
    values["trace.overhead_ratio"] = overhead
    for op, n in field_counts.items():
        values[f"bn254.{op}.calls"] = n
    for (scheme, l), (pairings, terms) in sweep_results.items():
        values[f"groups.pairings_per_verify.{scheme}.l{l}"] = pairings
        values[f"groups.multi_exp.terms_per_verify.{scheme}.l{l}"] = terms
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in spec.per_layer_metrics()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--backend", default="real", help="real (default) or mock:<prime>")
    ap.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    seqsig = _import_library()
    from perfbench import spec, spans, sweep, workloads

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.spec_text())
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    cls = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, seqsig)
    print(f"perfbench workload={cls.name} seed={args.seed} backend={args.backend} "
        f"seconds={seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    if env["arithmetic"] != "plain int":
        print("NOTE: gmpy2 is in use; the ROADMAP's numbers are defined on plain Python ints")

    setup_times = []
    for _ in range(spec.SETUP_REPEATS if args.trace == 0 else 1):
        wl = None  # let the previous set-up be freed before the next one
        t0 = time.perf_counter()
        wl = cls(args.backend, args.seed)
        setup_times.append(time.perf_counter() - t0)

    total = workloads.Outcome()
    problems = []
    record = {"env": env, "workload": cls.name, "seed": args.seed, "backend": args.backend,
              "seconds": seconds, "trace": args.trace}
    if args.trace == 0:
        out = workloads.run_ops(wl, args.seed, seconds=seconds, probe=True)
        total.add(out)
        e2e = end_to_end(out, setup_times)
        for name, (value, unit, note) in e2e.items():
            if value is None:
                print(f"metric {name}: {note}")
            else:
                print(f"metric {name} = {value:.6g} {unit}  ({note})")
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit, _, _ in spec.END_TO_END}
        record["report"] = {k: v[0] for k, v in e2e.items()}
        record["samples"] = dict(out.rec.samples)
        record["relative"] = dict(out.rec.relative)
    else:
        base = workloads.run_ops(wl, args.seed, seconds=seconds / 2)
        tracer = spans.Tracer()
        with tracer.install(seqsig):
            traced = workloads.run_ops(wl, args.seed, n_ops=base.attempted, tracer=tracer)
        overhead = traced.busy_s / base.busy_s
        stats, gap = tracer.summary(traced.attempted)
        if gap > 1e-6:
            problems.append(f"self times of an op differ from its duration by {gap:.2e} of it")
        counter = spans.FieldOpCounter(spec.FIELD_OPS)
        with counter.install(seqsig):
            counted = workloads.run_ops(wl, args.seed, n_ops=wl.unit)
        field = {op: n / counted.attempted for op, n in counter.counts.items()}
        sweep_results, sweep_failures = sweep.cost_model_sweep(args.backend, args.seed, spec.SWEEP)
        problems += sweep_failures
        for part in (base, traced, counted):
            total.add(part)
        metrics = per_layer(stats, overhead, field, sweep_results, spec)
        print(f"trace: {traced.attempted} ops traced, {len(tracer.spans)} spans, "
            f"overhead {overhead:.4f} = {traced.busy_s:.3f} s traced / {base.busy_s:.3f} s untraced; "
            f"largest self-time gap {gap:.1e}")
        top = sorted(stats.items(), key=lambda kv: -kv[1]["self_ms"])[:3]
        print("trace: largest self time per op: " + ", ".join(
            f"{name} {st['self_ms']:.1f} ms" for name, st in top))
        print(f"counts: field ops per op over {counted.attempted} op(s): " + ", ".join(
            f"{op}={n:.12g}" for op, n in field.items())
            + "; Fp multiplies are inline Python int arithmetic and cannot be counted from outside")
        for scheme, l, _ in spec.SWEEP:
            pairings, terms = sweep_results[(scheme, l)]
            print(f"sweep: {scheme} l={l}: {pairings} pairings, {terms} MSM terms per verify")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{cls.name}-seed{args.seed}.jsonl")
        record["top_self_ms"] = [[name, st["self_ms"]] for name, st in top]
    for err in total.errors + problems:
        print(f"FAILED {err}", file=sys.stderr)
    correct = total.failed == 0 and not problems
    print(f"failed_ratio = {total.failed / total.attempted:.6g} ({total.failed}/{total.attempted} ops)")
    result = {"correct": correct, "attempted": total.attempted, "failed": total.failed,
              "metrics": metrics}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{cls.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

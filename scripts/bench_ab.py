"""Run the benchmark on a parent and a change checkout and write one
BENCH_<topic>.json that compares them.

    python3 scripts/bench_ab.py PARENT_DIR CHANGE_DIR --topic msm_tables \\
        --workloads chain20 verify-short cold-files --seeds 1 2 3 4 5 --seconds 20

For each seed, and within it each workload, the two checkouts run
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` one after
the other, under this script's interpreter with PYTHONDONTWRITEBYTECODE=1.
The parent goes first on the first, third, ... seed and the change on the
others. Each run's last output line is its JSON result.

The file holds, per workload, every run's ``attempted`` op count per side,
which shows how many ops each median rests on. Per end-to-end metric of the
parent's BENCHMARK.json it holds every run's value, both medians and
interquartile ranges, in how many seeds the change read lower than the
parent, the relative change of the medians, the metric's bound and the
parent's spread (max - min over median), and two verdicts: whether a
gain may be claimed on it and whether it stayed within its bound
(:func:`compare`). A metric whose parent spread exceeds its bound is
listed in ``notes`` as unresolved. ``env.src_lines`` and
``env.test_lines`` hold each side's total of ``wc -l src/seqsig/*.py`` and
of ``wc -l tests/*.py``, so a change that removes code shows by how much,
and whether it left the library or only moved into the tests.
``env.src_module_lines`` holds each side's ``wc -l`` of every
``src/seqsig/*.py`` by file name, which shows which module changed size.

Per workload, ``kinds`` holds the same comparison for each kind of sample
(``verify.*``, ``op.*``, ``sign``, ``combine``, ``load``, ...), on each
run's median ``relative`` time (reference units). It is read from
``perfbench/out/result-W-seedS-trace0.json``, which each run leaves in its
checkout, and shows which kind of call moved.

Both checkouts must run the same benchmark: before any run, the script
compares their BENCHMARK.json and every ``perfbench/*.py``, a file on one
side only counting as a difference, and on a difference it exits 2 with a
message that names the files, and writes nothing.

The exit status is 1, after the file is written, when any run reports
``correct: false`` or a failed op; the message names each such run's
workload, seed and side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, backend: str):
    """(result, env) of one benchmark run: its last-line JSON and its ``env`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--backend", backend]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_ab: {' '.join(cmd)} in {checkout} printed no result "
                         f"(exit {done.returncode}):\n{done.stderr[-2000:]}") from None
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return result, env


def benchmark_files(checkout: Path) -> dict:
    """The bytes of BENCHMARK.json and of every ``perfbench/*.py`` in a
    checkout, by path within it."""
    paths = [checkout / "BENCHMARK.json", *checkout.glob("perfbench/*.py")]
    return {p.relative_to(checkout).as_posix(): p.read_bytes() for p in paths if p.is_file()}


def benchmark_differences(parent: Path, change: Path) -> list:
    """The benchmark files that differ between two checkouts, or that only
    one of them has."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def kind_medians(checkout: Path, workload: str, seed: int) -> dict:
    """The median ``relative`` time of each kind of sample in the result
    file of a run in ``checkout``; empty when there is none."""
    path = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    try:
        relative = json.loads(path.read_text())["relative"]
    except (OSError, ValueError, KeyError):
        return {}
    return {kind: round(statistics.median(xs), 4) for kind, xs in relative.items() if xs}


def compare_kinds(sides) -> dict:
    """The :func:`compare` record, without a bound, of each kind that every
    run of both sides reports; ``sides`` holds each side's
    :func:`kind_medians` per run."""
    kinds = set.intersection(*(set(run) for side in SIDES for run in sides[side]))
    return {kind: compare(*([run[kind] for run in sides[side]] for side in SIDES), None)
            for kind in sorted(kinds)}


def line_counts(checkout: Path, pattern: str) -> dict:
    """What ``wc -l PATTERN`` prints per file in a checkout, e.g. for
    ``tests/*.py``, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted(checkout.glob(pattern))}


def _iqr(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def compare(parent, change, bound):
    """The per-metric record of paired per-seed values (lower is better).

    ``gain_holds`` is the rule for claiming a gain: the change reads lower
    in at least nine tenths of the pairs, ties counting for neither, and
    its median lies below the parent's by more than the parent's
    interquartile range. ``within_bound`` says that the change's median is
    worse than the parent's by at most ``bound`` (a fraction), and is None
    without a bound."""
    pm, cm = statistics.median(parent), statistics.median(change)
    lower = sum(c < p for p, c in zip(parent, change))
    return {
        "parent": parent, "change": change,
        "parent_median": round(pm, 4), "change_median": round(cm, 4),
        "parent_iqr": round(_iqr(parent), 4), "change_iqr": round(_iqr(change), 4),
        "change_lower_in_pairs": f"{lower}/{len(parent)}",
        "relative_change": round(cm / pm - 1, 4) if pm else None,
        "bound": bound,
        "parent_spread": round((max(parent) - min(parent)) / pm, 4) if pm else None,
        "gain_holds": 10 * lower >= 9 * len(parent) and pm - cm > _iqr(parent),
        "within_bound": None if bound is None else cm <= pm * (1 + bound),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--topic", required=True, help="the file is BENCH_<topic>.json")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--backend", default="real")
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--out", type=Path, default=Path("."), help="directory for the file")
    args = ap.parse_args(argv)

    differ = benchmark_differences(args.parent, args.change)
    if differ:
        print("bench_ab: the checkouts run different benchmarks; these files differ: "
              + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {w: {side: [] for side in SIDES} for w in args.workloads}
    kind_runs = {w: {side: [] for side in SIDES} for w in args.workloads}
    firsts = {w: [] for w in args.workloads}
    env = {}
    for n, seed in enumerate(args.seeds):
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        for workload in args.workloads:
            firsts[workload].append(order[0])
            for side in order:
                result, env[side] = run_once(checkouts[side], workload, seed, args.seconds,
                                             args.backend)
                runs[workload][side].append(result)
                kind_runs[workload][side].append(kind_medians(checkouts[side], workload, seed))
                print(f"bench_ab: {workload} seed {seed} {side}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                  if k in bounds), flush=True)

    workloads, notes = {}, []
    for workload, sides in runs.items():
        metrics = {}
        for name, bound in bounds.items():
            values = {side: [round(r["metrics"][name]["value"], 4) for r in sides[side]]
                      for side in SIDES}
            metrics[name] = compare(values["parent"], values["change"], bound)
            spread = metrics[name]["parent_spread"]
            if spread is not None and spread > bound:
                notes.append(f"{workload} {name} is unresolved: the parent's spread "
                             f"{spread:.2f} exceeds its bound {bound}")
        workloads[workload] = {
            "seeds": args.seeds, "first": firsts[workload],
            "attempted": {side: [r["attempted"] for r in sides[side]] for side in SIDES},
            "failed": {side: sum(r["failed"] for r in sides[side]) for side in SIDES},
            "correct": all(r["correct"] for side in SIDES for r in sides[side]),
            "metrics": metrics,
            "kinds": compare_kinds(kind_runs[workload]),
        }
    parent_env = env.get("parent", {})
    src = {side: line_counts(checkouts[side], "src/seqsig/*.py") for side in SIDES}
    record = {
        "what": args.what,
        "command": "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0 --backend {args.backend}",
        "env": {
            **{k: parent_env.get(k) for k in ("python", "nproc", "cpu", "arithmetic")},
            "commit": {side: env.get(side, {}).get("commit") for side in SIDES},
            "src_lines": {side: sum(src[side].values()) for side in SIDES},
            "src_module_lines": src,
            "test_lines": {side: sum(line_counts(checkouts[side], "tests/*.py").values())
                           for side in SIDES},
        },
        "workloads": workloads,
        "notes": notes,
    }
    path = args.out / f"BENCH_{args.topic}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_ab: wrote {path}")
    broken = [f"{workload} seed {seed} {side}" for workload, sides in runs.items()
              for side in SIDES for seed, r in zip(args.seeds, sides[side])
              if not r["correct"] or r["failed"] > 0]
    if broken:
        print("bench_ab: runs with correct: false or failed ops: " + "; ".join(broken),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

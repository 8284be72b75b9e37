"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) so the metric list the runner
prints and the list the spec declares cannot drift apart.
"""

from __future__ import annotations

import json

RUN_SECONDS = 20
SETUP_REPEATS = 3

# One line each: why the workload exists, which layer it stresses and which
# it bypasses, its loop type and its tamper share.
WORKLOADS = {
    "chain20": (
        "l-linear work: 20-signer sas2 chains, each append checks the aggregate so far; "
        "stresses G2 MSM and G1 exps, bypasses decoding; closed loop, 1 client; 1/8 verifies tampered"
    ),
    "verify-short": (
        "short verifies (pks1/pks2, sas1 l=1, ms): Miller loop, final exp, GT and single G2 exps "
        "dominate; MSMs have <=2 terms, no decoding; closed loop, 1 client; 1/8 verifies tampered"
    ),
    "cold-files": (
        "every op decodes params, a 32-key registry and keys from bytes; stresses decode, subgroup "
        "checks, key ids; no reuse; closed loop, 1 client; 1/8 verifies uncertified"
    ),
}

# (name, unit, better, bound). Every workload reports every one of these with
# tracing off; each is a positive number on every workload. On a shared
# 2-vCPU host the wall time of identical work drifts by 10-80% between runs
# minutes apart, so latencies are gated in reference runs (``ref``: one run
# of ``workloads.reference_work`` timed next to each sample), which that
# drift leaves unchanged; the ms figures are printed beside them. Over 10
# seeds their spread (IQR over median) was 0.019-0.038, chain20's two or
# three chains per run the widest. Set-up time can only be given in seconds,
# hence its wide bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ref", "ref", "lower", 0.15),
    ("verify_p50_ref", "ref", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Spans recorded in the traced run: label -> per-op statistics reported.
# "qty" is the span's size argument: terms for an MSM, pairs for a pairing.
SPAN_STATS = {
    "bn254.g2_multi_exp": ("calls", "terms", "self_ms"),
    "groups.multi_exp": ("calls", "terms", "self_ms"),
    "groups.exp.g2": ("calls", "self_ms"),
    "bn254.miller_loop_product": ("calls", "pairs", "self_ms"),
    "bn254.final_exponentiation": ("calls", "self_ms"),
    "groups.pairing_product": ("calls", "pairs", "self_ms"),
    "bn254.g1_mul": ("calls", "self_ms"),
    "bn254.g1_add": ("calls", "self_ms"),
    "groups.exp.g1": ("calls", "self_ms"),
    "groups.op": ("calls", "self_ms"),
    "bn254.gt_pow": ("calls", "self_ms"),
    "groups.exp.gt": ("calls", "self_ms"),
    "groups.decode.g1": ("calls", "self_ms"),
    "groups.decode.g2": ("calls", "self_ms"),
    "groups.decode.gt": ("calls", "self_ms"),
    "bn254.g2_in_subgroup": ("calls", "self_ms"),
    "envelopes.decode_params": ("self_ms",),
    "envelopes.decode_public_key": ("self_ms",),
    "envelopes.decode_private_key": ("self_ms",),
    "envelopes.decode_aggregate": ("self_ms",),
    "keyreg.load_bytes": ("self_ms",),
    "pks.key_id": ("calls", "self_ms"),
    "groups.encode": ("calls", "self_ms"),
    "groups.hash_to_scalar": ("calls", "self_ms"),
    "keyreg.register": ("self_ms",),
    "keyreg.save_bytes": ("self_ms",),
    "sas.agg_sign": ("self_ms",),
    "sas.agg_verify": ("self_ms",),
    "pks.sign": ("self_ms",),
    "pks.verify": ("self_ms",),
    "ms.ms_sign": ("self_ms",),
    "ms.ms_combine": ("self_ms",),
    "ms.ms_mult_verify": ("self_ms",),
    "bench.op": ("self_ms",),
}

# Counted, not timed, in a pass of their own: these run thousands of times per
# op, and wrapping them in spans would distort the timings.
FIELD_OPS = ("fq2_mul", "fq2_sqr", "fq2_inv", "fq12_mul", "fq12_cyc_sqr")

# The paper's cost table: (scheme, chain length l, pairings it must take).
SWEEP = [
    ("sas1", 1, 8), ("sas1", 5, 8), ("sas1", 20, 8),
    ("sas2", 1, 6), ("sas2", 5, 6), ("sas2", 20, 6),
    ("ms", 1, 6), ("ms", 10, 6),
]


def per_layer_metrics():
    """[(name, unit, better)] in the order the traced run prints them."""
    out = []
    for label, stats in SPAN_STATS.items():
        for stat in stats:
            out.append((f"{label}.{stat}", "ms" if stat == "self_ms" else "count", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    out += [(f"bn254.{op}.calls", "count", "lower") for op in FIELD_OPS]
    for scheme, l, _ in SWEEP:
        out.append((f"groups.pairings_per_verify.{scheme}.l{l}", "count", "lower"))
    for scheme, l, _ in SWEEP:
        out.append((f"groups.multi_exp.terms_per_verify.{scheme}.l{l}", "count", "lower"))
    return out


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
    }


def spec_text() -> str:
    return json.dumps(spec(), indent=2) + "\n"

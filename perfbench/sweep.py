"""Cost-model sweep: pairings and MSM terms of one verify, by scheme and length.

Counts only, no timing. The paper's claim is that a verify takes 8 (sas1) or
6 (sas2, ms) pairings at every chain length l; only the MSM terms grow.
Aggregates are built with unchecked appends to keep the sweep cheap; each
verify must still accept.
"""

from __future__ import annotations

import random

from seqsig import groups, ms, sas

from .spans import Patches
from .workloads import make_suite


def _counting_terms(counter):
    def make(fn):
        def counted(items):
            items = list(items)
            counter[0] += len(items)
            return fn(items)
        return counted
    return make


def cost_model_sweep(backend, seed, table):
    """Returns ({(scheme, l): (pairings, terms)}, failures) for ``table``,
    a list of (scheme, l, expected pairings)."""
    suite = make_suite(backend)
    rng = random.Random(f"{seed}/sweep")
    lengths = {}
    for scheme, l, _ in table:
        lengths.setdefault(scheme, []).append(l)
    terms = [0]
    results, failures = {}, []

    def measure(key, verify):
        pairings0, terms0 = suite.pairing_count, terms[0]
        if not verify():
            failures.append(f"{key[0]} l={key[1]}: honest verify rejected")
        results[key] = (suite.pairing_count - pairings0, terms[0] - terms0)

    with Patches() as patches:
        patches.function(groups, "multi_exp", _counting_terms(terms))
        for scheme, ls in lengths.items():
            if scheme == "ms":
                params = ms.ms_setup(suite, rng)
                keys = [ms.ms_keygen(params, rng) for _ in range(max(ls))]
                sigs = [ms.ms_sign(params, b"sweep", sk, rng) for _, sk in keys]
                for l in ls:
                    pk_list = [pk for pk, _ in keys[:l]]
                    msig = ms.ms_combine(sigs[:l], b"sweep", pk_list, params, rng,
                                         skip_individual_checks=True)
                    measure((scheme, l), lambda: ms.ms_mult_verify(msig, b"sweep", pk_list, params, rng))
                continue
            params = sas.setup(suite, scheme, rng)
            agg = sas.empty_aggregate(params)
            for k in range(max(ls)):
                pub, priv = sas.keygen(params, rng)
                agg = sas.agg_sign(params, agg, b"sweep %d" % k, pub, priv, rng, verify_prev=False)
                if k + 1 in ls:
                    measure((scheme, k + 1), lambda: sas.agg_verify(params, agg, rng))
    for scheme, l, want in table:
        got = results[(scheme, l)][0]
        if got != want:
            failures.append(f"{scheme} l={l}: {got} pairings per verify, the paper's table says {want}")
    return results, failures

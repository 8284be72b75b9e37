"""Cost pins on mock:10007: exponentiations per group and pairings of every
keygen and setup, and the paper's cost model of one verify.

The golden transcript pins the bytes of keys, parameters and signatures but
not what they cost to build or check; these counts do. ``g1``, ``g2`` and
``gt`` count single exponentiations; ``msm.g1`` and ``msm.g2`` count the
terms of multi-exponentiations, which keygen and setup do not use.
"""

import random
from collections import Counter

import pytest

from seqsig import ms, pks, sas
from seqsig.groups import GroupSuite, MockDlogBackend


class CountingMockBackend(MockDlogBackend):
    def __init__(self, order):
        super().__init__(order)
        self.counts = Counter()

    def exp(self, kind, h, k):
        self.counts[kind] += 1
        return super().exp(kind, h, k)

    def multi_exp(self, kind, pairs):
        pairs = list(pairs)
        self.counts[f"msm.{kind}"] += len(pairs)
        return super().multi_exp(kind, pairs)


def _counting_suite():
    backend = CountingMockBackend(10007)
    return GroupSuite(backend=backend, order=backend.order)


def _cost(build):
    suite = _counting_suite()
    build(suite, random.Random(7))
    return dict(suite.backend.counts, pairings=suite.pairing_count)


EXPECTED = {
    "keygen.pks1": {"g1": 6, "g2": 14, "gt": 1, "pairings": 1},
    "keygen.pks2": {"g1": 14, "g2": 8, "gt": 1, "pairings": 1},
    "keygen.lw": {"g1": 3, "g2": 8, "gt": 1, "pairings": 1},
    "setup+keygen.sas1": {"g1": 6, "g2": 14, "gt": 1, "pairings": 1},
    "setup+keygen.sas2": {"g1": 18, "g2": 8, "gt": 1, "pairings": 1},
    "setup+keygen.ms": {"g1": 14, "g2": 8, "gt": 1, "pairings": 1},
}

BUILDS = {
    **{f"keygen.{v}": (lambda v: lambda s, r: pks.keygen(s, v, r))(v) for v in pks.VARIANTS},
    **{f"setup+keygen.{v}": (lambda v: lambda s, r: sas.keygen(sas.setup(s, v, r), r))(v)
       for v in sas.VARIANTS},
    "setup+keygen.ms": lambda s, r: ms.ms_keygen(ms.ms_setup(s, r), r),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_key_material_cost(name):
    assert _cost(BUILDS[name]) == EXPECTED[name]


# One verify: pairings flat in l (8 for sas1, 6 for sas2 and ms); the G2
# multi-exponentiation grows by 4 (sas1) or 3 (sas2) terms per signer and
# not at all for ms, whose message bases live in the parameters. The coin t
# costs no exponentiation of the signature or of Omega; sas1's three single
# G2 exponentiations put s1/t on its randomization row.
VERIFY_COST = {
    ("sas1", 1): {"g2": 3, "msm.g2": 7, "pairings": 8},
    ("sas1", 5): {"g2": 3, "msm.g2": 23, "pairings": 8},
    ("sas1", 20): {"g2": 3, "msm.g2": 83, "pairings": 8},
    ("sas2", 1): {"msm.g2": 3, "pairings": 6},
    ("sas2", 5): {"msm.g2": 15, "pairings": 6},
    ("sas2", 20): {"msm.g2": 60, "pairings": 6},
    ("ms", 1): {"msm.g2": 3, "pairings": 6},
    ("ms", 10): {"msm.g2": 3, "pairings": 6},
}


def _signed(suite, scheme, length, rng):
    """A verify call, with the signature it checks already built."""
    if scheme == "ms":
        params = ms.ms_setup(suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(length)]
        pk_list = [pk for pk, _ in keys]
        sigs = [ms.ms_sign(params, b"m", sk, rng) for _, sk in keys]
        msig = ms.ms_combine(sigs, b"m", pk_list, params, rng, skip_individual_checks=True)
        return lambda: ms.ms_mult_verify(msig, b"m", pk_list, params, rng)
    params = sas.setup(suite, scheme, rng)
    agg = sas.empty_aggregate(params)
    for i in range(length):
        pub, priv = sas.keygen(params, rng)
        agg = sas.agg_sign(params, agg, b"m%d" % i, pub, priv, rng, verify_prev=False)
    return lambda: sas.agg_verify(params, agg, rng)


@pytest.mark.parametrize("scheme, length", sorted(VERIFY_COST))
def test_verify_cost(scheme, length):
    suite = _counting_suite()
    verify = _signed(suite, scheme, length, random.Random(7))
    suite.backend.counts.clear()
    before = suite.pairing_count
    assert verify()
    cost = dict(suite.backend.counts, pairings=suite.pairing_count - before)
    assert cost == VERIFY_COST[scheme, length]


def test_suite_pairs_g_and_g_hat_once():
    """e(g, ghat) is paired once per suite: a second pks keygen, and an ms
    setup or sas2 setup after it, make no pairing."""
    suite = _counting_suite()
    rng = random.Random(7)
    pks.keygen(suite, "pks2", rng)
    assert suite.pairing_count == 1
    pks.keygen(suite, "pks1", rng)
    ms.ms_setup(suite, rng)
    sas.setup(suite, "sas2", rng)
    assert suite.pairing_count == 1


# Stripping an aggregate to one signer divides all the others out at once:
# slot k is divided by g_row[k]^(sum alpha_i) * row2[k]^(sum d_i), so sas1
# takes 2 + 3 single G1 exponentiations (its g_row has one entry) and sas2
# 3 + 3, however many signers are divided out.
STRIP_COST = {"sas1": {"g1": 5}, "sas2": {"g1": 6}}


@pytest.mark.parametrize("scheme", sorted(STRIP_COST))
def test_strip_cost(scheme):
    suite = _counting_suite()
    rng = random.Random(7)
    params = sas.setup(suite, scheme, rng)
    agg, witnesses = sas.empty_aggregate(params), {}
    for i in range(3):
        pub, priv = sas.keygen(params, rng)
        agg = sas.agg_sign(params, agg, b"m%d" % i, pub, priv, rng, verify_prev=False)
        witnesses[priv.pk_id] = priv
    suite.backend.counts.clear()
    sig = sas.strip_to_single(params, agg, 1, witnesses)
    assert dict(suite.backend.counts) == STRIP_COST[scheme]
    view = sas.pks_view(params, agg.signers[1])
    assert pks.verify_scalar(view.variant, sig, agg.messages[1], view, rng)

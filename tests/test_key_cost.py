"""Cost pins: exponentiations per group, multi-exponentiation terms and
pairings of every keygen and setup, of one signature and of one verify,
read from ``GroupSuite.counts``.

The golden transcript pins the bytes of keys, parameters and signatures but
not what they cost to build or check; these counts do. ``g1``, ``g2`` and
``gt`` count single exponentiations; ``msm.g1`` and ``msm.g2`` count the
terms of multi-exponentiations, which keygen and setup do not use. The
counts live in ``groups``, so the key-material and pks and ms signing pins
run on both backends; the sas chains run on mock.
"""

import random

import pytest

from seqsig import ms, pks, sas
from seqsig.groups import suite_generate


def _counting_suite(backend="mock"):
    return suite_generate("mock", 10007) if backend == "mock" else suite_generate("real")


def _cost(build, backend="mock"):
    suite = _counting_suite(backend)
    build(suite, random.Random(7))
    return dict(suite.counts)


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


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_key_material_cost_on_real(name):
    assert _cost(BUILDS[name], "real") == EXPECTED[name]


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
    suite.counts.clear()
    assert verify()
    assert dict(suite.counts) == VERIFY_COST[scheme, length]


def _verify_formula(scheme, length):
    """VERIFY_COST's comment as a formula in the number of signers."""
    if scheme == "sas1":
        return {"g2": 3, "msm.g2": 4 * length + 3, "pairings": 8}
    return {"msm.g2": 3 if scheme == "ms" else 3 * length, "pairings": 6}


# One signature, with W the row width (4 for pks1 and sas1, 3 otherwise).
# - pks.sign makes its message base g^(x*m + y) with one G1 exponentiation
#   and takes 2W + 3 multi-exponentiation terms: 3 + 2 in slot 0, which
#   carries g and the base, and 1 + 1 in each other slot.
# - ms.ms_sign makes a base u_k^m * h_k per slot, W G1 exponentiations, and
#   every slot carries g_k and its base: 5W terms.
# - The l-th sas.agg_sign takes the terms of pks1 (sas1) or of ms (sas2),
#   one more per slot for the aggregate so far, and one per signer and slot
#   of the u rows for its message bases (1 slot in sas1, W in sas2), and no
#   single exponentiation: l + 15 terms for sas1 and 3l + 18 for sas2. At
#   l = 1 the empty aggregate's W identity terms are skipped. verify_prev=True
#   adds the VERIFY_COST of the l - 1 signers so far, which at l = 1 is
#   nothing: an empty aggregate draws no coin and makes no pairing.
SIGN_COST = {
    ("pks1", 1, False): {"g1": 1, "msm.g1": 11},
    ("pks2", 1, False): {"g1": 1, "msm.g1": 9},
    ("lw", 1, False): {"g1": 1, "msm.g1": 9},
    ("ms", 1, False): {"g1": 3, "msm.g1": 15},
    ("sas1", 1, False): {"msm.g1": 12},
    ("sas1", 1, True): {"msm.g1": 12},
    ("sas1", 5, False): {"msm.g1": 20},
    ("sas1", 5, True): {"msm.g1": 20, "g2": 3, "msm.g2": 19, "pairings": 8},
    ("sas1", 20, False): {"msm.g1": 35},
    ("sas1", 20, True): {"msm.g1": 35, "g2": 3, "msm.g2": 79, "pairings": 8},
    ("sas2", 1, False): {"msm.g1": 18},
    ("sas2", 1, True): {"msm.g1": 18},
    ("sas2", 5, False): {"msm.g1": 33},
    ("sas2", 5, True): {"msm.g1": 33, "msm.g2": 12, "pairings": 6},
    ("sas2", 20, False): {"msm.g1": 78},
    ("sas2", 20, True): {"msm.g1": 78, "msm.g2": 57, "pairings": 6},
}


def _sign_formula(scheme, length, verify_prev):
    w = pks.ROW_WIDTH[scheme]
    if scheme in pks.VARIANTS:
        return {"g1": 1, "msm.g1": 2 * w + 3}
    if scheme == "ms":
        return {"g1": w, "msm.g1": 5 * w}
    rows = _sign_formula("pks1" if scheme == "sas1" else "ms", 1, False)["msm.g1"]
    slots = 1 if scheme == "sas1" else w
    cost = {"msm.g1": rows + w + slots * length - (w if length == 1 else 0)}
    if verify_prev and length > 1:
        cost.update(_verify_formula(scheme, length - 1))
    return cost


def test_cost_tables_follow_their_formulas():
    assert all(_verify_formula(*key) == cost for key, cost in VERIFY_COST.items())
    assert all(_sign_formula(*key) == cost for key, cost in SIGN_COST.items())


def _signing(suite, scheme, length, verify_prev, rng):
    """A signing call, with its key and the aggregate so far already built."""
    if scheme in pks.VARIANTS:
        pk, sk = pks.keygen(suite, scheme, rng)
        return lambda: pks.sign(scheme, b"m", sk, pk, rng)
    if scheme == "ms":
        params = ms.ms_setup(suite, rng)
        sk = ms.ms_keygen(params, rng)[1]
        return lambda: ms.ms_sign(params, b"m", sk, rng)
    params = sas.setup(suite, scheme, rng)
    agg = sas.empty_aggregate(params)
    for i in range(length - 1):
        pub, priv = sas.keygen(params, rng)
        agg = sas.agg_sign(params, agg, b"m%d" % i, pub, priv, rng, verify_prev=False)
    pub, priv = sas.keygen(params, rng)
    return lambda: sas.agg_sign(params, agg, b"m", pub, priv, rng, verify_prev=verify_prev)


SIGN_CASES = [("mock", *key) for key in sorted(SIGN_COST)] + [
    ("real", *key) for key in sorted(SIGN_COST) if key[0] not in sas.VARIANTS]


@pytest.mark.parametrize("backend, scheme, length, verify_prev", SIGN_CASES)
def test_sign_cost(backend, scheme, length, verify_prev):
    suite = _counting_suite(backend)
    sign = _signing(suite, scheme, length, verify_prev, random.Random(7))
    suite.counts.clear()
    sign()
    # a chain kept in memory serves some of these terms from tables, which
    # tests/test_msm_tables.py pins; the terms are counted either way
    cost = {key: n for key, n in suite.counts.items() if not key.startswith("table")}
    assert cost == SIGN_COST[scheme, length, verify_prev]


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
    suite.counts.clear()
    sig = sas.strip_to_single(params, agg, 1, witnesses)
    assert dict(suite.counts) == STRIP_COST[scheme]
    view = sas.pks_view(params, agg.signers[1])
    assert pks.verify_scalar(view.variant, sig, agg.messages[1], view, rng)

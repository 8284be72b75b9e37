"""Verification with the coin t out of the pairing equation: the paper's verdicts.

The three verify paths check e(row1, V1') * e(row2, V2')^-1 == Omega on the
verifier rows (V1', V2') of ``pks.verifier_rows``; t enters them only
through s1/t and s2/t on the randomization row of pks1 and sas1. The paper
checks e(row1, V1) * e(row2, V2)^-1 == Omega^t with V = (V')^t, the same
equation raised to t, which is nonzero in a group of prime order. So for the
same coins both must give the same verdict, on honest and on tampered input
alike; coins (t, s1, s2) must give the verdict of (1, s1/t, s2/t); and a
coin t = 0 mod the order, which would make every input pass the paper's
equation, is still refused.
"""

import pytest

from dual_system import check_product
from seqsig import ms, pks, sas

MSG = b"fold"


def _tamper(sig, suite):
    return (sig.row1[0] * suite.g,) + sig.row1[1:]


def _pks_case(suite, rng, variant):
    pk, sk = pks.keygen(suite, variant, rng)
    m = pks.message_scalar(suite, variant, MSG)
    sig = pks.sign_scalar(variant, m, sk, pk, rng)
    bad = pks.Signature(variant, _tamper(sig, suite), sig.row2)
    v_hat_row = pk.v_hat_row if variant == "pks1" else None
    rows = (pk.g_hat_row, v_hat_row, [(pk.u_hat_row, pk.h_hat_row, m)])
    verify = lambda s, t, s1, s2: pks.verify_with_coins(variant, s, m, pk, t, s1, s2)
    return sig, bad, rows, pk.omega, verify


def _sas_case(suite, rng, variant):
    params = sas.setup(suite, variant, rng)
    agg = sas.empty_aggregate(params)
    for i in range(3):
        pub, priv = sas.keygen(params, rng)
        agg = sas.agg_sign(params, agg, b"%s %d" % (MSG, i), pub, priv, rng)
    bad = sas.AggregateSignature(variant, _tamper(agg, suite), agg.row2, agg.messages, agg.signers)
    v_hat_row = params.v_hat_row if variant == "sas1" else None
    terms = [(s.u_hat_row, s.h_hat_row, m) for m, s in zip(agg.messages, agg.signers)]
    omega = pks.product([s.omega for s in agg.signers])
    verify = lambda s, t, s1, s2: sas.agg_verify_with_coins(params, s, t, s1, s2)
    return agg, bad, (params.g_hat_row, v_hat_row, terms), omega, verify


def _ms_case(suite, rng, _variant):
    params = ms.ms_setup(suite, rng)
    keys = [ms.ms_keygen(params, rng) for _ in range(3)]
    sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
    pk_list = [pk for pk, _ in keys]
    msig = ms.ms_combine(sigs, MSG, pk_list, params, rng)
    bad = ms.MsSignature(_tamper(msig, suite), msig.row2)
    m = ms.message_scalar(params, MSG)
    rows = (params.g_hat_row, None, [(params.u_hat_row, params.h_hat_row, m)])
    omega = pks.product([pk.omega for pk in pk_list])
    verify = lambda s, t, s1, s2: ms.ms_mult_verify_with_coins(s, m, pk_list, params, t)
    return msig, bad, rows, omega, verify


CASES = [
    ("pks1", _pks_case), ("pks2", _pks_case),
    ("sas1", _sas_case), ("sas2", _sas_case),
    ("ms", _ms_case),
]


def paper_rows(g_hat_row, v_hat_row, terms, t, s1, s2):
    """The paper's verifier rows, coin t on G2:
    V1_k = g_hat_k^t * v_hat_{k-1}^s1, V2_k = prod_i (u_hat_ik^m_i h_hat_ik)^t * v_hat_{k-1}^s2."""
    v1, v2 = [], []
    for k, g_hat in enumerate(g_hat_row):
        a = g_hat ** t
        b = pks.product([(u[k] ** m * h[k]) ** t for u, h, m in terms])
        if v_hat_row is not None and k > 0:
            a = a * v_hat_row[k - 1] ** s1
            b = b * v_hat_row[k - 1] ** s2
        v1.append(a)
        v2.append(b)
    return v1, v2


@pytest.mark.parametrize("variant, build", CASES, ids=[v for v, _ in CASES])
def test_folded_check_matches_paper_form(mock_suite, rng, variant, build):
    sig, bad, (g_hat_row, v_hat_row, terms), omega, verify = build(mock_suite, rng, variant)
    p = mock_suite.order
    coins = [(1, 0, 0), (rng.randrange(1, p), 0, 0),
             (rng.randrange(1, p), rng.randrange(p), rng.randrange(p))]
    for t, s1, s2 in coins:
        v1, v2 = paper_rows(g_hat_row, v_hat_row, terms, t, s1, s2)
        f1, f2 = pks.verifier_rows(g_hat_row, v_hat_row, terms, t, s1, s2)
        assert ([v ** t for v in f1], [v ** t for v in f2]) == (v1, v2)
        for candidate, honest in ((sig, True), (bad, False)):
            paper = check_product(candidate, v1, v2, omega ** t)
            assert verify(candidate, t, s1, s2) == paper == honest


@pytest.mark.parametrize("variant, build", CASES, ids=[v for v, _ in CASES])
def test_coin_t_folds_into_randomization_row(mock_suite, rng, variant, build):
    sig, bad, _, _, verify = build(mock_suite, rng, variant)
    p = mock_suite.order
    for _ in range(3):
        t, s1, s2 = rng.randrange(2, p), rng.randrange(p), rng.randrange(p)
        t_inv = pow(t, -1, p)
        for candidate, honest in ((sig, True), (bad, False)):
            folded = verify(candidate, 1, s1 * t_inv % p, s2 * t_inv % p)
            assert verify(candidate, t, s1, s2) == folded == honest


def test_coin_minus_one_on_real_backend(real_suite, rng):
    sig, bad, _, _, verify = _pks_case(real_suite, rng, "pks2")
    for candidate, honest in ((sig, True), (bad, False)):
        assert verify(candidate, real_suite.order - 1, 0, 0) == verify(candidate, 1, 0, 0) == honest


@pytest.mark.parametrize("variant", ["pks1", "pks2"])
def test_verification_components_are_the_paper_rows(mock_suite, rng, variant):
    pk, _ = pks.keygen(mock_suite, variant, rng)
    v_hat_row = pk.v_hat_row if variant == "pks1" else None
    m, t, s1, s2 = 1234, 5678, 91, 23
    v1, v2 = pks.verification_components(variant, pk, m, t, s1, s2)
    want = paper_rows(pk.g_hat_row, v_hat_row, [(pk.u_hat_row, pk.h_hat_row, m)], t, s1, s2)
    assert (list(v1), list(v2)) == want


@pytest.mark.parametrize("variant, build", CASES, ids=[v for v, _ in CASES])
def test_zero_coin_rejected(mock_suite, rng, variant, build):
    """t = 0 mod the order makes both sides of the equation 1 and would
    accept any input, so every entry point refuses such a coin."""
    _, bad, _, _, verify = build(mock_suite, rng, variant)
    for t in (0, mock_suite.order):
        with pytest.raises(ValueError):
            verify(bad, t, 0, 0)

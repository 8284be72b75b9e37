"""Cached multi-exponentiation tables: where they are built and used.

An element gets its table on its third ``groups.multi_exp`` use and keeps
it for its lifetime, so a key decoded from a file and verified or signed
with once (one CLI run) builds none, and a key kept in memory builds its
tables once. The identity is never tabled. The suite counts the tables
built and the terms served from one; the counting lives in ``groups``, so
it reads the same on both backends.
"""

import random

import pytest

from seqsig import envelopes as env, groups, ms, pks, sas
from seqsig.groups import suite_generate

MSG = b"tabled"


def _counts(suite):
    return suite.counts["tables_built"], suite.counts["table_terms"]


def _decoded_pks2(backend, order=None):
    """A pks2 key and signature decoded into a fresh suite, as a CLI run reads them."""
    rng = random.Random(11)
    suite = suite_generate(backend, order)
    pk, sk = pks.keygen(suite, "pks2", rng)
    sig = pks.sign("pks2", MSG, sk, pk, rng)
    fresh = suite_generate(backend, order)
    return (fresh, env.decode_public_key(fresh, env.encode_public_key(pk)),
            env.decode_signature(fresh, env.encode_signature(sig)), rng)


@pytest.mark.parametrize("backend, order", [("mock", 10007), ("real", None)], ids=["mock", "real"])
def test_a_key_builds_its_tables_on_its_third_verify(backend, order):
    suite, pk, sig, rng = _decoded_pks2(backend, order)
    width = len(pk.u_hat_row)
    assert pks.verify("pks2", sig, MSG, pk, rng)
    assert _counts(suite) == (0, 0)  # one verify of a decoded key, as in a CLI run
    assert pks.verify("pks2", sig, MSG, pk, rng)
    assert _counts(suite) == (0, 0)
    assert pks.verify("pks2", sig, MSG, pk, rng)
    assert _counts(suite) == (width, width)  # exactly the key's u_hat_row, each used once
    assert pks.verify("pks2", sig, MSG, pk, rng)
    assert _counts(suite) == (width, 2 * width)  # none built, every u_hat term from a table
    assert not pks.verify("pks2", sig, MSG + b"!", pk, rng)


def test_an_aggregate_read_from_files_builds_no_table_until_reused():
    rng = random.Random(5)
    suite = suite_generate("mock", 10007)
    params = sas.setup(suite, "sas2", rng)
    keys = [sas.keygen(params, rng) for _ in range(3)]
    agg = sas.empty_aggregate(params)
    for i, (pub, priv) in enumerate(keys):
        agg = sas.agg_sign(params, agg, b"m%d" % i, pub, priv, rng)
    fresh = suite_generate("mock", 10007)
    params = env.decode_params(fresh, env.encode_params(params))
    pubs = [env.decode_public_key(fresh, env.encode_public_key(pub)) for pub, _ in keys]
    agg = env.decode_aggregate(fresh, env.encode_aggregate(agg), pubs)
    assert sas.agg_verify(params, agg, rng)
    assert _counts(fresh) == (0, 0)
    assert sas.agg_verify(params, agg, rng)
    assert _counts(fresh) == (0, 0)
    terms = sum(len(pub.u_hat_row) for pub in pubs)
    assert sas.agg_verify(params, agg, rng)
    assert _counts(fresh) == (terms, terms)
    assert sas.agg_verify(params, agg, rng)
    assert _counts(fresh) == (terms, 2 * terms)


def test_exponentiation_builds_no_table():
    suite = suite_generate("mock", 10007)
    u = suite.g_hat ** 1234
    for k in range(1, 6):
        assert u ** k == suite.g_hat ** (1234 * k)
    assert _counts(suite) == (0, 0)
    # the powers above were no use of u: its first multi_exp is still untabled
    groups.multi_exp([(u, 2)])
    groups.multi_exp([(u, 2)])
    assert _counts(suite) == (0, 0)
    assert groups.multi_exp([(u, 3)]) == u ** 3
    assert _counts(suite) == (1, 1)


def test_tabled_results_equal_untabled_ones_on_real():
    """The same element through the untabled first and second uses, the
    building third use and a tabled fourth use, next to an untabled fresh
    element."""
    suite = suite_generate("real")
    u, v = suite.g ** 1234, suite.g_hat ** 5678
    k = random.Random(3).randrange(suite.order)
    for elem in (u, v):
        want = groups.multi_exp([(type(elem)(suite, elem.h), k + 1)])
        got = [groups.multi_exp([(elem, k), (type(elem)(suite, elem.h), 1)]) for _ in range(4)]
        assert got == [want] * 4
    assert _counts(suite) == (2, 4)


@pytest.mark.parametrize("backend, order", [("mock", 10007), ("real", None)], ids=["mock", "real"])
def test_one_cold_signature_builds_no_table(backend, order):
    """One pks sign, one sas append onto the empty aggregate and one ms share,
    each with keys or parameters read from files, build no table: each uses
    a base at most twice. The append onto the empty aggregate uses the one
    identity element in every slot; it is skipped, never tabled."""
    rng = random.Random(3)
    suite = suite_generate(backend, order)
    pk, sk = pks.keygen(suite, "pks2", rng)
    fresh = suite_generate(backend, order)
    pk = env.decode_public_key(fresh, env.encode_public_key(pk))
    assert pks.verify("pks2", pks.sign("pks2", MSG, sk, pk, rng), MSG, pk, rng)
    assert _counts(fresh) == (0, 0)

    params = sas.setup(suite, "sas2", rng)
    pub, priv = sas.keygen(params, rng)
    fresh = suite_generate(backend, order)
    params = env.decode_params(fresh, env.encode_params(params))
    pub = env.decode_public_key(fresh, env.encode_public_key(pub))
    empty = sas.empty_aggregate(params)
    agg = sas.agg_sign(params, empty, MSG, pub, priv, rng)
    assert _counts(fresh) == (0, 0)
    assert all(e._table is groups._UNUSED for e in empty.elements())
    assert sas.agg_verify(params, agg, rng)

    params = ms.ms_setup(suite, rng)
    msk = ms.ms_keygen(params, rng)[1]
    fresh = suite_generate(backend, order)
    params = env.decode_params(fresh, env.encode_params(params))
    ms.ms_sign(params, MSG, msk, rng)
    assert _counts(fresh) == (0, 0)


def test_a_second_append_tables_the_parameters():
    """The parameters of a chain kept in memory get their tables on the
    second append, their third and fourth uses."""
    rng = random.Random(3)
    suite = suite_generate("mock", 10007)
    params = sas.setup(suite, "sas2", rng)
    agg = sas.empty_aggregate(params)
    for i in range(2):
        pub, priv = sas.keygen(params, rng)
        agg = sas.agg_sign(params, agg, b"m%d" % i, pub, priv, rng, verify_prev=False)
    width = len(params.w_row)
    assert _counts(suite) == (2 * width, 4 * width)  # w_row and g_row, served twice each

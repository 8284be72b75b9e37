"""Cached multi-exponentiation tables: where they are built and used.

An element gets its table on its third ``groups.multi_exp`` use and keeps
it for its lifetime, so a key decoded from a file and verified or signed
with once (one CLI run) builds none, and a key kept in memory builds its
tables once. The identity is never tabled. The suite counts the tables
built and the terms served from one; the counting lives in ``groups``, so
it reads the same on both backends.
"""

import random
from collections import Counter

import pytest

from seqsig import bn254, envelopes as env, groups, ms, pks, sas
from seqsig.groups import suite_generate

MSG = b"tabled"
BACKENDS = pytest.mark.parametrize("backend, order", [("mock", 10007), ("real", None)],
                                   ids=["mock", "real"])


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


@BACKENDS
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


@BACKENDS
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
    assert all(e._table is None and e._uses == 0 for e in empty.elements())
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


def _asked(suite, monkeypatch, refused=()):
    """The (kind, handle) of each membership check the backend is asked.
    The handles in ``refused`` are answered False: the mock group has prime
    order, so no element of it lies outside."""
    asked, check = [], suite.backend.has_order_r
    monkeypatch.setattr(suite.backend, "has_order_r", lambda kind, h: asked.append((kind, h))
                        or (h not in refused and check(kind, h)))
    return asked


@BACKENDS
def test_an_element_outside_g2_is_never_tabled(backend, order, monkeypatch):
    """A decoded G2 element outside G2 (on real Q + T, with T of order
    10069) in five multi_exp calls and two powers: its third use asks
    has_order_r once, which refuses it, so no table is built, and every
    result is exact. A G2 element with the same uses gets its table on the
    third, on real with psi images, so its terms run split."""
    from test_bn254 import naive_g2_ladder, twist_point_of_order_10069
    suite = suite_generate(backend, order)
    q = suite.g_hat ** 1234
    if backend == "real":
        off_h, refused = bn254.g2_add(q.h, twist_point_of_order_10069()), ()
        exact = lambda h, k: naive_g2_ladder(h, k % suite.order)
    else:
        off_h = (suite.g_hat ** 4321).h
        refused, exact = (off_h,), lambda h, k: h * k % suite.order
    off = groups.decode_element(suite, "g2", suite.backend.encode("g2", off_h))
    asked = _asked(suite, monkeypatch, refused)
    draw = random.Random(29).randrange
    for elem, in_g2 in ((off, False), (q, True)):
        asked.clear()
        suite.counts.clear()
        k = draw(suite.order)
        assert (elem ** k).h == exact(elem.h, k)
        for _ in range(5):
            k = draw(suite.order)
            assert groups.multi_exp([(elem, k)]).h == exact(elem.h, k)
        assert (elem ** k).h == exact(elem.h, k)
        assert asked == [("g2", elem.h)] and elem._uses == (3 if in_g2 else 5)
        assert _counts(suite) == ((1, 3) if in_g2 else (0, 0))
        assert (elem._table is not None) == in_g2
        if in_g2 and backend == "real":
            assert elem._table.images is not None


@BACKENDS
def test_a_row_that_is_gated_and_tabled_is_checked_once(backend, order, monkeypatch):
    """The parameters' u_hat row is a multi_exp base of every ms verify and
    combine, and with the g_hat and h_hat rows it passes ms_combine's batch
    gate. Two verifies, then a combine whose rows are the u_hat row's third
    use: the table build and the gate read one verdict, and each of the 9
    G2 rows is asked once over two combines."""
    rng = random.Random(3)
    suite = suite_generate(backend, order)
    params = ms.ms_setup(suite, rng)
    keys = [ms.ms_keygen(params, rng) for _ in range(2)]
    sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
    pubs = [pk for pk, _ in keys]
    msig = ms.ms_combine(sigs, MSG, pubs, params, rng, skip_individual_checks=True)
    rows = (*params.g_hat_row, *params.u_hat_row, *params.h_hat_row)
    assert len({row.h for row in rows}) == len(rows)
    asked = _asked(suite, monkeypatch)
    suite.counts.clear()
    for _ in range(2):
        assert ms.ms_mult_verify(msig, MSG, pubs, params, rng)
    assert asked == [] and _counts(suite) == (0, 0)
    for _ in range(2):
        assert ms.ms_combine(sigs, MSG, pubs, params, rng) == msig
    assert all(u._table is not None for u in params.u_hat_row)
    per_row = Counter(h for kind, h in asked if kind == "g2")
    assert [per_row[row.h] for row in rows] == [1] * len(rows)

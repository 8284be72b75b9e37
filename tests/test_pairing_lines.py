"""Cached Miller-loop lines: where they are built and used.

A G2 element gets its lines in its first ``groups.pairing_product`` and
keeps them for its lifetime; the lines of all the unlined elements of one
product are built in one backend call. The fixed argument of every verify
is the ĝ row of the key or parameters (slot 0 only of the 4-wide variants,
whose other slots carry a fresh v̂^(s1/t)), so a key's first verify lines
it and later verifies reuse it. The identity, and an element paired only
with the G1 identity, is never lined. The tests read the ``_lines`` slot
and wrap ``suite.backend.lines``; the policy lives in ``groups``, so it
reads the same on both backends.
"""

import random

import pytest

from seqsig import bn254, envelopes as env, groups, ms, pks, sas
from seqsig.groups import suite_generate

MSG = b"lined"
BACKENDS = pytest.mark.parametrize("backend, order", [("mock", 10007), ("real", None)],
                                   ids=["mock", "real"])


def _recorded_builds(suite, monkeypatch):
    """The handles of each ``suite.backend.lines`` call from now on, one list per call."""
    calls, lines = [], suite.backend.lines
    monkeypatch.setattr(suite.backend, "lines", lambda hs: calls.append(list(hs)) or lines(hs))
    return calls


def _decoded(variant, backend, order=None):
    """A pks key and signature decoded into a fresh suite, as a CLI run reads them."""
    rng = random.Random(11)
    suite = suite_generate(backend, order)
    pk, sk = pks.keygen(suite, variant, rng)
    sig = pks.sign(variant, MSG, sk, pk, rng)
    fresh = suite_generate(backend, order)
    return (fresh, env.decode_public_key(fresh, env.encode_public_key(pk)),
            env.decode_signature(fresh, env.encode_signature(sig)), rng)


@BACKENDS
@pytest.mark.parametrize("variant, fixed", [("pks2", 3), ("pks1", 1)])
def test_a_key_builds_its_lines_on_its_first_verify(variant, fixed, backend, order, monkeypatch):
    """The first verify lines the ĝ row (its slot 0 on pks1) together with
    the fresh V2' row, in one build; later verifies reuse the row's lines
    and build only their own fresh rows."""
    suite, pk, sig, rng = _decoded(variant, backend, order)
    calls = _recorded_builds(suite, monkeypatch)
    row = pk.g_hat_row
    assert all(q._lines is None for q in row)
    assert pks.verify(variant, sig, MSG, pk, rng)
    assert [q._lines is not None for q in row] == [True] * fixed + [False] * (len(row) - fixed)
    assert calls[0][:fixed] == [q.h for q in row[:fixed]]
    kept = [q._lines for q in row]
    assert pks.verify(variant, sig, MSG, pk, rng)
    assert not pks.verify(variant, sig, MSG + b"!", pk, rng)
    assert all(q._lines is line for q, line in zip(row, kept))
    width = len(row)
    assert [len(c) for c in calls] == [2 * width] + [2 * width - fixed] * 2
    assert suite.pairing_count == 3 * 2 * width


@BACKENDS
def test_sas1_omega_base_is_a_use_of_the_first_g_hat(backend, order, monkeypatch):
    """The pairing behind a sas1 signer's Omega base is the first use of
    g_hat_row[0], so it is lined at key generation and every verify reuses
    its lines."""
    rng = random.Random(5)
    suite = suite_generate(backend, order)
    params = sas.setup(suite, "sas1", rng)
    assert params.g_hat_row[0]._lines is None
    pub, priv = sas.keygen(params, rng)
    lines = params.g_hat_row[0]._lines
    assert lines is not None
    agg = sas.agg_sign(params, sas.empty_aggregate(params), MSG, pub, priv, rng)
    calls = _recorded_builds(suite, monkeypatch)
    for _ in range(2):
        assert sas.agg_verify(params, agg, rng)
    assert params.g_hat_row[0]._lines is lines
    assert [len(c) for c in calls] == [7, 7]  # 3 fresh V1' slots and 4 V2' slots each


def test_the_identity_is_never_lined(monkeypatch):
    for backend, order in (("mock", 10007), ("real", None)):
        suite = suite_generate(backend, order)
        calls = _recorded_builds(suite, monkeypatch)
        one, g = suite.identity("g2"), suite.g ** 3
        for _ in range(2):
            assert groups.pairing_product([(g, one)], [(g, one)]).is_identity()
        assert calls == [] and one._lines is None
        assert suite.pairing_count == 4


@BACKENDS
def test_an_element_beside_the_g1_identity_is_not_lined(backend, order, monkeypatch):
    """The Miller loop skips a pair with a G1 identity, so no lines are built
    for its G2 side; the same element is lined once it meets a real G1 side."""
    suite = suite_generate(backend, order)
    calls = _recorded_builds(suite, monkeypatch)
    q, none = suite.g_hat ** 5, suite.identity("g1")
    assert groups.pairing_product([(none, q)], [(none, q)]).is_identity()
    assert calls == [] and q._lines is None
    a = suite.g ** 7
    assert groups.pairing_product([(none, q), (a, q)]) == groups.pair(a, type(q)(suite, q.h))
    assert calls[0] == [q.h] and q._lines is not None


@BACKENDS
def test_one_element_on_both_sides_is_built_once(backend, order, monkeypatch):
    suite = suite_generate(backend, order)
    calls = _recorded_builds(suite, monkeypatch)
    a, c, q, r = suite.g ** 1234, suite.g ** 99, suite.g_hat ** 5678, suite.g_hat ** 3
    assert groups.pairing_product([(a, q), (c, q), (a, r)], [(a, q)]) == groups.pairing_product(
        [(c, q), (a, r)])
    assert calls == [[q.h, r.h]]  # the second product reuses both


def test_lined_results_equal_unlined_ones_on_real():
    """One element through its lining first use and two lined later uses, on
    both sides of the product, next to a fresh copy of itself, against the
    product of ``bn254.pairing`` values, each of which lines its own point."""
    suite = suite_generate("real")
    a, c, q = suite.g ** 1234, suite.g ** 99, suite.g_hat ** 5678
    fresh = lambda: type(q)(suite, q.h)
    e_aq = bn254.pairing(a.h, q.h)
    want = bn254.fq12_mul(bn254.fq12_mul(e_aq, bn254.pairing(c.h, q.h)), bn254.fq12_conj(e_aq))
    got = [groups.pairing_product([(a, q), (c, fresh())], [(a, q)]) for _ in range(3)]
    assert [x.h for x in got] == [want] * 3
    assert want == groups.pair(c, fresh()).h


def _handed_products(suite, monkeypatch):
    """One record per ``pairing_product`` call from now on: the numerator
    and denominator pairs it was given, the pairs it handed
    ``suite.backend.pair_product_raw`` and its result."""
    records, product, raw = [], groups.pairing_product, suite.backend.pair_product_raw

    def recorded(num, den=()):
        rec = {"num": list(num), "den": list(den), "handed": []}
        records.append(rec)
        rec["out"] = product(rec["num"], rec["den"])
        return rec["out"]

    def handed(pairs):
        records[-1]["handed"] += pairs
        return raw(pairs)

    monkeypatch.setattr(groups, "pairing_product", recorded)
    monkeypatch.setattr(pks, "pairing_product", recorded)
    monkeypatch.setattr(suite.backend, "pair_product_raw", handed)
    return records


def _paired(suite, a, b):
    """e(a, b) by ``bn254.pairing`` on real, as a*b on mock's exponents."""
    if suite.backend.name == "mock":
        return a.h * b.h % suite.order
    return bn254.pairing(a.h, b.h)


@BACKENDS
def test_the_backend_gets_only_live_lined_pairs(backend, order, monkeypatch):
    """Verifies of pks1, pks2 and lw, sas1 and sas2 aggregates at l = 2, a
    3-share ``ms_combine`` and its ``ms_mult_verify``, and a product with a
    G1 identity beside a fresh G2 element and a G2 identity on the
    denominator: every pair handed to the backend has a G1 side that is not
    the identity and, as its G2 side, the very lines kept on its element;
    the pairs with an identity side are left out but counted; and every
    result is the product of the pairs' pairings."""
    rng = random.Random(7)
    suite = suite_generate(backend, order)
    ops = []
    for variant in pks.VARIANTS:
        pk, sk = pks.keygen(suite, variant, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        ops.append(lambda v=variant, s=sig, k=pk: pks.verify(v, s, MSG, k, rng))
    for variant in ("sas1", "sas2"):
        params = sas.setup(suite, variant, rng)
        agg = sas.empty_aggregate(params)
        for _ in range(2):
            agg = sas.agg_sign(params, agg, MSG, *sas.keygen(params, rng), rng)
        ops.append(lambda p=params, g=agg: sas.agg_verify(p, g, rng))
    params = ms.ms_setup(suite, rng)
    keys = [ms.ms_keygen(params, rng) for _ in range(3)]
    sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
    pubs = [pk for pk, _ in keys]
    ops.append(lambda: ms.ms_mult_verify(ms.ms_combine(sigs, MSG, pubs, params, rng),
                                         MSG, pubs, params, rng))
    q, a, c = suite.g_hat ** 5, suite.g ** 7, suite.g ** 11
    ops.append(lambda: groups.pairing_product(
        [(suite.identity("g1"), q), (a, suite.g_hat)], [(c, suite.identity("g2"))])
        == groups.pair(a, suite.g_hat))
    records = _handed_products(suite, monkeypatch)
    suite.counts.clear()
    assert all(op() for op in ops)
    assert q._lines is None
    assert suite.counts["pairings"] == sum(len(r["num"]) + len(r["den"]) for r in records)
    one = suite.identity("g1").h
    for rec in records:
        given = [(a, b, 1) for a, b in rec["num"]] + [(a, b, -1) for a, b in rec["den"]]
        live = [(a, b) for a, b, _ in given if not a.is_identity() and not b.is_identity()]
        assert len(rec["handed"]) == len(live)
        for (h, lines), (_, b) in zip(rec["handed"], live):
            assert h != one and lines is b._lines is not None
        want = suite.backend.identity("gt")
        for a, b, sign in given:
            e = _paired(suite, a, b)
            if backend == "mock":
                want = (want + sign * e) % suite.order
            else:
                want = bn254.fq12_mul(want, e if sign == 1 else bn254.fq12_conj(e))
        assert rec["out"].h == want
    assert any(len(r["handed"]) < len(r["num"]) + len(r["den"]) for r in records)


@BACKENDS
@pytest.mark.parametrize("n", [1, 4])
def test_ms_combine_lines_its_rows_once_per_call(n, backend, order, monkeypatch):
    """``ms_combine`` builds its verifier rows once per call, and its one
    product of 6 pairings, the batch check of valid shares, lines its V2'
    row, with the parameters' ĝ row on the first call: one build per call
    for any number of valid shares. Slot 0 of the ĝ row is the suite's ĝ,
    lined at setup by e(g, ĝ)."""
    rng = random.Random(3)
    suite = suite_generate(backend, order)
    params = ms.ms_setup(suite, rng)
    keys = [ms.ms_keygen(params, rng) for _ in range(n)]
    sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
    calls = _recorded_builds(suite, monkeypatch)
    suite.counts.clear()
    for _ in range(2):
        ms.ms_combine(sigs, MSG, [pk for pk, _ in keys], params, rng)
    assert params.g_hat_row[0] is suite.g_hat
    assert [len(c) for c in calls] == [5, 3]
    assert calls[0][:2] == [q.h for q in params.g_hat_row[1:]] and calls[1] == calls[0][2:]
    assert suite.pairing_count == 2 * 6


@BACKENDS
@pytest.mark.parametrize("kind", ["g1", "g2"])
def test_power_of_a_tabled_element_uses_its_table(kind, backend, order, monkeypatch):
    """``**`` takes a table that ``multi_exp`` built, builds none itself and
    is counted as one single exponentiation, with no table term."""
    suite = suite_generate(backend, order)
    base = getattr(suite, "g" if kind == "g1" else "g_hat") ** 1234
    for _ in range(3):
        groups.multi_exp([(base, 2)])
    assert base._uses == 3 and base._table is not None  # tabled on the third use
    untabled = type(base)(suite, base.h)
    handles, exp = [], suite.backend.exp
    monkeypatch.setattr(suite.backend, "exp", lambda *a: handles.append(a[1]) or exp(*a))
    suite.counts.clear()
    for k in (1, 2, 77, suite.order - 1, random.Random(3).randrange(suite.order)):
        assert base ** k == untabled ** k
    assert dict(suite.counts) == {kind: 10}
    assert all(h is base._table for h in handles[::2])  # base's own powers
    fresh = type(base)(suite, base.h)
    fresh ** 5
    assert fresh._table is None and fresh._uses == 0

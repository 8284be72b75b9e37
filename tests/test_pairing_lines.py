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

from seqsig import envelopes as env, groups, ms, pks, sas
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
    backend's product on the bare handles, whose loop builds the lines
    itself."""
    suite = suite_generate("real")
    a, c, q = suite.g ** 1234, suite.g ** 99, suite.g_hat ** 5678
    fresh = lambda: type(q)(suite, q.h)
    want = suite.backend.pair_product_raw([(a.h, q.h), (c.h, q.h)], [(a.h, q.h)])
    got = [groups.pairing_product([(a, q), (c, fresh())], [(a, q)]) for _ in range(3)]
    assert [x.h for x in got] == [want] * 3
    assert want == groups.pair(c, fresh()).h


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

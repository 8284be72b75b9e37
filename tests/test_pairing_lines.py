"""Cached Miller-loop lines: where they are built and used.

A G2 element gets its lines on its third ``groups.pairing_product`` use
and keeps them for its lifetime, as it does its ``multi_exp`` table. The
fixed argument of every verify is the ĝ row of the key or parameters
(slot 0 only of the 4-wide variants, whose other slots carry a fresh
v̂^(s1/t)), so a key read from a file and verified once or twice builds
none, and a key kept in memory builds them once. The identity is never
lined. The suite counts the lines built and the pairs served from them;
the counting lives in ``groups``, so it reads the same on both backends.
"""

import random

import pytest

from seqsig import envelopes as env, groups, pks, sas
from seqsig.groups import suite_generate

MSG = b"lined"
BACKENDS = pytest.mark.parametrize("backend, order", [("mock", 10007), ("real", None)],
                                   ids=["mock", "real"])


def _counts(suite):
    return suite.counts["lines_built"], suite.counts["line_pairs"]


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
def test_a_key_builds_its_lines_on_its_third_verify(variant, fixed, backend, order):
    suite, pk, sig, rng = _decoded(variant, backend, order)
    assert pks.verify(variant, sig, MSG, pk, rng)
    assert pks.verify(variant, sig, MSG, pk, rng)
    assert _counts(suite) == (0, 0)  # a decoded key verified once or twice
    assert pks.verify(variant, sig, MSG, pk, rng)
    assert _counts(suite) == (fixed, fixed)  # the ĝ row, or its slot 0
    assert pks.verify(variant, sig, MSG, pk, rng)
    assert _counts(suite) == (fixed, 2 * fixed)  # none built, served again
    assert not pks.verify(variant, sig, MSG + b"!", pk, rng)
    assert suite.pairing_count == 5 * (8 if variant == "pks1" else 6)


@BACKENDS
def test_sas1_omega_base_is_a_use_of_the_first_g_hat(backend, order):
    """The pairing behind a sas1 signer's Omega base is the first use of
    g_hat_row[0], so the parameters' second verify builds its lines."""
    rng = random.Random(5)
    suite = suite_generate(backend, order)
    params = sas.setup(suite, "sas1", rng)
    pub, priv = sas.keygen(params, rng)
    agg = sas.agg_sign(params, sas.empty_aggregate(params), MSG, pub, priv, rng)
    assert sas.agg_verify(params, agg, rng)
    assert _counts(suite) == (0, 0)
    assert sas.agg_verify(params, agg, rng)
    assert _counts(suite) == (1, 1)
    assert params.g_hat_row[0]._lines not in groups._PENDING


def test_the_identity_is_never_lined():
    suite = suite_generate("mock", 10007)
    one, g = suite.identity("g2"), suite.g ** 3
    for _ in range(4):
        assert groups.pairing_product([(g, one)], [(g, one)]).is_identity()
    assert _counts(suite) == (0, 0) and one._lines is groups._UNUSED


def test_lined_results_equal_unlined_ones_on_real():
    """One element through its unlined first and second uses, the building
    third use and a lined fourth use, on both sides of the product, next to
    an unlined fresh copy of itself."""
    suite = suite_generate("real")
    a, c, q = suite.g ** 1234, suite.g ** 99, suite.g_hat ** 5678
    fresh = lambda: type(q)(suite, q.h)
    want = groups.pairing_product([(a, fresh()), (c, fresh())], [(a, fresh())])
    got = [groups.pairing_product([(a, q), (c, fresh())], [(a, q)]) for _ in range(2)]
    assert got == [want] * 2 and _counts(suite) == (1, 2)  # q's 3rd use builds, 4th serves
    assert want == groups.pair(c, q)


@BACKENDS
@pytest.mark.parametrize("kind", ["g1", "g2"])
def test_power_of_a_tabled_element_uses_its_table(kind, backend, order, monkeypatch):
    """``**`` takes a table that ``multi_exp`` built, builds none itself and
    is counted as one single exponentiation, with no table term."""
    suite = suite_generate(backend, order)
    base = getattr(suite, "g" if kind == "g1" else "g_hat") ** 1234
    for _ in range(3):
        groups.multi_exp([(base, 2)])
    assert base._table not in groups._PENDING  # tabled on the third use
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
    assert fresh._table is groups._UNUSED

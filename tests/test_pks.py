"""Single-signer schemes: round trips, widths, and a hand-derived fixture."""

import dataclasses
import hashlib
import random

import pytest

from seqsig import ms, pks, sas
from seqsig.errors import CrossSuiteError, KeyMismatchError, MalformedEncodingError
from seqsig.groups import encode_element, suite_generate

MSG = b"order 66 executed"


@pytest.mark.parametrize("variant", pks.VARIANTS)
class TestRoundTrips:
    def test_sign_verify_mock(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        assert pks.verify(variant, sig, MSG, pk, rng)

    def test_wrong_message_rejected(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        assert not pks.verify(variant, sig, b"something else", pk, rng)

    def test_wrong_key_rejected(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        pk2, _ = pks.keygen(mock_suite, variant, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        assert not pks.verify(variant, sig, MSG, pk2, rng)

    def test_tampered_component_rejected(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        bad = pks.Signature(variant, (sig.row1[0] * mock_suite.g,) + sig.row1[1:], sig.row2)
        assert not pks.verify(variant, bad, MSG, pk, rng)

    def test_signature_width(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        assert len(sig.row1) == len(sig.row2) == pks.ROW_WIDTH[variant]

    def test_resigning_randomizes(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        s1 = pks.sign(variant, MSG, sk, pk, rng)
        s2 = pks.sign(variant, MSG, sk, pk, rng)
        assert s1.elements() != s2.elements()

    def test_sign_verify_real(self, real_suite, rng, variant):
        pk, sk = pks.keygen(real_suite, variant, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        assert pks.verify(variant, sig, MSG, pk, rng)
        assert not pks.verify(variant, sig, MSG + b"!", pk, rng)


class TestInterfaceGuards:
    def test_width_mismatch_is_malformed(self, mock_suite, rng):
        pk1, sk1 = pks.keygen(mock_suite, "pks1", rng)
        pk2, sk2 = pks.keygen(mock_suite, "pks2", rng)
        sig2 = pks.sign("pks2", MSG, sk2, pk2, rng)
        state = rng.getstate()
        with pytest.raises(MalformedEncodingError):
            pks.verify("pks1", sig2, MSG, pk1, rng)
        with pytest.raises(MalformedEncodingError):  # a 2-wide pks2 record
            pks.verify("pks2", pks.Signature("pks2", sig2.row1[:2], sig2.row2[:2]), MSG, pk2, rng)
        with pytest.raises(MalformedEncodingError):  # a pks1 key for a pks2 signature
            pks.verify("pks2", sig2, MSG, pk1, rng)
        assert rng.getstate() == state  # refused before the verifier's coins

    @pytest.mark.parametrize("path", ["pks.verify", "sas.agg_verify-l1", "sas.agg_verify-l2",
                                      "ms.ms_verify", "ms.ms_combine",
                                      "params/sas.agg_verify-l1", "params/sas.agg_verify-l2",
                                      "params/sas.agg_sign-l1", "params/ms.ms_verify",
                                      "params/ms.ms_combine"])
    def test_a_key_of_another_suite_is_refused_before_any_coin(self, path):
        """A signature of one mock:10007 suite with a key or signer of a
        second, or (``params/``) with its own keys under the second suite's
        parameters, is refused with ``CrossSuiteError`` by ``check_rows``,
        before the verifier's coin or any pairing, on every verifying path.
        The second suite's objects are drawn from the same seed, so only the
        suite differs."""
        (params, first), (other_params, second) = (
            _drawn_from_one_seed(path.removeprefix("params/")) for _ in range(2))
        # pks draws no parameters, so its suites are its keys
        suites = [(params or first[0]).suite, (other_params or second[0]).suite]
        if path == "params/sas.agg_sign-l1":  # a fresh key of the first suite
            pub, priv = sas.keygen(params, random.Random(6))
        if path.startswith("params/"):
            params = other_params
        rng = random.Random(5)
        state, pairings = rng.getstate(), [s.pairing_count for s in suites]
        with pytest.raises(CrossSuiteError):
            if path == "pks.verify":
                pks.verify("pks2", first[1], MSG, second[0], rng)
            elif path.startswith("sas"):
                signers = first.signers[:-1] + second.signers[-1:]
                sas.agg_verify(params, dataclasses.replace(first, signers=signers), rng)
            elif path == "ms.ms_verify":
                ms.ms_verify(first[1], MSG, second[0], params, rng)
            elif path == "ms.ms_combine":
                ms.ms_combine([first[1]], MSG, [second[0]], params, rng)
            elif path.startswith("params/sas.agg_verify"):
                sas.agg_verify(params, first, rng)
            elif path == "params/sas.agg_sign-l1":
                sas.agg_sign(params, first, MSG, pub, priv, rng)
            elif path == "params/ms.ms_verify":
                ms.ms_verify(first[1], MSG, first[0], params, rng)
            else:
                ms.ms_combine([first[1]], MSG, [first[0]], params, rng)
        assert rng.getstate() == state
        assert [s.pairing_count for s in suites] == pairings

    def test_variant_other_than_the_keys_is_refused(self, mock_suite, rng):
        # lw hashes into the reduced message space; a pks2 key must not sign or accept that
        pk, sk = pks.keygen(mock_suite, "pks2", rng)
        with pytest.raises(ValueError):
            pks.sign("lw", MSG, sk, pk, rng)
        sig = pks.sign("pks2", MSG, sk, pk, rng)
        lw_sig = pks.Signature("lw", sig.row1, sig.row2)
        state = rng.getstate()
        with pytest.raises(MalformedEncodingError):
            pks.verify("lw", lw_sig, MSG, pk, rng)
        assert rng.getstate() == state
        with pytest.raises(MalformedEncodingError):
            pks.verify_with_coins("lw", lw_sig, 5, pk, t=2)

    def test_foreign_private_key_refused(self, mock_suite, rng):
        pk, _ = pks.keygen(mock_suite, "pks2", rng)
        _, sk_other = pks.keygen(mock_suite, "pks2", rng)
        with pytest.raises(KeyMismatchError):
            pks.sign("pks2", MSG, sk_other, pk, rng)

    def test_private_key_without_id_is_refused_before_any_coin(self, mock_suite, rng):
        """A hand-built key names no public key, so it signs for none; the
        refusal draws no coin."""
        pk, _ = pks.keygen(mock_suite, "pks2", rng)
        _, sk = pks.keygen(mock_suite, "pks2", rng)
        bare = pks.PrivateKey("pks2", sk.alpha, sk.x, sk.y)
        state = rng.getstate()
        with pytest.raises(KeyMismatchError):
            pks.sign("pks2", MSG, bare, pk, rng)
        assert rng.getstate() == state

    def test_unknown_variant(self, mock_suite, rng):
        with pytest.raises(ValueError):
            pks.keygen(mock_suite, "pks9", rng)

    def test_unknown_variant_on_given_exponents(self, mock_suite, rng):
        e = pks._draw_exponents(mock_suite, "pks2", rng)
        with pytest.raises(ValueError, match="unknown variant"):
            pks.keygen_from_exponents(mock_suite, "pks9", e)

    def test_unknown_variant_in_sign_and_verify(self, mock_suite, rng):
        pk, sk = pks.keygen(mock_suite, "pks2", rng)
        sig = pks.sign("pks2", MSG, sk, pk, rng)
        with pytest.raises(ValueError):
            pks.sign("bogus", MSG, sk, pk, rng)
        with pytest.raises(ValueError):
            pks.verify("bogus", sig, MSG, pk, rng)
        with pytest.raises(ValueError):
            pks.verify_with_coins("bogus", sig, 5, pk, t=2)

    def test_message_widths(self, mock_suite):
        bound = mock_suite.order // 4
        for i in range(30):
            msg = str(i).encode()
            assert pks.message_scalar(mock_suite, "pks1", msg) < bound
            assert pks.message_scalar(mock_suite, "lw", msg) < bound
        fulls = [pks.message_scalar(mock_suite, "pks2", str(i).encode()) for i in range(30)]
        assert any(v >= bound for v in fulls)

    def test_key_id_is_stable_and_distinct(self, mock_suite, rng):
        pk1, sk1 = pks.keygen(mock_suite, "pks2", rng)
        pk2, _ = pks.keygen(mock_suite, "pks2", rng)
        assert pks.key_id(pk1) == sk1.pk_id
        assert pks.key_id(pk1) != pks.key_id(pk2)

    def test_key_id_is_hashed_once_per_key(self, mock_suite, rng, monkeypatch):
        params = sas.setup(mock_suite, "sas2", rng)
        keys = [pks.keygen(mock_suite, "pks1", rng)[0], sas.keygen(params, rng)[0],
                ms.ms_keygen(ms.ms_setup(mock_suite, rng), rng)[0]]
        ids = [pks.key_id(pk) for pk in keys]

        def refuse(*_):
            raise AssertionError("key id re-encoded a cached key")

        monkeypatch.setattr(mock_suite.backend, "encode", refuse)
        assert [pks.key_id(pk) for pk in keys] == ids
        monkeypatch.undo()
        for pk, kid in zip(keys, ids):
            payload = b"".join(encode_element(e) for e in pk.elements())
            assert kid == hashlib.sha256(payload).digest()

    def test_each_call_checks_its_records_once(self, mock_suite, rng, monkeypatch):
        """``pks.verify``, ``sas.agg_sign`` with the check of the aggregate so
        far, and ``ms.ms_mult_verify`` each ask ``check_rows`` exactly once;
        the cores behind them ask it no more."""
        pk, sk = pks.keygen(mock_suite, "pks2", rng)
        sig = pks.sign("pks2", MSG, sk, pk, rng)
        params = sas.setup(mock_suite, "sas2", rng)
        (pub1, priv1), (pub2, priv2) = sas.keygen(params, rng), sas.keygen(params, rng)
        agg = sas.agg_sign(params, sas.empty_aggregate(params), b"m1", pub1, priv1, rng)
        ms_params = ms.ms_setup(mock_suite, rng)
        keys = [ms.ms_keygen(ms_params, rng) for _ in range(2)]
        msig = ms.ms_combine([ms.ms_sign(ms_params, MSG, sk, rng) for _, sk in keys], MSG,
                             [pk for pk, _ in keys], ms_params, rng)
        calls, check = [], pks.check_rows
        monkeypatch.setattr(pks, "check_rows", lambda *a, **k: calls.append(a) or check(*a, **k))
        for call in (lambda: pks.verify("pks2", sig, MSG, pk, rng),
                     lambda: sas.agg_sign(params, agg, b"m2", pub2, priv2, rng, verify_prev=True),
                     lambda: ms.ms_mult_verify(msig, MSG, [pk for pk, _ in keys], ms_params, rng)):
            calls.clear()
            assert call()
            assert len(calls) == 1


def _drawn_from_one_seed(path):
    """(params, record) on a fresh mock:10007 suite, drawn from one seed:
    for ``pks.verify`` no params and a pks2 (key, signature), for sas an
    aggregate of as many signers as ``path`` ends in, for ms a (key,
    share)."""
    rng = random.Random(41)
    suite = suite_generate("mock", 10007)
    if path == "pks.verify":
        pk, sk = pks.keygen(suite, "pks2", rng)
        return None, (pk, pks.sign("pks2", MSG, sk, pk, rng))
    if path.startswith("sas"):
        params = sas.setup(suite, "sas2", rng)
        agg = sas.empty_aggregate(params)
        for i in range(int(path[-1])):
            pub, priv = sas.keygen(params, rng)
            agg = sas.agg_sign(params, agg, b"m%d" % i, pub, priv, rng, verify_prev=False)
        return params, agg
    params = ms.ms_setup(suite, rng)
    pk, sk = ms.ms_keygen(params, rng)
    return params, (pk, ms.ms_sign(params, MSG, sk, rng))


class TestHandFixture:
    """Everything below is recomputed by hand in the p = 101 mock group
    (all handles are exponents of the generator)."""

    EXPS = pks.Pks1Exponents(
        y_w=6, y_v=8, nu1=3, nu2=4, nu3=5,
        phi1=2, phi2=3, phi3=4, alpha=7, x=2, y=3,
    )
    M, R, C1, C2 = 11, 13, 1, 2

    def _fixture(self, tiny_suite):
        pk, sk = pks.keygen_from_exponents(tiny_suite, "pks1", self.EXPS)
        sig = pks.sign_with_randomness("pks1", self.M, sk, pk, self.R, self.C1, self.C2)
        return pk, sk, sig

    def test_public_key_exponents(self, tiny_suite):
        pk, _, _ = self._fixture(tiny_suite)
        # w = g^6, w_i = w^phi_i; tau = 2 + 3*3 + 4*4 = 27, pi = 3 + 5*4 = 23
        assert [e.h for e in pk.w_row] == [12, 18, 24, 6]
        assert [e.h for e in pk.g_hat_row] == [1, 3, 4, (-27) % 101]
        assert [e.h for e in pk.u_hat_row] == [2, 6, 8, (-54) % 101]
        assert [e.h for e in pk.h_hat_row] == [3, 9, 12, (-81) % 101]
        assert [e.h for e in pk.v_hat_row] == [8, 40, (8 * -23) % 101]
        assert pk.omega.h == 7

    def test_signature_exponents(self, tiny_suite):
        _, _, sig = self._fixture(tiny_suite)
        # row1[0] = alpha + (x*M + y)*r + y_w*phi1*c1
        #         = 7 + 25*13 + 12 = 344 = 41 (mod 101)
        assert sig.row1[0].h == 41
        assert [e.h for e in sig.row1[1:]] == [18, 24, 6]
        # row2[0] = r + y_w*phi1*c2 = 13 + 24 = 37
        assert sig.row2[0].h == 37
        assert [e.h for e in sig.row2[1:]] == [36, 48, 12]

    def test_verifies_with_fixed_coins(self, tiny_suite):
        pk, _, sig = self._fixture(tiny_suite)
        assert pks.verify_with_coins("pks1", sig, self.M, pk, t=2, s1=0, s2=0)
        assert pks.verify_with_coins("pks1", sig, self.M, pk, t=2, s1=5, s2=9)
        assert pk.omega.h * 2 % 101 == 14  # the accepted product is Omega^2

    def test_pairing_product_equals_omega_squared(self, tiny_suite):
        pk, _, sig = self._fixture(tiny_suite)
        v1, v2 = pks.verification_components("pks1", pk, self.M, 2, 0, 0)
        from seqsig.groups import pairing_product
        lhs = pairing_product(zip(sig.row1, v1), zip(sig.row2, v2))
        assert lhs.h == 14
        assert lhs == pk.omega ** 2

    def test_rejects_wrong_message_with_fixed_coins(self, tiny_suite):
        pk, _, sig = self._fixture(tiny_suite)
        assert not pks.verify_with_coins("pks1", sig, (self.M + 1) % 101, pk, t=2)

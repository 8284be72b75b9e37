"""Semi-functional oracles: cross-acceptance and the residual factor."""

import random

import pytest

import dual_system as ds
from seqsig import pks
from seqsig.errors import KeyMismatchError
from seqsig.groups import pairing_product

MSG = b"execute plan nine"


@pytest.fixture(params=["pks1", "pks2"])
def variant(request):
    return request.param


@pytest.fixture
def keyed(mock_suite, rng, variant):
    pk, sk, td = ds.keygen_with_trapdoor(mock_suite, variant, rng)
    return mock_suite, pk, sk, td


def random_tags(suite, rng):
    return ds.SFTags(
        s_k=rng.randrange(1, suite.order),
        z_k=rng.randrange(suite.order),
        s_c=rng.randrange(1, suite.order),
        z_c=rng.randrange(suite.order),
    )


class TestCrossAcceptance:
    def test_normal_sign_normal_verify(self, keyed, rng, variant):
        _, pk, sk, _ = keyed
        sig = pks.sign(variant, MSG, sk, pk, rng)
        assert pks.verify(variant, sig, MSG, pk, rng)

    def test_sf_signature_passes_normal_verification(self, keyed, rng, variant):
        suite, pk, sk, td = keyed
        tags = random_tags(suite, rng)
        sig = ds.sign_sf(variant, MSG, sk, pk, td, tags, rng)
        assert pks.verify(variant, sig, MSG, pk, rng)

    def test_normal_signature_passes_sf_verification(self, keyed, rng, variant):
        suite, pk, sk, td = keyed
        tags = random_tags(suite, rng)
        sig = pks.sign(variant, MSG, sk, pk, rng)
        assert ds.verify_sf(variant, sig, MSG, pk, td, tags, rng)

    def test_sf_sf_matching_tags_accepts(self, keyed, rng, variant):
        suite, pk, sk, td = keyed
        z = rng.randrange(suite.order)
        sig = ds.sign_sf(variant, MSG, sk, pk, td, ds.SFTags(s_k=3, z_k=z), rng)
        assert ds.verify_sf(variant, sig, MSG, pk, td,
                            ds.SFTags(s_c=5, z_c=z), rng)

    def test_sf_sf_mismatched_tags_rejects(self, keyed, rng, variant):
        suite, pk, sk, td = keyed
        for _ in range(20):
            tags = random_tags(suite, rng)
            if tags.z_k == tags.z_c:
                continue
            sig = ds.sign_sf(variant, MSG, sk, pk, td, tags, rng)
            assert not ds.verify_sf(variant, sig, MSG, pk, td, tags, rng)

    def test_sf_component_is_zero_exponent_in_mask_span(self, keyed, rng, variant):
        # s_k = 0 collapses the mask: the signature must equal a normal one
        suite, pk, sk, td = keyed
        m = pks.message_scalar(suite, variant, MSG)
        sig_sf = ds.sign_sf_scalar(variant, m, sk, pk, td,
                                   ds.SFTags(s_k=0, z_k=77), random.Random(9))
        sig_n = pks.sign_scalar(variant, m, sk, pk, random.Random(9))
        assert sig_sf.elements() == sig_n.elements()


class TestResidual:
    def _measure(self, suite, pk, sig, m, td, tags, variant, t):
        """Independently re-derive the masked verifier rows and return the
        exponent of lhs / Omega^t in the mock group."""
        p = suite.order
        fhat = suite.g_hat ** td.y_f
        e = td.exponents
        v1, v2 = pks.verification_components(variant, pk, m, t, 0, 0)
        s_c, sczc = tags.s_c, tags.s_c * tags.z_c % p
        if variant == "pks1":
            fneg = fhat ** (-e.phi3 % p)
            v1 = (v1[0], v1[1], v1[2] * fhat ** s_c, v1[3] * fneg ** s_c)
            v2 = (v2[0], v2[1], v2[2] * fhat ** sczc, v2[3] * fneg ** sczc)
        else:
            fneg = fhat ** (-e.phi2 % p)
            v1 = (v1[0], v1[1] * fhat ** s_c, v1[2] * fneg ** s_c)
            v2 = (v2[0], v2[1] * fhat ** sczc, v2[2] * fneg ** sczc)
        lhs = pairing_product(zip(sig.row1, v1), zip(sig.row2, v2))
        return (lhs / pk.omega ** t).h

    def test_residual_exponent_formula(self, keyed, rng, variant):
        suite, pk, sk, td = keyed
        p = suite.order
        m = pks.message_scalar(suite, variant, MSG)
        for _ in range(10):
            tags = random_tags(suite, rng)
            t = rng.randrange(1, p)
            sig = ds.sign_sf_scalar(variant, m, sk, pk, td, tags, rng)
            got = self._measure(suite, pk, sig, m, td, tags, variant, t)
            want = td.y_f * td.y_f * tags.s_k * tags.s_c * (tags.z_k - tags.z_c) % p
            assert got == want

    def test_residual_vanishes_iff_tags_match(self, keyed, rng, variant):
        suite, pk, sk, td = keyed
        m = pks.message_scalar(suite, variant, MSG)
        tags = ds.SFTags(s_k=4, z_k=100, s_c=6, z_c=100)
        sig = ds.sign_sf_scalar(variant, m, sk, pk, td, tags, rng)
        assert self._measure(suite, pk, sig, m, td, tags, variant, 3) == 0


class TestGuards:
    def test_trapdoor_checked_against_key(self, mock_suite, rng):
        pk, sk, td = ds.keygen_with_trapdoor(mock_suite, "pks2", rng)
        pk2, _, _ = ds.keygen_with_trapdoor(mock_suite, "pks2", rng)
        with pytest.raises(KeyMismatchError):
            ds.sign_sf("pks2", MSG, sk, pk2, td, ds.SFTags(), rng)

    def test_lw_has_no_oracles(self, mock_suite, rng):
        with pytest.raises(ValueError):
            ds.keygen_with_trapdoor(mock_suite, "lw", rng)

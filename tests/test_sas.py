"""Sequential aggregates: growth, constant size, stripping, re-signing."""

import dataclasses

import pytest

from seqsig import ms, pks, sas
from seqsig.errors import (
    DuplicateSignerError,
    InvalidAggregateError,
    KeyMismatchError,
    MalformedEncodingError,
    MissingWitnessError,
)

MSGS = [b"alpha", b"bravo", b"charlie", b"delta", b"echo"]


def build_chain(params, rng, messages, verify_prev=True):
    keys = []
    agg = sas.empty_aggregate(params)
    for msg in messages:
        pub, priv = sas.keygen(params, rng)
        keys.append((pub, priv))
        agg = sas.agg_sign(params, agg, msg, pub, priv, rng, verify_prev=verify_prev)
    return agg, keys


@pytest.mark.parametrize("variant", sas.VARIANTS)
class TestAggregation:
    def test_empty_aggregate_verifies(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        assert sas.agg_verify(params, sas.empty_aggregate(params), rng)

    def test_empty_aggregate_with_coins(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        empty = sas.empty_aggregate(params)
        assert sas.agg_verify_with_coins(params, empty, 5)
        bad = sas.AggregateSignature(variant, (mock_suite.g,) + empty.row1[1:],
                                     empty.row2, (), ())
        assert not sas.agg_verify(params, bad, rng)
        assert not sas.agg_verify_with_coins(params, bad, 5)

    def test_chain_grows_and_verifies(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, _ = build_chain(params, rng, MSGS)
        assert agg.length == 5
        assert sas.agg_verify(params, agg, rng)

    def test_width_is_constant_in_l(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        width = pks.ROW_WIDTH[variant]
        agg = sas.empty_aggregate(params)
        for i, msg in enumerate(MSGS):
            assert len(agg.row1) == len(agg.row2) == width
            pub, priv = sas.keygen(params, rng)
            agg = sas.agg_sign(params, agg, msg, pub, priv, rng)
        assert len(agg.row1) == len(agg.row2) == width

    def test_tampered_aggregate_rejected(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, _ = build_chain(params, rng, MSGS[:3])
        bad = sas.AggregateSignature(
            variant, (agg.row1[0] * mock_suite.g,) + agg.row1[1:],
            agg.row2, agg.messages, agg.signers,
        )
        assert not sas.agg_verify(params, bad, rng)

    def test_swapped_message_rejected(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, _ = build_chain(params, rng, MSGS[:3])
        msgs = (agg.messages[1], agg.messages[0]) + agg.messages[2:]
        swapped = sas.AggregateSignature(variant, agg.row1, agg.row2, msgs, agg.signers)
        assert not sas.agg_verify(params, swapped, rng)

    def test_duplicate_signer_refused_at_signing(self, mock_suite, rng, variant):
        """An appender the aggregate so far already holds, and a new appender
        to an aggregate so far that repeats a signer, are refused before any
        coin or pairing, with and without the check of the aggregate so far."""
        params = sas.setup(mock_suite, variant, rng)
        pub, priv = sas.keygen(params, rng)
        other = sas.keygen(params, rng)
        agg = sas.agg_sign(params, sas.empty_aggregate(params), MSGS[0], pub, priv, rng)
        # the randomness-level builder has no duplicate check
        repeats = sas.agg_sign_with_randomness(params, agg, 4, pub, priv, 5, 6, 7)
        for prev, signer in ((agg, (pub, priv)), (repeats, other)):
            for verify_prev in (True, False):
                state, pairings = rng.getstate(), mock_suite.pairing_count
                with pytest.raises(DuplicateSignerError):
                    sas.agg_sign(params, prev, MSGS[1], *signer, rng, verify_prev=verify_prev)
                assert rng.getstate() == state and mock_suite.pairing_count == pairings

    def test_strip_index_and_removed_signer_must_be_in_the_aggregate(
            self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:2])
        witnesses = {priv.pk_id: priv for _, priv in keys}
        for index in (-1, agg.length):
            with pytest.raises(IndexError):
                sas.strip_to_single(params, agg, index, witnesses)
        pub, priv = sas.keygen(params, rng)
        with pytest.raises(MissingWitnessError, match="not present"):
            sas.remove_signer(params, agg, pub, priv, 3)

    def test_invalid_previous_aggregate_halts(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, _ = build_chain(params, rng, MSGS[:2])
        bad = sas.AggregateSignature(
            variant, (agg.row1[0] * mock_suite.g,) + agg.row1[1:],
            agg.row2, agg.messages, agg.signers,
        )
        pub, priv = sas.keygen(params, rng)
        with pytest.raises(InvalidAggregateError):
            sas.agg_sign(params, bad, MSGS[2], pub, priv, rng)

    def test_certification_predicate_enforced(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:2])
        certified_ids = {keys[0][1].pk_id}
        predicate = lambda pub: pks.key_id(pub) in certified_ids
        assert not sas.agg_verify(params, agg, rng, certified=predicate)
        certified_ids.add(keys[1][1].pk_id)
        assert sas.agg_verify(params, agg, rng, certified=predicate)

    @pytest.mark.parametrize("verify_prev", [True, False])
    def test_uncertified_prefix_refused_at_signing(self, mock_suite, rng, variant, verify_prev):
        """An aggregate whose first signer the predicate refuses is not
        extended, whether or not the aggregate so far is verified: the
        refusal comes before any coin or pairing."""
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:2])
        pub, priv = sas.keygen(params, rng)
        certified_ids = {keys[1][1].pk_id, priv.pk_id}
        predicate = lambda key: pks.key_id(key) in certified_ids
        state, pairings = rng.getstate(), mock_suite.pairing_count
        with pytest.raises(InvalidAggregateError):
            sas.agg_sign(params, agg, MSGS[2], pub, priv, rng, certified=predicate,
                         verify_prev=verify_prev)
        assert rng.getstate() == state and mock_suite.pairing_count == pairings
        certified_ids.add(keys[0][1].pk_id)
        longer = sas.agg_sign(params, agg, MSGS[2], pub, priv, rng, certified=predicate,
                              verify_prev=verify_prev)
        assert sas.agg_verify(params, longer, rng, certified=predicate)

    def test_pairing_cost_flat_in_l(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        expected = 2 * pks.ROW_WIDTH[variant]
        costs = []
        for l in (1, 3, 5):
            agg, _ = build_chain(params, rng, MSGS[:l])
            before = mock_suite.pairing_count
            assert sas.agg_verify(params, agg, rng)
            costs.append(mock_suite.pairing_count - before)
        assert costs == [expected] * 3

    def test_real_backend_round_trip(self, real_suite, rng, variant):
        params = sas.setup(real_suite, variant, rng)
        agg, _ = build_chain(params, rng, MSGS[:2], verify_prev=False)
        assert sas.agg_verify(params, agg, rng)

    def test_strip_to_single(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:4])
        witnesses = {priv.pk_id: priv for _, priv in keys}
        target = 2
        single = sas.strip_to_single(params, agg, target, witnesses)
        view = sas.pks_view(params, keys[target][0])
        pvariant = "pks1" if variant == "sas1" else "pks2"
        m = sas.chained_message_scalar(mock_suite, variant, [MSGS[target]])
        assert pks.verify_scalar(pvariant, single, m, view, rng)
        wrong = sas.chained_message_scalar(mock_suite, variant, [MSGS[0]])
        assert not pks.verify_scalar(pvariant, single, wrong, view, rng)

    def test_strip_needs_all_witnesses(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:3])
        witnesses = {keys[1][1].pk_id: keys[1][1]}
        with pytest.raises(MissingWitnessError):
            sas.strip_to_single(params, agg, 0, witnesses)

    def test_strip_refuses_a_witness_of_another_key(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:3])
        (_, a), (_, b) = keys[1:]
        _, ms_sk = ms.ms_keygen(ms.ms_setup(mock_suite, rng), rng)
        for witnesses in ({a.pk_id: b, b.pk_id: a}, {a.pk_id: a, b.pk_id: ms_sk}):
            before = dict(mock_suite.counts)
            with pytest.raises(KeyMismatchError):
                sas.strip_to_single(params, agg, 0, witnesses)
            assert dict(mock_suite.counts) == before

    def test_resign_extends_own_chain(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:3])
        pub, priv = keys[1]
        updated = sas.agg_resign(params, agg, [MSGS[1]], b"amendment", pub, priv, rng)
        assert sas.agg_verify(params, updated, rng)
        assert updated.length == 3
        # the signer's slot now carries the extended chain's scalar
        m_new = sas.chained_message_scalar(mock_suite, variant, [MSGS[1], b"amendment"])
        assert m_new in updated.messages

    def test_resign_with_wrong_old_chain_fails_verification(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:3])
        pub, priv = keys[1]
        broken = sas.agg_resign(params, agg, [b"not what was signed"], b"amendment",
                                pub, priv, rng)
        assert not sas.agg_verify(params, broken, rng)

    def test_foreign_private_key_refused(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        pub, _ = sas.keygen(params, rng)
        _, other_priv = sas.keygen(params, rng)
        with pytest.raises(KeyMismatchError):
            sas.agg_sign(params, sas.empty_aggregate(params), b"m", pub, other_priv, rng)

    def test_private_key_without_id_is_refused_before_any_coin(self, mock_suite, rng, variant):
        """A hand-built key appended under another signer's key is refused
        before the aggregate so far is verified, so no coin is drawn."""
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:1])
        pub, _ = sas.keygen(params, rng)
        _, priv = keys[0]
        bare = pks.PrivateKey(variant, priv.alpha, priv.x, priv.y, priv.c_u, priv.c_h)
        state = rng.getstate()
        with pytest.raises(KeyMismatchError):
            sas.agg_sign(params, agg, b"m", pub, bare, rng)
        assert rng.getstate() == state

    def test_resign_under_another_signers_key_is_refused(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:2])
        outsider, _ = sas.keygen(params, rng)
        with pytest.raises(KeyMismatchError):
            sas.agg_resign(params, agg, [MSGS[0]], b"amendment", outsider, keys[0][1], rng)

    def test_remove_under_another_signers_key_is_refused(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg, keys = build_chain(params, rng, MSGS[:2])
        m_old = sas.chained_message_scalar(mock_suite, variant, [MSGS[0]])
        with pytest.raises(KeyMismatchError):
            sas.remove_signer(params, agg, keys[1][0], keys[0][1], m_old)

    def test_variant_mismatch_is_malformed(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        other = "sas2" if variant == "sas1" else "sas1"
        other_params = sas.setup(mock_suite, other, rng)
        agg = sas.empty_aggregate(other_params)
        with pytest.raises(MalformedEncodingError):
            sas.agg_verify(params, agg, rng)


class TestCoinLevelChecks:
    """``agg_verify_with_coins`` refuses what ``agg_verify`` refuses before any
    pairing, and ``agg_sign`` without the verify refuses it before any coin."""

    MALFORMED = {
        "relabelled": lambda agg: dataclasses.replace(agg, variant="sas1"),
        "cut-short": lambda agg: dataclasses.replace(agg, row1=agg.row1[:2], row2=agg.row2[:2]),
        "message-dropped": lambda agg: dataclasses.replace(agg, messages=agg.messages[:-1]),
        "ms-signer": lambda agg: dataclasses.replace(agg, signers=agg.signers[:-1] + (
            pks.PublicKey(suite=agg.signers[-1].suite, variant="ms",
                          omega=agg.signers[-1].omega),)),
    }

    @pytest.fixture
    def chain(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas2", rng)
        agg, _ = build_chain(params, rng, MSGS[:3])
        assert sas.agg_verify_with_coins(params, agg, 5)
        return params, agg

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_raises(self, chain, rng, case):
        params, agg = chain
        bad = self.MALFORMED[case](agg)
        pub, priv = sas.keygen(params, rng)
        state, pairings = rng.getstate(), params.suite.pairing_count
        with pytest.raises(MalformedEncodingError):
            sas.agg_verify(params, bad, rng)
        with pytest.raises(MalformedEncodingError):
            sas.agg_verify_with_coins(params, bad, 5)
        with pytest.raises(MalformedEncodingError):
            sas.agg_sign(params, bad, b"m", pub, priv, rng, verify_prev=False)
        assert rng.getstate() == state and params.suite.pairing_count == pairings

    @pytest.mark.parametrize("scheme", ["sas1", "ms"])
    @pytest.mark.parametrize("verify_prev", [True, False])
    def test_appending_key_of_another_scheme_raises(self, chain, rng, scheme, verify_prev):
        params, agg = chain
        if scheme == "ms":
            pub, priv = ms.ms_keygen(ms.ms_setup(params.suite, rng), rng)
        else:
            pub, priv = sas.keygen(sas.setup(params.suite, scheme, rng), rng)
        state, pairings = rng.getstate(), params.suite.pairing_count
        with pytest.raises(MalformedEncodingError):
            sas.agg_sign(params, agg, b"m", pub, priv, rng, verify_prev=verify_prev)
        assert rng.getstate() == state and params.suite.pairing_count == pairings

    def test_duplicate_signer_rejected(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas2", rng)
        pub, priv = sas.keygen(params, rng)
        dup = sas.empty_aggregate(params)
        for m in (3, 4):  # the randomness-level builder has no duplicate check
            dup = sas.agg_sign_with_randomness(params, dup, m, pub, priv, 5, 6, 7)
        assert sas._pairing_check(params, dup, 5)  # the pairing equation alone holds
        assert not sas.agg_verify(params, dup, rng)
        assert not sas.agg_verify_with_coins(params, dup, 5)


class TestParamsOfAnotherScheme:
    """Every public sas function that takes parameters refuses ms parameters
    with ``ValueError`` before any coin or pairing, also on an ms-shaped
    aggregate and an ms key, and ``pks_view`` refuses a key of another
    scheme than its parameters'."""

    CALLS = {
        "empty_aggregate": lambda p, empty, agg, pk, sk, rng: sas.empty_aggregate(p),
        "agg_sign": lambda p, empty, agg, pk, sk, rng: sas.agg_sign(
            p, empty, b"m", pk, sk, rng),
        "agg_sign-no-verify": lambda p, empty, agg, pk, sk, rng: sas.agg_sign(
            p, empty, b"m", pk, sk, rng, verify_prev=False),
        "agg_sign_with_randomness": lambda p, empty, agg, pk, sk, rng:
            sas.agg_sign_with_randomness(p, empty, 3, pk, sk, 5, 6, 7),
        "agg_verify": lambda p, empty, agg, pk, sk, rng: sas.agg_verify(p, agg, rng),
        "agg_verify_with_coins": lambda p, empty, agg, pk, sk, rng:
            sas.agg_verify_with_coins(p, agg, 5),
        "strip_to_single": lambda p, empty, agg, pk, sk, rng: sas.strip_to_single(p, agg, 0, {}),
        "remove_signer": lambda p, empty, agg, pk, sk, rng: sas.remove_signer(p, agg, pk, sk, 3),
        "agg_resign": lambda p, empty, agg, pk, sk, rng: sas.agg_resign(
            p, agg, [b"m"], b"n", pk, sk, rng),
        "pks_view": lambda p, empty, agg, pk, sk, rng: sas.pks_view(p, pk),
    }

    @pytest.mark.parametrize("case", sorted(CALLS))
    def test_ms_params_raise_before_any_coin(self, mock_suite, rng, case):
        params = ms.ms_setup(mock_suite, rng)
        pk, sk = ms.ms_keygen(params, rng)
        share = ms.ms_sign(params, b"m", sk, rng)
        one = mock_suite.identity("g1")
        empty = pks.Signature("ms", (one,) * 3, (one,) * 3)
        agg = pks.Signature("ms", share.row1, share.row2, (3,), (pk,))
        state, pairings = rng.getstate(), mock_suite.pairing_count
        with pytest.raises(ValueError):
            self.CALLS[case](params, empty, agg, pk, sk, rng)
        assert rng.getstate() == state and mock_suite.pairing_count == pairings

    @pytest.mark.parametrize("scheme", ["sas1", "ms"])
    def test_pks_view_refuses_a_key_of_another_scheme(self, mock_suite, rng, scheme):
        params = sas.setup(mock_suite, "sas2", rng)
        if scheme == "ms":
            pub, _ = ms.ms_keygen(ms.ms_setup(mock_suite, rng), rng)
        else:
            pub, _ = sas.keygen(sas.setup(mock_suite, scheme, rng), rng)
        with pytest.raises(MalformedEncodingError):
            sas.pks_view(params, pub)


@pytest.mark.parametrize("variant", sas.VARIANTS)
def test_coin_t_is_checked_on_the_empty_aggregate(mock_suite, rng, variant):
    """agg_verify_with_coins raises for t = 0 mod the order at l = 0 as at
    l >= 1, and agg_verify on the empty aggregate still draws no coin."""
    params = sas.setup(mock_suite, variant, rng)
    empty = sas.empty_aggregate(params)
    for t in (0, mock_suite.order):
        with pytest.raises(ValueError):
            sas.agg_verify_with_coins(params, empty, t)
    state = rng.getstate()
    assert sas.agg_verify(params, empty, rng)
    assert rng.getstate() == state


def test_setup_refuses_an_unknown_variant(mock_suite, rng):
    with pytest.raises(ValueError, match="unknown variant"):
        sas.setup(mock_suite, "sas3", rng)


class TestSizes:
    def test_signer_public_key_element_counts(self, mock_suite, rng):
        p1 = sas.setup(mock_suite, "sas1", rng)
        pub1, _ = sas.keygen(p1, rng)
        assert len(pub1.elements()) == 11
        p2 = sas.setup(mock_suite, "sas2", rng)
        pub2, _ = sas.keygen(p2, rng)
        assert len(pub2.elements()) == 13

    def test_aggregate_element_counts(self, mock_suite, rng):
        p1 = sas.setup(mock_suite, "sas1", rng)
        assert len(sas.empty_aggregate(p1).elements()) == 8
        p2 = sas.setup(mock_suite, "sas2", rng)
        assert len(sas.empty_aggregate(p2).elements()) == 6

    def test_second_sas1_keygen_pairs_nothing(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas1", rng)
        sas.keygen(params, rng)
        before = mock_suite.pairing_count
        sas.keygen(params, rng)
        assert mock_suite.pairing_count == before

    def test_sas2_key_requires_witnesses(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas2", rng)
        with pytest.raises(MissingWitnessError):
            params.signer(1, 2, 3)

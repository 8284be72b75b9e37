"""Multi-signatures: combining, commutativity, duplicates, flat cost."""

import random

import pytest

from seqsig import keyreg, ms, pks, sas
from seqsig.errors import (CrossSuiteError, InvalidAggregateError, MalformedEncodingError,
                           RegistrationError)

MSG = b"joint statement"


@pytest.fixture
def setup3(mock_suite, rng):
    params = ms.ms_setup(mock_suite, rng)
    keys = [ms.ms_keygen(params, rng) for _ in range(3)]
    return params, keys


class TestIndividual:
    def test_sign_verify(self, setup3, rng):
        params, keys = setup3
        pk, sk = keys[0]
        sig = ms.ms_sign(params, MSG, sk, rng)
        assert ms.ms_verify(sig, MSG, pk, params, rng)
        assert not ms.ms_verify(sig, b"other", pk, params, rng)

    def test_wrong_key_rejected(self, setup3, rng):
        params, keys = setup3
        sig = ms.ms_sign(params, MSG, keys[0][1], rng)
        assert not ms.ms_verify(sig, MSG, keys[1][0], params, rng)

    def test_real_backend_round_trip(self, real_suite, rng):
        params = ms.ms_setup(real_suite, rng)
        pk, sk = ms.ms_keygen(params, rng)
        sig = ms.ms_sign(params, MSG, sk, rng)
        assert ms.ms_verify(sig, MSG, pk, params, rng)

    def test_param_element_count(self, setup3):
        params, _ = setup3
        assert len(params.elements()) == 22  # 12 G1 + 9 G2 + 1 GT

    def test_public_key_is_single_element(self, setup3):
        _, keys = setup3
        assert len(keys[0][0].elements()) == 1


class TestCombining:
    def test_combined_signature_verifies(self, setup3, rng):
        params, keys = setup3
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        msig = ms.ms_combine(sigs, MSG, [pk for pk, _ in keys], params, rng)
        assert ms.ms_mult_verify(msig, MSG, [pk for pk, _ in keys], params, rng)

    def test_combination_is_commutative(self, setup3, rng):
        params, keys = setup3
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        pks_ = [pk for pk, _ in keys]
        a = ms.ms_combine(sigs, MSG, pks_, params, rng)
        order = [2, 0, 1]
        b = ms.ms_combine([sigs[i] for i in order], MSG, [pks_[i] for i in order],
                          params, rng)
        assert a.elements() == b.elements()

    def test_incremental_combining(self, setup3, rng):
        # combine(combine(s1, s2), s3) verifies against all three keys
        params, keys = setup3
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        pks_ = [pk for pk, _ in keys]
        partial = ms.ms_combine(sigs[:2], MSG, pks_[:2], params, rng)
        full = ms.MsSignature(
            tuple(a * b for a, b in zip(partial.row1, sigs[2].row1)),
            tuple(a * b for a, b in zip(partial.row2, sigs[2].row2)),
        )
        assert ms.ms_mult_verify(full, MSG, pks_, params, rng)

    def test_duplicate_keys_permitted(self, setup3, rng):
        params, keys = setup3
        pk, sk = keys[0]
        s1 = ms.ms_sign(params, MSG, sk, rng)
        s2 = ms.ms_sign(params, MSG, sk, rng)
        msig = ms.ms_combine([s1, s2], MSG, [pk, pk], params, rng)
        assert ms.ms_mult_verify(msig, MSG, [pk, pk], params, rng)
        # ... but the key list must match the multiplicity
        assert not ms.ms_mult_verify(msig, MSG, [pk], params, rng)

    def test_invalid_input_halts_combining(self, setup3, rng):
        params, keys = setup3
        good = ms.ms_sign(params, MSG, keys[0][1], rng)
        bad = ms.ms_sign(params, b"other", keys[1][1], rng)
        with pytest.raises(InvalidAggregateError):
            ms.ms_combine([good, bad], MSG, [keys[0][0], keys[1][0]], params, rng)

    @pytest.mark.parametrize("suite", ["mock", "real"])
    @pytest.mark.parametrize("bad", [None, 0, 1, 2, 3])
    def test_share_checks_match_a_loop_of_ms_verify(self, request, rng, suite, bad):
        """Four shares, all valid or one signed on another message: the
        combine draws the coins, names the share and leaves the rng where a
        loop of ms_verify over the shares does."""
        params = ms.ms_setup(request.getfixturevalue(f"{suite}_suite"), rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(4)]
        sigs = [ms.ms_sign(params, b"other" if i == bad else MSG, sk, rng)
                for i, (_, sk) in enumerate(keys)]
        pks_ = [pk for pk, _ in keys]
        loop = random.Random()
        loop.setstate(rng.getstate())
        first_bad = next((i for i, (sig, pk) in enumerate(zip(sigs, pks_))
                          if not ms.ms_verify(sig, MSG, pk, params, loop)), None)
        assert first_bad == bad
        if bad is None:
            msig = ms.ms_combine(sigs, MSG, pks_, params, rng)
            assert ms.ms_mult_verify(msig, MSG, pks_, params, random.Random(1))
        else:
            with pytest.raises(InvalidAggregateError, match=f"input signature {bad} is invalid"):
                ms.ms_combine(sigs, MSG, pks_, params, rng)
        assert rng.getstate() == loop.getstate()

    @pytest.mark.parametrize("n", [1, 4])
    def test_share_checks_build_the_rows_once(self, mock_suite, rng, n):
        """The n share checks of a combine make 3 G2 MSM terms, one per slot
        of V2', where a loop of ms_verify makes 3n; each share still costs
        its own 6 pairings."""
        params = ms.ms_setup(mock_suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(n)]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        pks_ = [pk for pk, _ in keys]
        for call, terms in ((lambda: ms.ms_combine(sigs, MSG, pks_, params, rng), 3),
                            (lambda: [ms.ms_verify(sig, MSG, pk, params, rng)
                                      for sig, pk in zip(sigs, pks_)], 3 * n)):
            before = mock_suite.counts.copy()
            call()
            grown = mock_suite.counts - before
            assert (grown["msm.g2"], grown["pairings"]) == (terms, 6 * n)

    def test_unequal_lists_halt_combining(self, setup3, rng):
        params, keys = setup3
        sig = ms.ms_sign(params, MSG, keys[0][1], rng)
        state = rng.getstate()
        with pytest.raises(ValueError, match="must align"):
            ms.ms_combine([sig], MSG, [keys[0][0], keys[1][0]], params, rng)
        assert rng.getstate() == state

    def test_cross_suite_key_rejected(self, setup3, rng):
        from seqsig.groups import suite_generate
        params, keys = setup3
        other = ms.ms_setup(suite_generate("mock", 10007), rng)
        other_pk, other_sk = ms.ms_keygen(other, rng)
        sig = ms.ms_sign(params, MSG, keys[0][1], rng)
        other_sig = ms.ms_sign(other, MSG, other_sk, rng)
        with pytest.raises(CrossSuiteError):
            ms.ms_combine([sig, other_sig], MSG, [keys[0][0], other_pk], params, rng)

    def test_verification_cost_flat_in_signers(self, setup3, rng, mock_suite):
        params, keys = setup3
        pks_ = [pk for pk, _ in keys]
        costs = []
        for n in (1, 2, 3):
            sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys[:n]]
            msig = ms.ms_combine(sigs, MSG, pks_[:n], params, rng,
                                 skip_individual_checks=True)
            before = mock_suite.pairing_count
            assert ms.ms_mult_verify(msig, MSG, pks_[:n], params, rng)
            costs.append(mock_suite.pairing_count - before)
        assert costs == [6, 6, 6]

    def test_width_guard(self, setup3, rng):
        params, keys = setup3
        sig = ms.ms_sign(params, MSG, keys[0][1], rng)
        bad = ms.MsSignature(sig.row1[:2], sig.row2)
        with pytest.raises(MalformedEncodingError):
            ms.ms_verify(bad, MSG, keys[0][0], params, rng)

    def test_malformed_input_is_refused_before_the_coin(self, setup3, rng, mock_suite):
        """A 2-wide record, an empty key list or a key of another scheme is
        refused before the verifier's coin; a 2-wide share or a share under a
        key of another scheme before any coin or pairing of the combine, even
        with skip_individual_checks; a sas2 or pks2 private key before the
        signer's coin. The other scheme's key is a sas2 key with the first
        signer's alpha, so its Omega is the ms key's, and the registry
        certifies it as a sas2 key."""
        params, keys = setup3
        pks_ = [pk for pk, _ in keys[:2]]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys[:2]]
        narrow = ms.MsSignature(sigs[1].row1[:2], sigs[1].row2[:2])
        sas2_params = sas.setup(mock_suite, "sas2", rng)
        sas2_pk, sas2_sk = sas2_params.signer(keys[0][1].alpha, 1, 2, 3, 4)
        assert sas2_pk.omega == pks_[0].omega
        registry = keyreg.CertRegistry(mock_suite)
        registry.register(sas2_params, sas2_pk, sas2_sk)
        certified = registry.predicate()
        _, pks2_sk = pks.keygen(mock_suite, "pks2", rng)
        calls = [
            (MalformedEncodingError, lambda: ms.ms_verify(narrow, MSG, pks_[1], params, rng)),
            (ValueError, lambda: ms.ms_mult_verify(sigs[0], MSG, [], params, rng)),
            *((MalformedEncodingError, lambda skip=skip: ms.ms_combine(
                [sigs[0], narrow], MSG, pks_, params, rng, skip_individual_checks=skip))
              for skip in (True, False)),
            *((MalformedEncodingError, lambda pred=pred: ms.ms_verify(
                sigs[0], MSG, sas2_pk, params, rng, certified=pred)) for pred in (None, certified)),
            (MalformedEncodingError, lambda: ms.ms_mult_verify(
                sigs[0], MSG, [sas2_pk, pks_[1]], params, rng)),
            *((MalformedEncodingError, lambda skip=skip: ms.ms_combine(
                sigs, MSG, [sas2_pk, pks_[1]], params, rng, skip_individual_checks=skip))
              for skip in (True, False)),
            *((ValueError, lambda sk=sk: ms.ms_sign(params, MSG, sk, rng))
              for sk in (sas2_sk, pks2_sk)),
        ]
        for error, call in calls:
            state, pairings = rng.getstate(), mock_suite.pairing_count
            with pytest.raises(error):
                call()
            assert rng.getstate() == state and mock_suite.pairing_count == pairings

    def test_empty_inputs_rejected(self, setup3, rng):
        params, keys = setup3
        with pytest.raises(ValueError):
            ms.ms_combine([], MSG, [], params, rng)
        sig = ms.ms_sign(params, MSG, keys[0][1], rng)
        with pytest.raises(ValueError):
            ms.ms_mult_verify(sig, MSG, [], params, rng)


@pytest.mark.parametrize("scheme", ["sas1", "sas2", "ms"])
def test_keygen_refuses_params_of_another_scheme(mock_suite, rng, scheme):
    """sas.keygen on ms parameters and ms.ms_keygen on sas parameters raise
    ValueError before any draw."""
    if scheme == "ms":
        params, keygen = ms.ms_setup(mock_suite, rng), sas.keygen
    else:
        params, keygen = sas.setup(mock_suite, scheme, rng), ms.ms_keygen
    state = rng.getstate()
    with pytest.raises(ValueError):
        keygen(params, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("scheme", ["sas1", "sas2"])
def test_sign_refuses_params_of_another_scheme(mock_suite, rng, scheme):
    """ms.ms_sign with an ms private key on sas parameters raises ValueError
    before any coin or pairing."""
    _, sk = ms.ms_keygen(ms.ms_setup(mock_suite, rng), rng)
    params = sas.setup(mock_suite, scheme, rng)
    state, pairings = rng.getstate(), mock_suite.pairing_count
    with pytest.raises(ValueError):
        ms.ms_sign(params, MSG, sk, rng)
    assert rng.getstate() == state and mock_suite.pairing_count == pairings


class TestCertification:
    @pytest.fixture
    def rogue(self, setup3, rng):
        """A rogue key Omega_R = Omega_A / Omega_V: with the victim's key it
        multiplies to the attacker's, so the attacker's lone signature passes
        as a multi-signature of victim and rogue key. The registry certifies
        the victim and the attacker."""
        params, keys = setup3
        (victim, _), (attacker, attacker_sk) = keys[:2]
        rogue = pks.PublicKey(suite=params.suite, variant="ms", omega=attacker.omega / victim.omega)
        registry = keyreg.CertRegistry(params.suite)
        for pk, sk in keys[:2]:
            registry.register(params, pk, keyreg.witness_from_private("ms", sk))
        forgery = ms.ms_sign(params, MSG, attacker_sk, rng)
        return params, keys, forgery, [victim, rogue], registry

    def test_rogue_key_forgery_is_refused_before_any_pairing(self, rogue, rng, mock_suite):
        params, _, forgery, signers, registry = rogue
        assert ms.ms_mult_verify(forgery, MSG, signers, params, rng)
        certified = registry.predicate()
        before, state = mock_suite.pairing_count, rng.getstate()
        assert not ms.ms_mult_verify(forgery, MSG, signers, params, rng, certified=certified)
        assert not ms.ms_verify(forgery, MSG, signers[1], params, rng, certified=certified)
        with pytest.raises(InvalidAggregateError):
            ms.ms_combine([forgery, forgery], MSG, signers, params, rng,
                          skip_individual_checks=True, certified=certified)
        assert mock_suite.pairing_count == before and rng.getstate() == state

    def test_certified_signers_still_verify(self, rogue, rng):
        params, keys, _, _, registry = rogue
        certified = registry.predicate()
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys[:2]]
        pks_ = [pk for pk, _ in keys[:2]]
        msig = ms.ms_combine(sigs, MSG, pks_, params, rng, certified=certified)
        assert ms.ms_mult_verify(msig, MSG, pks_, params, rng, certified=certified)
        assert ms.ms_verify(sigs[0], MSG, pks_[0], params, rng, certified=certified)

    def test_rogue_key_cannot_register(self, rogue):
        """No one knows the rogue key's secret; the attacker's does not
        reproduce it."""
        params, keys, _, (_, rogue_pk), registry = rogue
        with pytest.raises(RegistrationError):
            registry.register(params, rogue_pk, keyreg.witness_from_private("ms", keys[1][1]))
        assert not registry.is_certified(rogue_pk)

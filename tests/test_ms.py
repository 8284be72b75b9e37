"""Multi-signatures: combining, commutativity, duplicates, flat cost."""

import copy
import dataclasses
import random

import pytest

from seqsig import bn254, keyreg, ms, pks, sas
from seqsig.errors import (CrossSuiteError, InvalidAggregateError, MalformedEncodingError,
                           RegistrationError)
from seqsig.groups import G2Elem, GTElem

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
        combine names the share and leaves the rng where a loop of ms_verify
        over every share does, since it draws one coin per share whatever
        the verdict."""
        params = ms.ms_setup(request.getfixturevalue(f"{suite}_suite"), rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(4)]
        sigs = [ms.ms_sign(params, b"other" if i == bad else MSG, sk, rng)
                for i, (_, sk) in enumerate(keys)]
        pks_ = [pk for pk, _ in keys]
        loop = random.Random()
        loop.setstate(rng.getstate())
        verdicts = [ms.ms_verify(sig, MSG, pk, params, loop) for sig, pk in zip(sigs, pks_)]
        first_bad = next((i for i, ok in enumerate(verdicts) if not ok), None)
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
        of V2', and 6 pairings, where a loop of ms_verify makes 3n and 6n."""
        params = ms.ms_setup(mock_suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(n)]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        pks_ = [pk for pk, _ in keys]
        for call, terms, pairings in (
                (lambda: ms.ms_combine(sigs, MSG, pks_, params, rng), 3, 6),
                (lambda: [ms.ms_verify(sig, MSG, pk, params, rng) for sig, pk in zip(sigs, pks_)],
                 3 * n, 6 * n)):
            before = mock_suite.counts.copy()
            call()
            grown = mock_suite.counts - before
            assert (grown["msm.g2"], grown["pairings"]) == (terms, pairings)

    @pytest.mark.parametrize("suite", ["mock", "real"])
    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_valid_shares_take_one_product(self, request, rng, suite, n, monkeypatch):
        """n valid shares: one backend product of 6 pairings. On mock, the
        folded rows are 6 G1 MSMs of n terms, the right side one GT MSM of n
        terms, and V2' 3 G2 terms. One share is checked on its own, with no
        folds: V2' alone. With skip_individual_checks no coin is drawn and
        nothing is paired."""
        suite = request.getfixturevalue(f"{suite}_suite")
        params = ms.ms_setup(suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(n)]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        pks_ = [pk for pk, _ in keys]
        products = _counted_products(suite, monkeypatch)
        before = suite.counts.copy()
        ms.ms_combine(sigs, MSG, pks_, params, rng)
        grown = suite.counts - before
        assert (len(products), grown["pairings"]) == (1, 6)
        if suite.backend.name == "mock":
            want = [6 * n, n, 3] if n > 1 else [0, 0, 3]
            assert [grown[f"msm.{k}"] for k in ("g1", "gt", "g2")] == want
        state, before = rng.getstate(), suite.counts.copy()
        ms.ms_combine(sigs, MSG, pks_, params, rng, skip_individual_checks=True)
        assert rng.getstate() == state and suite.counts == before and len(products) == 1

    @pytest.mark.parametrize("suite", ["mock", "real"])
    def test_errors_that_cancel_in_a_plain_product_are_named(self, request, rng, suite):
        """Share 0 carries an extra g in row1[0] and share 1 its inverse, so
        the product of the two rows is that of two valid shares; each share
        fails its own check, and the first is named."""
        params = ms.ms_setup(request.getfixturevalue(f"{suite}_suite"), rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(3)]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        g = params.suite.g
        for i, shift in ((0, g), (1, g.suite.identity("g1") / g)):
            sigs[i] = ms.MsSignature((sigs[i].row1[0] * shift,) + sigs[i].row1[1:], sigs[i].row2)
        pks_ = [pk for pk, _ in keys]
        assert [ms.ms_verify(sig, MSG, pk, params, rng) for sig, pk in zip(sigs, pks_)] == [
            False, False, True]
        with pytest.raises(InvalidAggregateError, match="input signature 0 is invalid"):
            ms.ms_combine(sigs, MSG, pks_, params, rng)

    def test_keys_off_gt_are_checked_one_by_one(self, real_suite, rng, monkeypatch):
        """Two keys whose Omegas carry tau and 1/tau, tau cyclotomic and
        outside G_T, with honest shares: under equal coins the two factors
        cancel in a batch, but neither key's Omega has order r, so no batch
        runs, and the loop's verdict and error come out, after its one
        product."""
        from test_bn254 import cyclotomic_outside_gt
        params = ms.ms_setup(real_suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(2)]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        tau = GTElem(real_suite, cyclotomic_outside_gt(5))
        pks_ = [pks.PublicKey(suite=real_suite, variant="ms", omega=pk.omega * factor)
                for (pk, _), factor in zip(keys, (tau, real_suite.identity("gt") / tau))]
        _check_against_the_loop(sigs, pks_, params, _SameCoins(), 0, monkeypatch)

    def test_params_off_g2_are_checked_one_by_one(self, real_suite, rng, monkeypatch):
        """Parameters whose h_hat_row[0] is moved off G2 by a point T of order
        10069, with shares signed under the honest parameters: no batch runs,
        and the loop's verdict and error come out, after its products."""
        from test_bn254 import twist_point_of_order_10069
        params = ms.ms_setup(real_suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(3)]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        h0 = params.h_hat_row[0]
        moved = G2Elem(real_suite, bn254.g2_add(h0.h, twist_point_of_order_10069()))
        off = dataclasses.replace(params, h_hat_row=(moved,) + params.h_hat_row[1:])
        pks_ = [pk for pk, _ in keys]
        _check_against_the_loop(sigs, pks_, off, rng, 0, monkeypatch)

    @pytest.mark.parametrize("backend", ["mock", "real"])
    def test_a_record_is_asked_about_its_elements_once(self, backend, monkeypatch):
        """Over two combines of two shares, the backend is asked about each
        element of the parameters and each key's Omega once: the batch's
        gate reads ``in_subgroups``, kept on each record. Parameters made
        by ``dataclasses.replace`` are a new record, which asks again."""
        from seqsig.groups import suite_generate
        rng = random.Random(7)
        suite = suite_generate(backend, 10007 if backend == "mock" else None)
        params = ms.ms_setup(suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(2)]
        sigs = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
        pks_ = [pk for pk, _ in keys]
        asked, check = [], suite.backend.has_order_r
        monkeypatch.setattr(suite.backend, "has_order_r",
                            lambda kind, h: asked.append((kind, h)) or check(kind, h))
        handles = lambda *records: [(e.kind, e.h) for rec in records for e in rec.elements()]
        for _ in range(2):
            ms.ms_combine(sigs, MSG, pks_, params, rng)
        assert asked == handles(params, *pks_)
        asked.clear()
        ms.ms_combine(sigs, MSG, pks_, dataclasses.replace(params), rng)
        assert asked == handles(params)

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
        refused before the verifier's coin, the last also under a predicate
        that refuses every key, since the record check comes before
        certification; a 2-wide share or a share under a
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
                sigs[0], MSG, sas2_pk, params, rng, certified=pred))
              for pred in (None, certified, lambda pk: False)),
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


class _SameCoins:
    """An rng whose every draw is the same nonzero scalar."""

    def randrange(self, start, stop=None):
        return 123456789


def _counted_products(suite, monkeypatch):
    """A list that grows by one entry per backend pairing product from now on."""
    calls, raw = [], suite.backend.pair_product_raw
    monkeypatch.setattr(suite.backend, "pair_product_raw",
                        lambda pairs: calls.append(1) or raw(pairs))
    return calls


def _check_against_the_loop(sigs, pks_, params, rng, bad, monkeypatch):
    """ms_combine raises for share ``bad``, as the first failure of a loop
    of ms_verify over every share on the same coins, with as many backend
    products as that loop makes up to it, and leaves the rng where the loop
    does."""
    loop = copy.deepcopy(rng)
    products = _counted_products(params.suite, monkeypatch)
    verdicts = [ms.ms_verify(sig, MSG, pk, params, loop) for sig, pk in zip(sigs, pks_)]
    assert verdicts.index(False) == bad
    products.clear()
    with pytest.raises(InvalidAggregateError, match=f"input signature {bad} is invalid"):
        ms.ms_combine(sigs, MSG, pks_, params, rng)
    assert len(products) == bad + 1
    if isinstance(rng, random.Random):
        assert rng.getstate() == loop.getstate()


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

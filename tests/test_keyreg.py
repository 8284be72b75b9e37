"""Certified-key registry: witness reconstruction and persistence."""

import dataclasses

import pytest

from seqsig import envelopes, keyreg, ms, pks, sas
from seqsig.errors import MalformedEncodingError, RegistrationError
from seqsig.groups import random_scalar, suite_generate


@pytest.fixture
def sas2_setup(mock_suite, rng):
    params = sas.setup(mock_suite, "sas2", rng)
    pub, priv = sas.keygen(params, rng)
    return params, pub, priv


class TestRegistration:
    @pytest.mark.parametrize("variant", sas.VARIANTS)
    def test_register_and_query(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        pub, priv = sas.keygen(params, rng)
        reg = keyreg.CertRegistry(mock_suite)
        record = reg.register(params, pub, keyreg.witness_from_private(variant, priv))
        assert record.witness_verified
        assert reg.is_certified(pub)
        assert len(reg) == 1

    def test_ms_key_registration(self, mock_suite, rng):
        params = ms.ms_setup(mock_suite, rng)
        pk, sk = ms.ms_keygen(params, rng)
        reg = keyreg.CertRegistry(mock_suite)
        reg.register(params, pk, keyreg.witness_from_private("ms", sk))
        assert reg.is_certified(pk)

    def test_wrong_alpha_rejected(self, sas2_setup, mock_suite):
        params, pub, priv = sas2_setup
        reg = keyreg.CertRegistry(mock_suite)
        bad = pks.PrivateKey("sas2", (priv.alpha + 1) % mock_suite.order,
                             priv.x, priv.y, priv.c_u, priv.c_h)
        with pytest.raises(RegistrationError):
            reg.register(params, pub, bad)
        assert not reg.is_certified(pub)

    def test_sas2_missing_blinding_witness_rejected(self, sas2_setup, mock_suite):
        params, pub, priv = sas2_setup
        reg = keyreg.CertRegistry(mock_suite)
        from seqsig.errors import MissingWitnessError
        bad = pks.PrivateKey("sas2", priv.alpha, priv.x, priv.y)
        with pytest.raises((RegistrationError, MissingWitnessError)):
            reg.register(params, pub, bad)
        assert not reg.is_certified(pub)

    def test_scheme_mismatch_rejected(self, mock_suite, rng):
        params1 = sas.setup(mock_suite, "sas1", rng)
        pub, priv = sas.keygen(params1, rng)
        reg = keyreg.CertRegistry(mock_suite)
        wrong = pks.PrivateKey("sas2", priv.alpha, priv.x, priv.y, 1, 2)
        with pytest.raises(RegistrationError):
            reg.register(params1, pub, wrong)

    @pytest.mark.parametrize("params_scheme, key_scheme", [
        ("sas1", "sas2"), ("sas2", "sas1"), ("ms", "sas2"), ("sas2", "ms")])
    def test_key_and_witness_of_another_scheme_than_the_params_rejected(
            self, mock_suite, rng, params_scheme, key_scheme):
        """A key and its own witness under parameters of another registering
        scheme are refused before any reconstruction."""
        params, own = (ms.ms_setup(mock_suite, rng) if s == "ms" else sas.setup(mock_suite, s, rng)
                       for s in (params_scheme, key_scheme))
        pub, priv = (ms.ms_keygen if key_scheme == "ms" else sas.keygen)(own, rng)
        reg = keyreg.CertRegistry(mock_suite)
        before = dict(mock_suite.counts)
        with pytest.raises(RegistrationError, match="one registering scheme"):
            reg.register(params, pub, priv)
        assert dict(mock_suite.counts) == before and len(reg) == 0

    def test_witness_from_a_private_key_of_another_scheme_refused(self, mock_suite, rng):
        _, pks_sk = pks.keygen(mock_suite, "pks2", rng)
        with pytest.raises(ValueError, match="does not register keys"):
            keyreg.witness_from_private("pks2", pks_sk)
        _, priv = sas.keygen(sas.setup(mock_suite, "sas1", rng), rng)
        with pytest.raises(ValueError, match="is for 'sas1', not 'sas2'"):
            keyreg.witness_from_private("sas2", priv)

    def test_idempotent_reregistration(self, sas2_setup, mock_suite):
        params, pub, priv = sas2_setup
        reg = keyreg.CertRegistry(mock_suite)
        wit = keyreg.witness_from_private("sas2", priv)
        a = reg.register(params, pub, wit)
        b = reg.register(params, pub, wit)
        assert a == b and len(reg) == 1

    def test_predicate_is_snapshot(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas1", rng)
        pub, priv = sas.keygen(params, rng)
        reg = keyreg.CertRegistry(mock_suite)
        pred = reg.predicate()
        reg.register(params, pub, keyreg.witness_from_private("sas1", priv))
        assert not pred(pub)  # snapshot taken before registration
        assert reg.predicate()(pub)

    def test_predicate_gates_aggregate_verification(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas1", rng)
        pub, priv = sas.keygen(params, rng)
        agg = sas.agg_sign(params, sas.empty_aggregate(params), b"m", pub, priv, rng)
        reg = keyreg.CertRegistry(mock_suite)
        assert not sas.agg_verify(params, agg, rng, certified=reg.predicate())
        reg.register(params, pub, keyreg.witness_from_private("sas1", priv))
        assert sas.agg_verify(params, agg, rng, certified=reg.predicate())

    def test_no_witness_material_retained(self, sas2_setup, mock_suite):
        params, pub, priv = sas2_setup
        reg = keyreg.CertRegistry(mock_suite)
        reg.register(params, pub, keyreg.witness_from_private("sas2", priv))
        rec = reg.records()[0]
        assert not hasattr(rec, "alpha") and not hasattr(rec, "witness")
        assert rec.witness_verified is True


@pytest.mark.parametrize("variant, pairings", [("sas1", 1), ("sas2", 0)])
def test_register_on_decoded_params_pairs_at_most_once(rng, variant, pairings):
    """sas1 pairs its params' own clear g once per params object; sas2
    reads the decoded lam."""
    params = sas.setup(suite_generate("mock", 10007), variant, rng)
    keys = [sas.keygen(params, rng) for _ in range(2)]
    fresh = suite_generate("mock", 10007)
    decoded = envelopes.decode_params(fresh, envelopes.encode_params(params))
    registry = keyreg.CertRegistry(fresh)
    for pub, priv in keys:
        pk = envelopes.decode_public_key(fresh, envelopes.encode_public_key(pub))
        registry.register(decoded, pk, priv)
    assert len(registry) == 2
    assert fresh.pairing_count == pairings


@pytest.mark.parametrize("backend", ["mock", "real"])
def test_sas1_params_with_a_raised_g_hat_row(backend, rng):
    """sas1 parameters whose ghat row is raised to k != 1 (still orthogonal
    to w_row), read back from their envelope: Omega's base pairs the
    parameters' own g_hat_row[0], so a key built and registered on them
    signs aggregates that verify."""
    suite = suite_generate("mock", 10007) if backend == "mock" else suite_generate("real")
    params = sas.setup(suite, "sas1", rng)
    raised = dataclasses.replace(params, g_hat_row=pks.row_pow(params.g_hat_row, 5))
    decoded = envelopes.decode_params(suite, envelopes.encode_params(raised))
    assert decoded.g_hat_row[0] != suite.g_hat
    pub, priv = sas.keygen(decoded, rng)
    registry = keyreg.CertRegistry(suite)
    assert registry.register(decoded, pub, priv).witness_verified
    agg = sas.agg_sign(decoded, sas.empty_aggregate(decoded), b"m", pub, priv, rng)
    assert sas.agg_verify(decoded, agg, rng, certified=registry.predicate())


@pytest.mark.parametrize("backend", ["mock", "real"])
@pytest.mark.parametrize("scheme, draws", [("sas1", 3), ("sas2", 5), ("ms", 1)])
def test_params_signer_builds_the_keygen_key(backend, scheme, draws, rng):
    """Params.signer on the scalars keygen draws, in its order, gives the
    same key bytes and the same private key."""
    suite = suite_generate("mock", 10007) if backend == "mock" else suite_generate("real")
    if scheme == "ms":
        params, keygen = ms.ms_setup(suite, rng), ms.ms_keygen
    else:
        params, keygen = sas.setup(suite, scheme, rng), sas.keygen
    state = rng.getstate()
    pub, priv = keygen(params, rng)
    rng.setstate(state)
    again, again_priv = params.signer(*(random_scalar(suite, rng) for _ in range(draws)))
    assert envelopes.encode_public_key(again) == envelopes.encode_public_key(pub)
    assert again_priv == priv


class TestPersistence:
    def _populated(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas2", rng)
        reg = keyreg.CertRegistry(mock_suite)
        pubs = []
        for _ in range(3):
            pub, priv = sas.keygen(params, rng)
            reg.register(params, pub, keyreg.witness_from_private("sas2", priv))
            pubs.append(pub)
        return reg, pubs

    def test_round_trip(self, mock_suite, rng):
        reg, pubs = self._populated(mock_suite, rng)
        loaded = keyreg.CertRegistry.load_bytes(mock_suite, reg.save_bytes())
        assert len(loaded) == 3
        assert all(loaded.is_certified(pub) for pub in pubs)
        assert loaded.save_bytes() == reg.save_bytes()

    def test_decode_returns_the_registry_records(self, mock_suite, rng):
        """decode_registry returns CertRecords, the one record type, equal to
        the registry's own records."""
        reg, _ = self._populated(mock_suite, rng)
        decoded = envelopes.decode_registry(mock_suite, reg.save_bytes())
        assert decoded == reg.records()
        assert all(type(r) is keyreg.CertRecord for r in decoded)

    def test_truncated_file_rejected(self, mock_suite, rng):
        reg, _ = self._populated(mock_suite, rng)
        data = reg.save_bytes()
        with pytest.raises(MalformedEncodingError):
            keyreg.CertRegistry.load_bytes(mock_suite, data[:-5])

    def test_flipped_key_id_no_longer_certifies_the_key(self, mock_suite, rng):
        reg, pubs = self._populated(mock_suite, rng)
        data = bytearray(reg.save_bytes())
        off = self._first_record_offset(mock_suite)
        assert data[off:off + 32] == pubs[0].key_id
        data[off] ^= 0xFF  # there is no key to hash, so the load succeeds
        loaded = keyreg.CertRegistry.load_bytes(mock_suite, bytes(data))
        assert len(loaded) == 3
        assert not loaded.is_certified(pubs[0])
        assert all(loaded.is_certified(pub) for pub in pubs[1:])

    def test_wrong_suite_rejected(self, mock_suite, rng):
        reg, _ = self._populated(mock_suite, rng)
        other = suite_generate("mock", 10007)
        data = reg.save_bytes()
        loaded = keyreg.CertRegistry.load_bytes(other, data)  # same descriptor
        assert len(loaded) == 3
        tiny = suite_generate("mock", 101)
        with pytest.raises(MalformedEncodingError):
            keyreg.CertRegistry.load_bytes(tiny, data)

    @staticmethod
    def _first_record_offset(suite):
        """Offset of the first record: just after the header and the count."""
        return len(envelopes._header(envelopes.MAGIC_REGISTRY, suite)) + 4

    def test_record_is_42_bytes(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas2", rng)
        reg = keyreg.CertRegistry(mock_suite)
        for n in range(4):
            assert len(reg.save_bytes()) == self._first_record_offset(mock_suite) + 42 * n
            pub, priv = sas.keygen(params, rng)
            reg.register(params, pub, keyreg.witness_from_private("sas2", priv))

    def test_non_registering_scheme_byte_rejected(self, mock_suite, rng):
        reg, _ = self._populated(mock_suite, rng)
        data = bytearray(reg.save_bytes())
        off = self._first_record_offset(mock_suite) + 32
        assert data[off] == envelopes.SCHEME_BYTE["sas2"]
        data[off] = envelopes.SCHEME_BYTE["ms"]  # any registering scheme loads
        assert keyreg.CertRegistry.load_bytes(mock_suite, bytes(data)).records()[0].variant == "ms"
        for scheme in (0, *(envelopes.SCHEME_BYTE[v] for v in pks.VARIANTS), 7, 255):
            data[off] = scheme
            with pytest.raises(MalformedEncodingError, match="no registering scheme"):
                keyreg.CertRegistry.load_bytes(mock_suite, bytes(data))

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_witness_flag_must_be_a_bit(self, mock_suite, rng, flag):
        reg, _ = self._populated(mock_suite, rng)
        data = bytearray(reg.save_bytes())
        flag_off = self._first_record_offset(mock_suite) + 33
        assert data[flag_off] == 1
        data[flag_off] = 0
        loaded = keyreg.CertRegistry.load_bytes(mock_suite, bytes(data))
        assert not loaded.records()[0].witness_verified
        data[flag_off] = flag
        with pytest.raises(MalformedEncodingError):
            keyreg.CertRegistry.load_bytes(mock_suite, bytes(data))

    @pytest.mark.parametrize("offset, value", [(33, 0), (32, envelopes.SCHEME_BYTE["ms"])],
                             ids=["witness-flag-0", "sas2-relabelled-ms"])
    def test_record_that_does_not_vouch_for_the_key_does_not_certify(
            self, mock_suite, rng, offset, value):
        reg, pubs = self._populated(mock_suite, rng)
        data = bytearray(reg.save_bytes())
        data[self._first_record_offset(mock_suite) + offset] = value
        loaded = keyreg.CertRegistry.load_bytes(mock_suite, bytes(data))
        certified = loaded.predicate()
        assert loaded.is_certified(pubs[0]) is False and certified(pubs[0]) is False
        assert all(loaded.is_certified(pub) and certified(pub) for pub in pubs[1:])

    def test_registering_replaces_a_record_that_does_not_certify(self, mock_suite, sas2_setup):
        params, pub, priv = sas2_setup
        reg = keyreg.CertRegistry(mock_suite)
        reg.register(params, pub, keyreg.witness_from_private("sas2", priv))
        data = bytearray(reg.save_bytes())
        data[self._first_record_offset(mock_suite) + 33] = 0
        loaded = keyreg.CertRegistry.load_bytes(mock_suite, bytes(data))
        record = loaded.register(params, pub, keyreg.witness_from_private("sas2", priv))
        assert record.witness_verified and loaded.records() == [record]
        assert loaded.is_certified(pub)

    def test_version_1_registry_rejected(self, mock_suite, rng):
        """A registry of the first format, whose records also carry the key."""
        reg, pubs = self._populated(mock_suite, rng)
        v2 = reg.save_bytes()
        parts = [v2[:4], b"\x01", v2[5:self._first_record_offset(mock_suite)]]
        for record, pub in zip(reg.records(), pubs):
            blob = envelopes.encode_public_key(pub)
            parts += [record.key_id, bytes([envelopes.SCHEME_BYTE["sas2"]]),
                      len(blob).to_bytes(4, "big"), blob, b"\x01",
                      record.timestamp.to_bytes(8, "big")]
        with pytest.raises(MalformedEncodingError, match="unsupported envelope version 1"):
            keyreg.CertRegistry.load_bytes(mock_suite, b"".join(parts))

    def test_reregistering_a_loaded_key_returns_its_record(self, mock_suite, rng, sas2_setup):
        params, pub, priv = sas2_setup
        reg = keyreg.CertRegistry(mock_suite)
        reg.register(params, pub, keyreg.witness_from_private("sas2", priv))
        data = reg.save_bytes()
        loaded = keyreg.CertRegistry.load_bytes(mock_suite, data)
        record = loaded.register(params, pub, keyreg.witness_from_private("sas2", priv))
        assert record == loaded.records()[0] == reg.records()[0]
        assert len(loaded) == 1 and loaded.save_bytes() == data

    def test_duplicate_key_id_rejected(self, mock_suite, rng, sas2_setup):
        params, pub, priv = sas2_setup
        reg = keyreg.CertRegistry(mock_suite)
        reg.register(params, pub, keyreg.witness_from_private("sas2", priv))
        data = reg.save_bytes()
        header = len(envelopes._header(envelopes.MAGIC_REGISTRY, mock_suite))
        assert data[header:header + 4] == (1).to_bytes(4, "big")
        record = data[header + 4:]
        twice = data[:header] + (2).to_bytes(4, "big") + record + record
        with pytest.raises(MalformedEncodingError):
            keyreg.CertRegistry.load_bytes(mock_suite, twice)


@pytest.mark.parametrize("backend", ["mock", "real"])
def test_load_decodes_no_group_element(backend, rng, monkeypatch):
    suite = suite_generate("mock", 10007) if backend == "mock" else suite_generate("real")
    reg = keyreg.CertRegistry(suite)
    for params in (sas.setup(suite, "sas2", rng), ms.ms_setup(suite, rng)):
        keygen = ms.ms_keygen if params.variant == "ms" else sas.keygen
        pub, priv = keygen(params, rng)
        reg.register(params, pub, keyreg.witness_from_private(params.variant, priv))
    data = reg.save_bytes()

    def no_decode(*args):
        raise AssertionError("a registry load decoded a group element")

    monkeypatch.setattr(envelopes, "decode_element", no_decode)
    loaded = keyreg.CertRegistry.load_bytes(suite, data)
    assert loaded.records() == reg.records() and loaded.save_bytes() == data

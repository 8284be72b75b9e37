"""Envelope formats: round trips, suite binding, corruption handling."""

import dataclasses

import pytest

from seqsig import envelopes as env, ms, pks, sas
from seqsig.errors import MalformedEncodingError
from seqsig.groups import suite_generate


class TestSignatureEnvelope:
    @pytest.mark.parametrize("variant", pks.VARIANTS)
    def test_round_trip(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        sig = pks.sign(variant, b"m", sk, pk, rng)
        again = env.decode_signature(mock_suite, env.encode_signature(sig))
        assert again == sig

    def test_real_backend_round_trip(self, real_suite, rng):
        pk, sk = pks.keygen(real_suite, "pks2", rng)
        sig = pks.sign("pks2", b"m", sk, pk, rng)
        blob = env.encode_signature(sig)
        again = env.decode_signature(real_suite, blob)
        assert again == sig
        assert pks.verify("pks2", again, b"m", pk, rng)

    def test_wrong_suite_rejected(self, mock_suite, rng):
        pk, sk = pks.keygen(mock_suite, "pks2", rng)
        blob = env.encode_signature(pks.sign("pks2", b"m", sk, pk, rng))
        with pytest.raises(MalformedEncodingError):
            env.decode_signature(suite_generate("mock", 101), blob)

    def test_truncation_rejected(self, mock_suite, rng):
        pk, sk = pks.keygen(mock_suite, "pks2", rng)
        blob = env.encode_signature(pks.sign("pks2", b"m", sk, pk, rng))
        for cut in (3, 8, len(blob) - 1):
            with pytest.raises(MalformedEncodingError):
                env.decode_signature(mock_suite, blob[:cut])

    def test_trailing_bytes_rejected(self, mock_suite, rng):
        pk, sk = pks.keygen(mock_suite, "pks2", rng)
        blob = env.encode_signature(pks.sign("pks2", b"m", sk, pk, rng))
        with pytest.raises(MalformedEncodingError):
            env.decode_signature(mock_suite, blob + b"\x00")

    def test_wrong_magic_rejected(self, mock_suite, rng):
        pk, sk = pks.keygen(mock_suite, "pks2", rng)
        blob = env.encode_signature(pks.sign("pks2", b"m", sk, pk, rng))
        with pytest.raises(MalformedEncodingError):
            env.decode_public_key(mock_suite, blob)


class TestKeyEnvelopes:
    @pytest.mark.parametrize("variant", pks.VARIANTS)
    def test_single_signer_public_key(self, mock_suite, rng, variant):
        pk, _ = pks.keygen(mock_suite, variant, rng)
        again = env.decode_public_key(mock_suite, env.encode_public_key(pk))
        assert again == pk

    @pytest.mark.parametrize("variant", sas.VARIANTS)
    def test_aggregate_signer_public_key(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        pub, _ = sas.keygen(params, rng)
        again = env.decode_public_key(mock_suite, env.encode_public_key(pub))
        assert again == pub

    def test_ms_public_key(self, mock_suite, rng):
        params = ms.ms_setup(mock_suite, rng)
        pk, _ = ms.ms_keygen(params, rng)
        assert env.decode_public_key(mock_suite, env.encode_public_key(pk)) == pk

    @pytest.mark.parametrize("variant", ["pks1", "pks2", "lw"])
    def test_private_key_round_trip(self, mock_suite, rng, variant):
        pk, sk = pks.keygen(mock_suite, variant, rng)
        blob = env.encode_private_key(mock_suite, variant, sk)
        got_variant, got = env.decode_private_key(mock_suite, blob)
        assert got_variant == variant and got == sk

    @pytest.mark.parametrize("variant", sas.VARIANTS)
    def test_sas_private_key_round_trip(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        _, priv = sas.keygen(params, rng)
        blob = env.encode_private_key(mock_suite, variant, priv)
        got_variant, got = env.decode_private_key(mock_suite, blob)
        assert got_variant == variant and got == priv

    def test_ms_private_key_round_trip(self, mock_suite, rng):
        params = ms.ms_setup(mock_suite, rng)
        _, sk = ms.ms_keygen(params, rng)
        blob = env.encode_private_key(mock_suite, "ms", sk)
        assert env.decode_private_key(mock_suite, blob) == ("ms", sk)

    def test_out_of_range_scalar_rejected(self, tiny_suite, rng):
        params = ms.ms_setup(tiny_suite, rng)
        _, sk = ms.ms_keygen(params, rng)
        blob = bytearray(env.encode_private_key(tiny_suite, "ms", sk))
        blob[-32:] = (200).to_bytes(32, "big")  # 200 >= 101
        with pytest.raises(MalformedEncodingError):
            env.decode_private_key(tiny_suite, bytes(blob))


    def test_nonzero_unused_slot_rejected(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas1", rng)
        _, priv = sas.keygen(params, rng)
        assert priv.c_u is None and priv.c_h is None
        blob = bytearray(env.encode_private_key(mock_suite, "sas1", priv))
        slot3 = len(blob) - 2 * 32  # the c_u slot, unused by sas1
        assert blob[slot3:slot3 + 32] == bytes(32)
        blob[slot3:slot3 + 32] = (5).to_bytes(32, "big")
        with pytest.raises(MalformedEncodingError):
            env.decode_private_key(mock_suite, bytes(blob))

    def test_encode_refuses_a_key_of_another_variant(self, mock_suite, rng):
        _, sk = pks.keygen(mock_suite, "pks2", rng)
        with pytest.raises(ValueError):
            env.encode_private_key(mock_suite, "sas2", sk)

    def test_unknown_scheme_refused(self, mock_suite, rng):
        """encode refuses a scheme it has no layout for; decode refuses a
        scheme byte it does not know."""
        _, sk = pks.keygen(mock_suite, "pks2", rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            env.encode_private_key(mock_suite, "pks9", sk)
        blob = bytearray(env.encode_private_key(mock_suite, "pks2", sk))
        header = len(env._header(env.MAGIC_PRIVATE_KEY, mock_suite))
        assert blob[header] == env.SCHEME_BYTE["pks2"]
        blob[header] = 0xEE
        with pytest.raises(MalformedEncodingError, match="unknown scheme byte"):
            env.decode_private_key(mock_suite, bytes(blob))

    @pytest.mark.parametrize("pk_id", [b"", bytes(31), bytes(33)])
    def test_encode_refuses_a_key_id_that_is_not_32_bytes(self, mock_suite, pk_id):
        # such an envelope would be one its own decoder rejects as truncated
        sk = pks.PrivateKey("sas2", 1, 2, 3, 4, 5, pk_id)
        with pytest.raises(ValueError):
            env.encode_private_key(mock_suite, "sas2", sk)


class TestParamsEnvelope:
    @pytest.mark.parametrize("build", [
        lambda s, r: sas.setup(s, "sas1", r),
        lambda s, r: sas.setup(s, "sas2", r),
        lambda s, r: ms.ms_setup(s, r),
    ])
    def test_round_trip(self, mock_suite, rng, build):
        params = build(mock_suite, rng)
        again = env.decode_params(mock_suite, env.encode_params(params))
        assert again == params


class TestLayouts:
    """Each key and params class declares its element layout once."""

    def _objects(self, suite, rng):
        objs = [pks.keygen(suite, v, rng)[0] for v in pks.VARIANTS]
        for v in sas.VARIANTS:
            params = sas.setup(suite, v, rng)
            objs += [params, sas.keygen(params, rng)[0]]
        params = ms.ms_setup(suite, rng)
        return objs + [params, ms.ms_keygen(params, rng)[0]]

    def test_layout_rebuilds_every_object(self, mock_suite, rng):
        for obj in self._objects(mock_suite, rng):
            elems = obj.elements()
            kinds = type(obj).element_kinds(obj.variant)
            assert [e.kind for e in elems] == list(kinds)
            assert type(obj).from_elements(mock_suite, obj.variant, elems) == obj

    def test_element_counts(self, mock_suite, rng):
        counts = {(type(o).__name__, o.variant): len(o.elements())
                  for o in self._objects(mock_suite, rng)}
        assert counts == {
            ("PublicKey", "pks1"): 23, ("PublicKey", "pks2"): 22,
            ("PublicKey", "lw"): 13, ("Params", "sas1"): 12,
            ("PublicKey", "sas1"): 11, ("Params", "sas2"): 10,
            ("PublicKey", "sas2"): 13, ("Params", "ms"): 22,
            ("PublicKey", "ms"): 1,
        }

    @pytest.mark.parametrize("cls", [pks.PublicKey, pks.Params])
    def test_width_table_matches_the_fields(self, cls):
        names = [f.name for f in dataclasses.fields(cls)][2:]  # after suite and variant
        assert names == [*pks._ROW_FIELDS, cls.GT_FIELD]
        for widths in cls.WIDTHS.values():
            assert len(widths) == len(names) and widths[-1] in (0, 1)
        # the signature rows' width is the w_row of the key, or of the params
        # for the schemes that have them
        w = pks._ROW_FIELDS.index("w_row")
        for variant in pks.VARIANTS if cls is pks.PublicKey else cls.WIDTHS:
            assert cls.WIDTHS[variant][w] == pks.ROW_WIDTH[variant]

    def test_key_scheme_byte_is_not_params(self, mock_suite, rng):
        blob = bytearray(env.encode_params(ms.ms_setup(mock_suite, rng)))
        header = len(env._header(env.MAGIC_PARAMS, mock_suite))
        blob[header] = env.SCHEME_BYTE["pks2"]
        with pytest.raises(MalformedEncodingError):
            env.decode_params(mock_suite, bytes(blob))


class TestAggregateEnvelope:
    @pytest.mark.parametrize("variant", sas.VARIANTS)
    def test_round_trip(self, mock_suite, rng, variant):
        params = sas.setup(mock_suite, variant, rng)
        agg = sas.empty_aggregate(params)
        keys = []
        for msg in (b"a", b"b"):
            pub, priv = sas.keygen(params, rng)
            keys.append(pub)
            agg = sas.agg_sign(params, agg, msg, pub, priv, rng)
        blob = env.encode_aggregate(agg)
        again = env.decode_aggregate(mock_suite, blob, keys)
        assert again == agg
        assert sas.agg_verify(params, again, rng)

    def test_missing_key_rejected(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas2", rng)
        pub, priv = sas.keygen(params, rng)
        agg = sas.agg_sign(params, sas.empty_aggregate(params), b"a", pub, priv, rng)
        with pytest.raises(MalformedEncodingError):
            env.decode_aggregate(mock_suite, env.encode_aggregate(agg), [])

    def test_empty_aggregate_round_trip(self, mock_suite, rng):
        params = sas.setup(mock_suite, "sas1", rng)
        agg = sas.empty_aggregate(params)
        assert env.decode_aggregate(mock_suite, env.encode_aggregate(agg), []) == agg


class TestMultisigEnvelope:
    def test_round_trip(self, mock_suite, rng):
        params = ms.ms_setup(mock_suite, rng)
        keys = [ms.ms_keygen(params, rng) for _ in range(2)]
        sigs = [ms.ms_sign(params, b"joint", sk, rng) for _, sk in keys]
        pk_list = [pk for pk, _ in keys]
        msig = ms.ms_combine(sigs, b"joint", pk_list, params, rng)
        mh = ms.message_scalar(params, b"joint")
        blob = env.encode_multisignature(msig, mh, pk_list)
        got_sig, got_mh, got_pks = env.decode_multisignature(mock_suite, blob, pk_list)
        assert got_sig == msig and got_mh == mh and got_pks == pk_list
        assert ms.ms_mult_verify_scalar(got_sig, got_mh, got_pks, params, rng)

    def test_no_signer_rejected(self, mock_suite, rng):
        params = ms.ms_setup(mock_suite, rng)
        pk, sk = ms.ms_keygen(params, rng)
        mh = ms.message_scalar(params, b"joint")
        blob = env.encode_multisignature(ms.ms_sign(params, b"joint", sk, rng), mh, [pk])
        header = len(env._header(env.MAGIC_MULTISIG, mock_suite))
        assert blob[header:header + 4] == (1).to_bytes(4, "big")
        # count 0 and no key id; the message hash and rows stay well formed
        empty = blob[:header] + bytes(4) + blob[header + 4 + 32:]
        with pytest.raises(MalformedEncodingError):
            env.decode_multisignature(mock_suite, empty, [pk])


class TestWireFormats:
    def test_hex_round_trip(self, mock_suite, rng):
        pk, sk = pks.keygen(mock_suite, "lw", rng)
        blob = env.encode_signature(pks.sign("lw", b"m", sk, pk, rng))
        wire = env.to_wire(blob, "hex")
        assert wire.endswith(b"\n") and wire[:-1] == blob.hex().encode()
        assert env.from_wire(wire) == blob

    def test_bin_passthrough(self, mock_suite, rng):
        pk, _ = pks.keygen(mock_suite, "pks2", rng)
        blob = env.encode_public_key(pk)
        assert env.to_wire(blob, "bin") == blob
        assert env.from_wire(blob) == blob

    def test_garbage_rejected(self):
        with pytest.raises(MalformedEncodingError):
            env.from_wire(b"\xff\xfenot an envelope")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            env.to_wire(b"AKEY", "json")

"""Every decoder is total: on any input it returns or raises a library error.

The corpus holds valid envelopes of every kind on mock:10007, and the same
kinds on the real curve; the inputs are arbitrary bytes, valid headers with
arbitrary payloads, and truncated, bit-flipped and byte-overwritten valid
envelopes. The real corpus gets fewer examples, as each real decode takes
square roots on the curve and the twist.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from seqsig import envelopes as env, keyreg, ms, pks, sas
from seqsig.errors import MalformedEncodingError, SubgroupMembershipError
from seqsig.groups import suite_generate

LIBRARY_ERRORS = (MalformedEncodingError, SubgroupMembershipError)


@functools.cache
def corpus(backend="mock"):
    """decoder name -> (decode(bytes), valid envelopes it accepts)."""
    suite = suite_generate("mock", 10007) if backend == "mock" else suite_generate("real")
    rng = random.Random(4)
    single = {v: pks.keygen(suite, v, rng) for v in pks.VARIANTS}
    sigs = [pks.sign(v, b"m", sk, pk, rng) for v, (pk, sk) in single.items()]
    all_params = [sas.setup(suite, v, rng) for v in sas.VARIANTS] + [ms.ms_setup(suite, rng)]
    p1, p2, pm = all_params
    sas_keys = [sas.keygen(p, rng) for p in (p1, p2, p2)]
    ms_keys = [ms.ms_keygen(pm, rng) for _ in range(2)]
    aggs = [sas.empty_aggregate(p1)]
    agg = sas.empty_aggregate(p2)
    for i, (pub, priv) in enumerate(sas_keys[1:]):
        agg = sas.agg_sign(p2, agg, b"m%d" % i, pub, priv, rng)
    aggs.append(agg)
    ms_pks = [pk for pk, _ in ms_keys]
    msig = ms.ms_combine([ms.ms_sign(pm, b"m", sk, rng) for _, sk in ms_keys], b"m",
                         ms_pks, pm, rng)
    registry = keyreg.CertRegistry(suite)
    for params, (pub, priv) in [(p2, sas_keys[1]), (p2, sas_keys[2]), (pm, ms_keys[0])]:
        registry.register(params, pub, keyreg.witness_from_private(params.variant, priv))
    pubs = [pk for pk, _ in single.values()] + [pk for pk, _ in sas_keys] + ms_pks
    privs = [env.encode_private_key(suite, v, sk) for v, (_, sk) in single.items()]
    privs += [env.encode_private_key(suite, p.variant, sk)
              for p, (_, sk) in zip((p1, p2, p2, pm, pm), sas_keys + ms_keys)]
    known = [pk for pk, _ in sas_keys]
    out = {
        "signature": (lambda b: env.decode_signature(suite, b),
                      [env.encode_signature(s) for s in sigs]),
        "public_key": (lambda b: env.decode_public_key(suite, b),
                       [env.encode_public_key(pk) for pk in pubs]),
        "private_key": (lambda b: env.decode_private_key(suite, b), privs),
        "params": (lambda b: env.decode_params(suite, b),
                   [env.encode_params(p) for p in all_params]),
        "aggregate": (lambda b: env.decode_aggregate(suite, b, known),
                      [env.encode_aggregate(a) for a in aggs]),
        "multisignature": (lambda b: env.decode_multisignature(suite, b, ms_pks),
                           [env.encode_multisignature(msig, ms.message_scalar(pm, b"m"), ms_pks)]),
        "registry": (lambda b: keyreg.CertRegistry.load_bytes(suite, b),
                     [registry.save_bytes()]),
    }
    # from_wire sees every envelope, in both wire formats
    blobs = [b for _, valid in out.values() for b in valid]
    out["from_wire"] = (env.from_wire, blobs + [env.to_wire(b, "hex") for b in blobs])
    return out


DECODERS = ["signature", "public_key", "private_key", "params", "aggregate",
            "multisignature", "registry", "from_wire"]


@pytest.mark.parametrize("name", DECODERS)
def test_corpus_decodes(name):
    decode, valid = corpus()[name]
    for blob in valid:
        decode(blob)


@pytest.mark.parametrize("name", DECODERS[:-1])
def test_header_without_backend_tag_rejected(name):
    decode, valid = corpus()[name]
    for blob in valid:
        with pytest.raises(MalformedEncodingError, match="truncated backend descriptor"):
            decode(blob[:5])  # magic and version, no backend descriptor


@st.composite
def mangled(draw, valid):
    """Arbitrary bytes, or a valid envelope with its tail replaced, cut or damaged."""
    blob = bytearray(draw(st.sampled_from(valid)))
    mode = draw(st.sampled_from(["arbitrary", "tail", "truncate", "flip", "overwrite"]))
    if mode == "arbitrary":
        return draw(st.binary(max_size=120))
    if mode == "tail":
        return bytes(blob[:draw(st.integers(0, 12))]) + draw(st.binary(max_size=120))
    if mode == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(blob) - 1))
        if mode == "flip":
            blob[i] ^= 1 << draw(st.integers(0, 7))
        else:
            blob[i] = draw(st.integers(0, 255))
    return bytes(blob)


def _decode_mangled(backend, name, data):
    decode, valid = corpus(backend)[name]
    blob = data.draw(mangled(valid))
    try:
        decode(blob)
    except LIBRARY_ERRORS:
        pass


@pytest.mark.parametrize("name", DECODERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decoder_is_total(name, data):
    _decode_mangled("mock", name, data)


@pytest.mark.parametrize("name", DECODERS)
def test_real_corpus_decodes(name):
    decode, valid = corpus("real")[name]
    for blob in valid:
        decode(blob)


@pytest.mark.parametrize("name", DECODERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decoder_is_total_on_real(name, data):
    _decode_mangled("real", name, data)

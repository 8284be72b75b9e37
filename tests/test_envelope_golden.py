"""Envelope bytes are pinned: one digest per backend over every envelope kind.

For a fixed seed the run below encodes, for every scheme, the keys, private
keys, parameters, signatures, aggregates (l = 0..3), the ``pks_view`` key
and ``strip_to_single`` signature of sas, and the shares and 3-way
combination of ms, then the rng state after the run. A refactor of the key,
parameter or signature types must leave every byte, and every coin draw,
where it was. ``tests/test_golden.py`` pins group elements; this pins the
files.
"""

import hashlib
import random

import pytest

from seqsig import envelopes as env, ms, pks, sas
from seqsig.groups import suite_generate

MSG = b"envelope golden"

# recorded at 4562d4a, before public keys and parameters became one type each
DIGESTS = {
    "mock": "9246d609a23b28bfec4b4286b5375c9ad22bd35dddcc3568578c0c2942abf0bd",
    "real": "5158545144bb640403542ff1db5801bea74608ae2980bcbde4a9b646a70eca8c",
}


def envelope_digest(suite, rng) -> str:
    h = hashlib.sha256()

    def put(blob: bytes):
        h.update(len(blob).to_bytes(4, "big") + blob)

    for v in pks.VARIANTS:
        pk, sk = pks.keygen(suite, v, rng)
        put(env.encode_public_key(pk))
        put(env.encode_private_key(suite, v, sk))
        put(env.encode_signature(pks.sign(v, MSG, sk, pk, rng)))
    for v in sas.VARIANTS:
        params = sas.setup(suite, v, rng)
        put(env.encode_params(params))
        keys = [sas.keygen(params, rng) for _ in range(3)]
        agg = sas.empty_aggregate(params)
        put(env.encode_aggregate(agg))
        for i, (pub, priv) in enumerate(keys):
            put(env.encode_public_key(pub))
            put(env.encode_private_key(suite, v, priv))
            agg = sas.agg_sign(params, agg, MSG + b" %d" % i, pub, priv, rng)
            put(env.encode_aggregate(agg))
        put(env.encode_public_key(sas.pks_view(params, keys[1][0])))
        witnesses = {pks.key_id(pub): priv for pub, priv in keys}
        put(env.encode_signature(sas.strip_to_single(params, agg, 1, witnesses)))
    params = ms.ms_setup(suite, rng)
    put(env.encode_params(params))
    keys = [ms.ms_keygen(params, rng) for _ in range(3)]
    m = ms.message_scalar(params, MSG)
    shares = [ms.ms_sign(params, MSG, sk, rng) for _, sk in keys]
    for (pk, sk), share in zip(keys, shares):
        put(env.encode_public_key(pk))
        put(env.encode_private_key(suite, "ms", sk))
        put(env.encode_multisignature(share, m, [pk]))
    pk_list = [pk for pk, _ in keys]
    put(env.encode_multisignature(ms.ms_combine(shares, MSG, pk_list, params, rng), m, pk_list))
    put(repr(rng.getstate()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("backend", sorted(DIGESTS))
def test_envelope_bytes_are_pinned(backend):
    suite = suite_generate("mock", 10007) if backend == "mock" else suite_generate("real")
    assert envelope_digest(suite, random.Random(15)) == DIGESTS[backend]

"""Golden transcripts: a fixed-seed run of every scheme hashes to a recorded digest.

The digest covers key ids, the encodings of pks1/pks2/lw signatures, sas1/sas2
aggregates of length 3, a ``remove_signer`` result and an ``ms_combine``
output, then every verdict and the rng state after the run. A refactor of
the signing or verification code must keep all of them: the same group
elements, the same bytes and the same coin draws.
"""

import dataclasses
import hashlib
import random

import pytest

from seqsig import ms, pks, sas
from seqsig.groups import encode_element, suite_generate

SEED = 20150226

EXPECTED_VERDICTS = (
    [True, False] * len(pks.VARIANTS)  # pks: honest, wrong message
    + [True, False, True] * len(sas.VARIANTS)  # sas: honest, reordered, signer removed
    + [True, False, True]  # ms: combined, wrong message, one share alone
)

GOLDEN = {
    "mock:10007": "ab66b51305159f827ba7a98731be7f034a0283fe9889d720be10df1078eb04b2",
    "real": "b1ad42ef7d693dbb5dc7ab72e3743a4e19d06c8818c3397046d9b1384d523392",
}


def _transcript(suite):
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    verdicts = []

    def feed(elements):
        for e in elements:
            digest.update(encode_element(e))

    for variant in pks.VARIANTS:
        pk, sk = pks.keygen(suite, variant, rng)
        sig = pks.sign(variant, b"golden", sk, pk, rng)
        digest.update(sk.pk_id)
        feed(sig.elements())
        verdicts.append(pks.verify(variant, sig, b"golden", pk, rng))
        verdicts.append(pks.verify(variant, sig, b"tampered", pk, rng))

    for variant in sas.VARIANTS:
        params = sas.setup(suite, variant, rng)
        keys = [sas.keygen(params, rng) for _ in range(3)]
        agg = sas.empty_aggregate(params)
        for k, (pub, priv) in enumerate(keys):
            digest.update(priv.pk_id)
            agg = sas.agg_sign(params, agg, b"link %d" % k, pub, priv, rng)
        feed(agg.elements())
        verdicts.append(sas.agg_verify(params, agg, rng))
        swapped = dataclasses.replace(agg, messages=agg.messages[::-1])
        verdicts.append(sas.agg_verify(params, swapped, rng))
        m_old = sas.chained_message_scalar(suite, variant, [b"link 1"])
        removed = sas.remove_signer(params, agg, *keys[1], m_old)
        feed(removed.elements())
        verdicts.append(sas.agg_verify(params, removed, rng))

    params = ms.ms_setup(suite, rng)
    keys = [ms.ms_keygen(params, rng) for _ in range(3)]
    pk_list = [pk for pk, _ in keys]
    shares = [ms.ms_sign(params, b"joint", sk, rng) for _, sk in keys]
    combined = ms.ms_combine(shares, b"joint", pk_list, params, rng)
    feed(combined.elements())
    verdicts.append(ms.ms_mult_verify(combined, b"joint", pk_list, params, rng))
    verdicts.append(ms.ms_mult_verify(combined, b"other", pk_list, params, rng))
    verdicts.append(ms.ms_verify(shares[0], b"joint", pk_list[0], params, rng))

    digest.update(bytes(verdicts))
    digest.update(repr(rng.getstate()).encode())
    return verdicts, digest.hexdigest()


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_golden_transcript(backend):
    name, _, order = backend.partition(":")
    suite = suite_generate(name, int(order) if order else None)
    verdicts, digest = _transcript(suite)
    assert verdicts == EXPECTED_VERDICTS
    assert digest == GOLDEN[backend]

"""Semi-functional signing/verification oracles.

TEST SUPPORT ONLY. These algorithms exist to make the dual-system
cancellation structure observable: the trapdoor they require reveals the
key-generation exponents and voids all security of the scheme. Nothing in
this module may be exported to a production code path.

The oracle masks live in the span orthogonal to the normal verification
vectors, so normal verification accepts semi-functional signatures and
vice versa; only the semi-functional/semi-functional cross with mismatched
tags leaves the residual factor e(f, fhat)^(s_k * s_c * (z_k - z_c)).
"""

from __future__ import annotations

from dataclasses import dataclass

from seqsig import pks
from seqsig.errors import KeyMismatchError
from seqsig.groups import GroupSuite, Scalar, pairing_product, random_nonzero_scalar, random_scalar


@dataclass(frozen=True)
class SFTrapdoor:
    """Key-generation exponents plus the semi-functional base exponent y_f."""

    variant: str
    y_f: Scalar
    exponents: object  # pks.Pks1Exponents or pks.Pks2Exponents
    pk_id: bytes

    def check_against(self, pk):
        if pks.key_id(pk) != self.pk_id:
            raise KeyMismatchError("trapdoor is not consistent with this public key")


@dataclass(frozen=True)
class SFTags:
    s_k: Scalar = 0
    z_k: Scalar = 0
    s_c: Scalar = 0
    z_c: Scalar = 0


def keygen_with_trapdoor(suite: GroupSuite, variant: str, rng):
    """Generate a key pair and retain the trapdoor the oracles need."""
    if variant not in ("pks1", "pks2"):
        raise ValueError("semi-functional oracles exist for pks1 and pks2 only")
    exps = pks._draw_exponents(suite, variant, rng)
    pk, sk = pks.keygen_from_exponents(suite, variant, exps)
    y_f = random_nonzero_scalar(suite, rng)
    return pk, sk, SFTrapdoor(variant=variant, y_f=y_f, exponents=exps, pk_id=sk.pk_id)


def sign_sf(variant, message, sk, pk, trapdoor: SFTrapdoor, tags: SFTags, rng):
    m = pks.message_scalar(pk.suite, variant, message)
    return sign_sf_scalar(variant, m, sk, pk, trapdoor, tags, rng)


def sign_sf_scalar(variant, m, sk, pk, trapdoor, tags, rng):
    trapdoor.check_against(pk)
    suite = pk.suite
    normal = pks.sign_scalar(variant, m, sk, pk, rng)
    return _apply_signing_mask(variant, normal, suite, trapdoor, tags)


def _apply_signing_mask(variant, sig, suite, trapdoor, tags):
    p = suite.order
    f = suite.g ** trapdoor.y_f
    e = trapdoor.exponents
    if variant == "pks1":
        head = (e.nu1 * e.nu3 - e.nu2) % p
        mask = (f ** head, f ** (-e.nu3 % p), f, None)
    else:
        mask = (f ** (-e.nu % p), f, None)
    row1 = tuple(
        w if mk is None else w * mk ** (tags.s_k * tags.z_k % p)
        for w, mk in zip(sig.row1, mask)
    )
    row2 = tuple(
        w if mk is None else w * mk ** tags.s_k for w, mk in zip(sig.row2, mask)
    )
    return pks.Signature(sig.variant, row1, row2)


def verify_sf(variant, sig, message, pk, trapdoor, tags, rng) -> bool:
    m = pks.message_scalar(pk.suite, variant, message)
    return verify_sf_scalar(variant, sig, m, pk, trapdoor, tags, rng)


def verify_sf_scalar(variant, sig, m, pk, trapdoor, tags, rng) -> bool:
    suite = pk.suite
    t = random_nonzero_scalar(suite, rng)
    s1 = random_scalar(suite, rng) if variant == "pks1" else 0
    s2 = random_scalar(suite, rng) if variant == "pks1" else 0
    return verify_sf_with_coins(variant, sig, m, pk, trapdoor, tags, t, s1, s2)


def verify_sf_with_coins(variant, sig, m, pk, trapdoor, tags, t, s1=0, s2=0) -> bool:
    trapdoor.check_against(pk)
    suite = pk.suite
    p = suite.order
    fhat = suite.g_hat ** trapdoor.y_f
    e = trapdoor.exponents
    v1, v2 = pks.verification_components(variant, pk, m, t, s1, s2)
    if variant == "pks1":
        # masks land on slots 3 and 4 of each row
        s_c, sczc = tags.s_c, tags.s_c * tags.z_c % p
        fneg = fhat ** (-e.phi3 % p)
        v1 = (v1[0], v1[1], v1[2] * fhat ** s_c, v1[3] * fneg ** s_c)
        v2 = (v2[0], v2[1], v2[2] * fhat ** sczc, v2[3] * fneg ** sczc)
    elif variant == "pks2":
        s_c, sczc = tags.s_c, tags.s_c * tags.z_c % p
        fneg = fhat ** (-e.phi2 % p)
        v1 = (v1[0], v1[1] * fhat ** s_c, v1[2] * fneg ** s_c)
        v2 = (v2[0], v2[1] * fhat ** sczc, v2[2] * fneg ** sczc)
    else:
        raise ValueError("semi-functional oracles exist for pks1 and pks2 only")
    return check_product(sig, v1, v2, pk.omega ** t)


def check_product(sig, v1, v2, rhs) -> bool:
    """The paper's pairing equation: e(row1, V1) * e(row2, V2) == rhs."""
    return pairing_product(zip(sig.row1, v1), zip(sig.row2, v2)) == rhs

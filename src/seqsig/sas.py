"""Sequential aggregate signatures with constant-size aggregates.

Two variants over shared public parameters:

* ``sas1`` — 8-element aggregates, 11-element signer public keys, clear
  generator in the parameters, randomized verification row.
* ``sas2`` — 6-element aggregates, 13-element signer public keys, only a
  blinded generator row published.

Appending folds the new signer's message into the aggregate-so-far's
randomness via (S'_2)^(x*M + y), then re-randomizes with fresh exponents,
so the result is distributed like a fresh aggregate with composed
randomness. Verification cost is a constant 8 (sas1) or 6 (sas2) pairings
regardless of how many signers contributed. Verification runs the row core
of :mod:`seqsig.pks`, whose pairing equation leaves the verifier's coin t
out: neither the aggregate nor the G2 rows built from the signers' keys are
raised to it.

An aggregate (``AggregateSignature``) is a :class:`pks.Signature` that lists
each signer's message and key; :func:`pks.check_rows` checks it before any
coin, pairing or division.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, Mapping, Sequence

from . import pks
from .errors import (
    DuplicateSignerError,
    InvalidAggregateError,
    KeyMismatchError,
    MissingWitnessError,
)
from .groups import GroupSuite, Scalar, hash_to_scalar, multi_exp, random_scalar

VARIANTS = ("sas1", "sas2")
_CHAIN_TAG = b"seqsig/sas/chain"
_PKS_VARIANT = {"sas1": "pks1", "sas2": "pks2"}  # the base scheme of each


AggregateSignature = pks.Signature


def setup(suite: GroupSuite, variant: str, rng):
    """Public parameters: the pks rows of the variant's width without a signer."""
    r = lambda: random_scalar(suite, rng)
    if variant == "sas1":
        w_row, g_hat_row, v_hat_row = pks.param_rows4(suite, *(r() for _ in range(8)))
        return pks.Params(suite=suite, variant=variant, g_row=(suite.g,), w_row=w_row,
                          g_hat_row=g_hat_row, v_hat_row=v_hat_row)
    if variant == "sas2":
        w_row, g_hat_row = pks.param_rows3(suite, r(), r(), r(), r())
        return pks.Params(suite=suite, variant=variant, g_row=pks.blind(suite.g, w_row, r()),
                          w_row=w_row, g_hat_row=g_hat_row, lam=suite.gt_gen)
    raise ValueError(f"unknown variant {variant!r}")


def _variant(params) -> str:
    """The scheme of ``params``, read first wherever sas takes them: ``ValueError`` unless sas."""
    if params.variant not in VARIANTS:
        raise ValueError(f"{params.variant} parameters are not sas parameters")
    return params.variant


def keygen(params, rng) -> tuple[pks.PublicKey, pks.PrivateKey]:
    """:meth:`pks.Params.signer` on drawn alpha, x, y (sas2: and c_u, c_h)."""
    draws = 5 if _variant(params) == "sas2" else 3
    return params.signer(*(random_scalar(params.suite, rng) for _ in range(draws)))


def empty_aggregate(params) -> AggregateSignature:
    """The unique l = 0 aggregate: every component is the identity."""
    row = (params.suite.identity("g1"),) * pks.ROW_WIDTH[_variant(params)]
    return AggregateSignature(params.variant, row, row)


def chained_message_scalar(suite: GroupSuite, variant: str, chain: Sequence[bytes]) -> Scalar:
    """Hash a message chain (multi-message support) to the scheme's space."""
    payload = b"".join(len(m).to_bytes(4, "big") + m for m in chain)
    return hash_to_scalar(suite, _CHAIN_TAG, payload, width=pks.MESSAGE_WIDTH[variant])


def agg_sign(params, prev: AggregateSignature, message: bytes,
             pub: pks.PublicKey, priv: pks.PrivateKey, rng, *,
             certified: Callable | None = None, verify_prev: bool = True) -> AggregateSignature:
    pks.check_rows(prev, _variant(params), [pub])
    m = chained_message_scalar(params.suite, params.variant, [message])
    kid = pks.key_id(pub)
    if priv.pk_id != kid:
        raise KeyMismatchError("private key does not belong to this public key")
    if certified is not None and not all(certified(s) for s in prev.signers):
        raise InvalidAggregateError("aggregate-so-far has an uncertified signer; halting")
    if not _distinct_signers(params, prev, pub):
        raise DuplicateSignerError("a signer would occur twice in the aggregate")
    if verify_prev and not agg_verify(params, prev, rng):
        raise InvalidAggregateError("aggregate-so-far failed verification; halting")
    return agg_sign_with_randomness(params, prev, m, pub, priv,
                                    *pks.signing_coins(params.suite, rng))


def agg_sign_with_randomness(params, prev, m, pub, priv, r, c1, c2) -> AggregateSignature:
    pks.check_rows(prev, _variant(params), [pub])
    d = (priv.x * m + priv.y) % params.suite.order
    messages = prev.messages + (m,)
    signers = prev.signers + (pub,)
    row1, row2 = pks.sign_rows(params.g_row, priv.alpha, _message_bases(messages, signers),
                               params.w_row, r, c1, c2, prev=(prev.row1, prev.row2), d=d)
    return AggregateSignature(params.variant, row1, row2, messages, signers)


def _message_bases(messages, signers):
    """Per slot, prod_i u_ik^m_i * h_ik over the chain (sas1: slot 0 only)."""
    return tuple(
        pks.product([multi_exp([(s.u_row[k], m) for m, s in zip(messages, signers)])]
                    + [s.h_row[k] for s in signers])
        for k in range(len(signers[0].u_row))
    )


def agg_verify(params, agg: AggregateSignature, rng, *, certified=None) -> bool:
    if not _distinct_signers(params, agg):
        return False
    if certified is not None and not all(certified(s) for s in agg.signers):
        return False
    if agg.length == 0:
        return _pairing_check(params, agg, 1)  # l = 0 draws no coins
    return _pairing_check(params, agg, *pks.verifier_coins(params.suite, params.variant, rng))


def agg_verify_with_coins(params, agg, t, s1=0, s2=0) -> bool:
    """:func:`agg_verify` for given coins and no certification predicate;
    t must be nonzero (``ValueError``)."""
    return _distinct_signers(params, agg) and _pairing_check(params, agg, t, s1, s2)


def _distinct_signers(params, agg, *appenders) -> bool:
    """Whether no signer occurs twice in agg and ``appenders``, once check_rows passes."""
    pks.check_rows(agg, _variant(params), appenders)
    ids = [pks.key_id(s) for s in agg.signers + appenders]
    return len(set(ids)) == len(ids)


def _pairing_check(params, agg, t, s1=0, s2=0) -> bool:
    """The pairing equation for given coins. The empty aggregate (l = 0) has
    none: it is valid exactly when every component is the identity, and its
    coin t is only checked, as the row core checks it."""
    if not agg.signers:
        pks.coin_inverse(t, params.suite.order)
        return all(e.is_identity() for e in agg.row1 + agg.row2)
    terms = [(si.u_hat_row, si.h_hat_row, mi) for mi, si in zip(agg.messages, agg.signers)]
    omega = pks.product([si.omega for si in agg.signers])
    return pks.verify_rows(agg, params.g_hat_row, params.v_hat_row, terms, omega, t, s1, s2)


def strip_to_single(params, agg: AggregateSignature, target_index: int,
                    witnesses: Mapping[bytes, pks.PrivateKey]) -> pks.Signature:
    """Unwind an aggregate to the target signer's single-signer signature.

    ``witnesses`` maps key-ids to private keys for every signer except
    (optionally including) the target; a witness of another key raises
    ``KeyMismatchError`` before any division. The result verifies under
    :func:`pks_view` of the target's key.
    """
    pks.check_rows(agg, _variant(params))
    if not 0 <= target_index < agg.length:
        raise IndexError("target index outside the aggregate")
    others = []
    for i, (mi, si) in enumerate(zip(agg.messages, agg.signers)):
        if i == target_index:
            continue
        kid = pks.key_id(si)
        if kid not in witnesses:
            raise MissingWitnessError(f"no private witness for signer {i}")
        if witnesses[kid].pk_id != kid:
            raise KeyMismatchError(f"the witness for signer {i} belongs to another key")
        others.append((witnesses[kid], mi))
    row1 = _divide_signers(params, agg, others) if others else agg.row1
    return pks.Signature(_PKS_VARIANT[params.variant], row1, agg.row2)


def pks_view(params, pub: pks.PublicKey) -> pks.PublicKey:
    """Assemble the single-signer public key implied by (params, signer)."""
    pks.check_rows(empty_aggregate(params), params.variant, [pub])
    return pks.PublicKey(
        suite=params.suite, variant=_PKS_VARIANT[params.variant], g_row=params.g_row,
        u_row=pub.u_row, h_row=pub.h_row, w_row=params.w_row, g_hat_row=params.g_hat_row,
        u_hat_row=pub.u_hat_row, h_hat_row=pub.h_hat_row, v_hat_row=params.v_hat_row,
        omega=pub.omega)


def remove_signer(params, agg: AggregateSignature, pub: pks.PublicKey,
                  priv: pks.PrivateKey, m_old: Scalar) -> AggregateSignature:
    """Divide one signer's contribution out of an aggregate.

    The leftover blinding shift is absorbed into the aggregate's composed
    randomness, so the result is again a well-formed aggregate over the
    remaining signers (provided ``m_old`` is the scalar actually signed).
    """
    pks.check_rows(agg, _variant(params))
    kid = pks.key_id(pub)
    if priv.pk_id != kid:
        raise KeyMismatchError("private key does not belong to this public key")
    idx = next((i for i, s in enumerate(agg.signers) if pks.key_id(s) == kid), None)
    if idx is None:
        raise MissingWitnessError("signer is not present in the aggregate")
    return AggregateSignature(agg.variant, _divide_signers(params, agg, [(priv, m_old)]),
                              agg.row2, agg.messages[:idx] + agg.messages[idx + 1:],
                              agg.signers[:idx] + agg.signers[idx + 1:])


def _divide_signers(params, agg, signers):
    """agg.row1 with the (priv, m) ``signers`` divided out: slot k is divided
    once by g_row[k]^(sum alpha_i) * row2[k]^(sum d_i), d_i = x_i * m_i + y_i,
    both sums mod the order (sas1's slots past the first have no g_row entry)."""
    order = params.suite.order
    alpha = sum(priv.alpha for priv, _ in signers) % order
    d = sum(priv.x * m + priv.y for priv, m in signers) % order
    return tuple(s / (r2 ** d if a is None else a ** alpha * r2 ** d)
                 for s, r2, a in zip_longest(agg.row1, agg.row2, params.g_row))


def agg_resign(params, agg: AggregateSignature, old_chain: Sequence[bytes],
               new_message: bytes, pub: pks.PublicKey, priv: pks.PrivateKey,
               rng) -> AggregateSignature:
    """Replace this signer's contribution with one covering the extended chain.

    ``old_chain`` is the message sequence the signer previously covered; the
    new contribution signs the chain extended by ``new_message``. A wrong
    ``old_chain`` is not detectable here and simply yields an aggregate that
    fails verification.
    """
    m_old = chained_message_scalar(params.suite, _variant(params), old_chain)
    stripped = remove_signer(params, agg, pub, priv, m_old)
    m_new = chained_message_scalar(params.suite, params.variant, list(old_chain) + [new_message])
    return agg_sign_with_randomness(params, stripped, m_new, pub, priv,
                                    *pks.signing_coins(params.suite, rng))

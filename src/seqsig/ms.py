"""Multi-signatures on a common message.

The message-hashing bases u, h live in the shared parameters rather than
per-signer keys, so a public key is a single GT element and individual
signatures on the same message combine by componentwise multiplication.
Verification of a combined signature costs the same six pairings as an
individual one. Both are a :class:`pks.Signature` of variant ``ms``
with no messages or signers, built by ``MsSignature(row1, row2)``.

``ms_combine`` checks N >= 2 shares as one small-exponent batch (Bellare,
Garay and Rabin, EUROCRYPT 1998), and one share by its own check. All
shares sign one message, so they meet the same verifier rows (V1', V2'),
and with c_i the low 128 bits of share i's coin t_i it checks

    e(prod_i row1_i^c_i, V1') * e(prod_i row2_i^c_i, V2')^-1 == prod_i Omega_i^c_i,

one 6-pair product and one GT multi-exponentiation for any N. It is sound
once the parameters' G2 rows, and so V1' and V2', lie in G2, where the
pairing is linear in its G1 argument, and every Omega lies in G_T. Then
it holds exactly when prod_i (L_i / Omega_i)^c_i = 1, with L_i the left
side of share i's own check, and a share j that fails its own check
passes for at most one residue of c_j mod r: at most about 2^-127. On
other inputs it is not sound: a twist point outside G2 breaks the
linearity, and Omegas that carry tau and 1/tau, for a cyclotomic tau
outside G_T, cancel whenever c_i = c_j mod the order of tau. So it runs
only on parameters and keys whose ``in_subgroups`` holds, asked once per
record. Otherwise, or when it fails, each share is checked on its own,
with the same rows and coins, and the first bad one is named: but for the
batch's error, the verdicts and errors are those of a loop of
:func:`ms_verify`.

Duplicate public keys in the verification list are accepted: nothing in
the combining algebra forbids them. Rogue keys are the certification
registry's job: the verifiers and ``ms_combine`` take its predicate as
``certified=`` and, after :func:`pks.check_rows`, refuse an uncertified key before any coin.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import pks
from .errors import InvalidAggregateError
from .groups import GroupSuite, Scalar, hash_to_scalar, multi_exp, random_scalar

_MSG_TAG = b"seqsig/ms/message"
_BATCH_MASK = (1 << 128) - 1  # a share's batching exponent: the low 128 bits of its coin


def MsSignature(row1, row2) -> pks.Signature:
    """The ms record, one form for individual and combined signatures."""
    return pks.Signature("ms", row1, row2)


def ms_setup(suite: GroupSuite, rng) -> pks.Params:
    """Public parameters: a pks2 key's rows, drawn without alpha, and lam = e(g, ghat)."""
    y_w, nu, phi1, phi2, *x_y_c = (random_scalar(suite, rng) for _ in range(9))
    e = pks.Pks2Exponents(y_w, nu, phi1, phi2, None, *x_y_c)
    return pks.Params(suite=suite, variant="ms", lam=suite.gt_gen,
                      **pks.rows_from_exponents(suite, "pks2", e))


def ms_keygen(params: pks.Params, rng) -> tuple[pks.PublicKey, pks.PrivateKey]:
    """:meth:`pks.Params.signer` on a drawn alpha; ``ValueError`` before it on non-ms params."""
    if params.variant != "ms":
        raise ValueError(f"{params.variant} parameters do not make ms keys")
    return params.signer(random_scalar(params.suite, rng))


def message_scalar(params: pks.Params, message: bytes) -> Scalar:
    return hash_to_scalar(params.suite, _MSG_TAG, message, width=pks.MESSAGE_WIDTH["ms"])


def ms_sign(params: pks.Params, message: bytes, sk: pks.PrivateKey, rng) -> pks.Signature:
    return ms_sign_scalar(params, message_scalar(params, message), sk, rng)


def ms_sign_scalar(params, m, sk, rng) -> pks.Signature:
    if sk.variant != "ms" or params.variant != "ms":
        raise ValueError(f"a {sk.variant} key on {params.variant} parameters signs no ms share")
    bases = tuple(u ** m * h for u, h in zip(params.u_row, params.h_row))
    return MsSignature(*pks.sign_rows(params.g_row, sk.alpha, bases, params.w_row,
                                      *pks.signing_coins(params.suite, rng)))


def ms_verify(sig: pks.Signature, message: bytes, pk: pks.PublicKey, params: pks.Params, rng, *,
              certified: Callable | None = None) -> bool:
    return ms_mult_verify(sig, message, [pk], params, rng, certified=certified)


def ms_combine(sigs: Sequence[pks.Signature], message: bytes, keys: Sequence[pks.PublicKey],
               params: pks.Params, rng, *, skip_individual_checks: bool = False,
               certified: Callable | None = None) -> pks.Signature:
    """Componentwise product of same-message signatures.

    Each input is verified first unless the caller vouches for a
    pre-verified batch via ``skip_individual_checks``. Either way, a share
    or key of another scheme, width or suite (:func:`pks.check_rows`), then
    a key that the ``certified`` predicate refuses, halts it before any coin.

    The checks draw one coin t per share, in order, whatever the verdict:
    the draws of a loop of :func:`ms_verify` over every share. The
    verifier rows are built once, on the first t, because 3-wide rows do
    not depend on t (:func:`pks.verifier_rows`). The shares are checked
    together, by one 6-pair product against prod_i Omega_i^c_i with c_i the
    low 128 bits of t_i (the module docstring gives the soundness argument:
    an error of at most about 2^-127). The batch runs only on parameters
    and keys whose ``in_subgroups`` holds, which each record asks once. If
    it fails, or may not run, each share is checked against its own key's
    Omega on the same rows, and the first that fails is named.
    One share is checked that way at once: its own check is one 6-pair
    product, with no gate and no folds.
    """
    if len(sigs) != len(keys):
        raise ValueError("signature and key lists must align")
    if not _admitted(sigs, keys, params, certified):
        raise InvalidAggregateError("an input signature's key is uncertified; halting")
    if not skip_individual_checks:
        coins = [pks.verifier_coins(params.suite, params.variant, rng)[0] for _ in sigs]
        rows = _verifier_rows(params, message_scalar(params, message), coins[0])
        if len(sigs) == 1 or not _batch_holds(sigs, keys, params, rows,
                                              [t & _BATCH_MASK for t in coins]):
            for i, (sig, pk) in enumerate(zip(sigs, keys)):
                if not pks.pairing_check(sig, *rows, pk.omega):
                    raise InvalidAggregateError(f"input signature {i} is invalid; halting")
    return MsSignature(tuple(pks.product(col) for col in zip(*(sig.row1 for sig in sigs))),
                       tuple(pks.product(col) for col in zip(*(sig.row2 for sig in sigs))))


def ms_mult_verify(msig: pks.Signature, message: bytes, keys: Sequence[pks.PublicKey],
                   params: pks.Params, rng, *, certified: Callable | None = None) -> bool:
    return ms_mult_verify_scalar(msig, message_scalar(params, message), keys, params, rng,
                                 certified=certified)


def ms_mult_verify_scalar(msig, m, keys, params, rng, *, certified=None) -> bool:
    """After the record check, False before any coin when ``certified`` refuses a key."""
    return _admitted([msig], keys, params, certified) and _pairing_check(
        msig, m, keys, params, pks.verifier_coins(params.suite, params.variant, rng)[0])


def ms_mult_verify_with_coins(msig, m, keys, params, t) -> bool:
    return _admitted([msig], keys, params) and _pairing_check(msig, m, keys, params, t)


def _admitted(sigs, keys, params, certified=None) -> bool:
    """The refusals of every ms call, in order and before any coin: ``ValueError``
    without keys, :func:`pks.check_rows`, then False unless ``certified`` accepts them."""
    if not keys:
        raise ValueError("an ms call needs at least one public key")
    pks.check_rows(params.variant, params.suite, sigs, keys)
    return certified is None or all(map(certified, keys))


def _pairing_check(msig, m, keys, params, t) -> bool:
    omega = pks.product([pk.omega for pk in keys])
    return pks.pairing_check(msig, *_verifier_rows(params, m, t), omega)


def _batch_holds(sigs, keys, params, rows, exps) -> bool:
    """The batch check of :func:`ms_combine` on the rows (V1', V2') with
    exponents ``exps``; False without a product unless the parameters and
    every key lie in their order-r subgroups (``in_subgroups``)."""
    if not (params.in_subgroups and all(pk.in_subgroups for pk in keys)):
        return False
    fold = lambda side: tuple(multi_exp(zip(col, exps)) for col in zip(*side))
    folded = MsSignature(fold(sig.row1 for sig in sigs), fold(sig.row2 for sig in sigs))
    return pks.pairing_check(folded, *rows, multi_exp(zip((pk.omega for pk in keys), exps)))


def _verifier_rows(params, m, t):
    """(V1', V2') for message scalar m: one (u_hat, h_hat, m) term on the
    parameters' rows and no randomization row."""
    return pks.verifier_rows(params.g_hat_row, None, [(params.u_hat_row, params.h_hat_row, m)], t)

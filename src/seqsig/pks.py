"""Single-signer signatures behind one variant-parameterized interface.

Three variants share the same verification skeleton (a fused pairing
product against Omega with fresh verifier coins):

* ``pks1`` — 8-element signatures, extra verifier randomization row.
* ``pks2`` — 6-element signatures, blinded generator rows in the public key.
* ``lw``   — 6-element reference variant whose public key omits the clear
  g, u, h (single-user only; no aggregation support).

The row core at the end of this module (``sign_rows``, ``verifier_rows``,
``pairing_check``, ``verify_rows``) signs and verifies for
:mod:`seqsig.sas` and :mod:`seqsig.ms` too, on their shared
:class:`Signature` record.

Where the coin t lives: the paper raises the verifier's G2 rows to t,
V = (V')^t, and checks e(row1, V1) * e(row2, V2)^-1 == Omega^t. The left
side is (e(row1, V1') * e(row2, V2')^-1)^t, and t is nonzero in the
prime-order group GT, so the check holds exactly when the t-free product
equals Omega; that is the one this module computes. The G2 rows V' need no
t and each signer adds one multi-exponentiation term per slot. The 4-wide
variants keep t in their randomization row, through s1/t and s2/t, so for
given coins every verdict is the paper's. ``verification_components``
still returns the paper-form rows.

Randomness always flows through the supplied rng; the ``*_from_exponents``
and ``*_with_randomness`` builders make every transcript reproducible for
the oracle tests.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from dataclasses import dataclass
from itertools import islice, zip_longest

from .errors import CrossSuiteError, KeyMismatchError, MalformedEncodingError, MissingWitnessError
from .groups import (
    G1Elem,
    G2Elem,
    GroupSuite,
    GTElem,
    Scalar,
    encode_element,
    has_order_r,
    hash_to_scalar,
    multi_exp,
    pair,
    pairing_product,
    random_nonzero_scalar,
    random_scalar,
)

VARIANTS = ("pks1", "pks2", "lw")

# The width of the two G1 rows of every scheme's signatures, aggregates and
# multi-signatures; it does not grow with the number of signers.
ROW_WIDTH = {"pks1": 4, "sas1": 4, "pks2": 3, "lw": 3, "sas2": 3, "ms": 3}
MESSAGE_WIDTH = {"pks1": "reduced", "sas1": "reduced", "pks2": "full", "lw": "reduced",
                 "sas2": "full", "ms": "full"}  # the hash_to_scalar width of messages
_MSG_TAG = b"seqsig/pks/message"

# The row fields of every key and parameter set, in element order: four G1
# rows, then four G2 rows. A GT element follows them.
_ROW_FIELDS = ("g_row", "u_row", "h_row", "w_row",
               "g_hat_row", "u_hat_row", "h_hat_row", "v_hat_row")
_ROW_KINDS = ("g1",) * 4 + ("g2",) * 4


@dataclass(frozen=True, kw_only=True)
class _Rows:
    """The one row order of every key and parameter set; see :class:`PublicKey`.

    A subclass's ``WIDTHS`` maps each variant to nine ints: the width of each
    row in field order (0 for a row the variant lacks, which keeps its
    default ``()``), then 1 or 0 for whether it has the GT element that its
    ``GT_FIELD`` names. The table fixes the element order, and so key ids
    and envelope bytes, and the kinds a decoder reads.
    """

    suite: GroupSuite
    variant: str
    g_row: tuple[G1Elem, ...] = ()  # (g,), or the blinded row g*w1^cg, w2^cg, w^cg
    u_row: tuple[G1Elem, ...] = ()  # (u,) with u = g^x, or the blinded u row
    h_row: tuple[G1Elem, ...] = ()  # (h,) with h = g^y, or the blinded h row
    w_row: tuple[G1Elem, ...] = ()  # w^phi1, w^phi2, w^phi3, w; or w1, w2, w
    g_hat_row: tuple[G2Elem, ...] = ()  # ghat, ghat^nu1, ..., ghat^-tau
    u_hat_row: tuple[G2Elem, ...] = ()  # g_hat_row^x
    h_hat_row: tuple[G2Elem, ...] = ()  # g_hat_row^y
    v_hat_row: tuple[G2Elem, ...] = ()  # vhat, vhat^nu3, vhat^-pi (4-wide only)

    def elements(self) -> list:
        *widths, gt = self.WIDTHS[self.variant]
        out = [e for name, w in zip(_ROW_FIELDS, widths) if w for e in getattr(self, name)]
        return out + [getattr(self, self.GT_FIELD)] * gt

    @classmethod
    def element_kinds(cls, variant: str) -> tuple[str, ...]:
        *widths, gt = cls.WIDTHS[variant]
        return tuple(k for k, w in zip(_ROW_KINDS, widths) for _ in range(w)) + ("gt",) * gt

    @classmethod
    def from_elements(cls, suite: GroupSuite, variant: str, elems):
        *widths, gt = cls.WIDTHS[variant]
        it = iter(elems)
        rows = {name: tuple(islice(it, w)) for name, w in zip(_ROW_FIELDS, widths)}
        if gt:
            rows[cls.GT_FIELD] = next(it)
        return cls(suite=suite, variant=variant, **rows)

    @functools.cached_property
    def in_subgroups(self) -> bool:
        """Whether every element has order r, asked once per record (as
        ``dataclasses.replace`` makes a new one): ``ms_combine``'s gate."""
        return all(map(has_order_r, self.elements()))


@dataclass(frozen=True, kw_only=True)
class PublicKey(_Rows):
    """A signer's public key in every scheme: the rows its variant publishes,
    then Omega = e(g, ghat)^alpha.

    All six schemes take their rows from one dual-system construction, so a
    key is a subsequence of one row order. sas keys leave the shared rows to
    the parameters, and ms keys leave every row to them.
    """

    #         g  u  h  w  ĝ  û  ĥ  v̂  Ω
    WIDTHS = {
        "pks1": (1, 1, 1, 4, 4, 4, 4, 3, 1),
        "pks2": (3, 3, 3, 3, 3, 3, 3, 0, 1),
        "lw":   (0, 0, 0, 3, 3, 3, 3, 0, 1),
        "sas1": (0, 1, 1, 0, 0, 4, 4, 0, 1),
        "sas2": (0, 3, 3, 0, 0, 3, 3, 0, 1),
        "ms":   (0, 0, 0, 0, 0, 0, 0, 0, 1),
    }
    GT_FIELD = "omega"
    omega: GTElem

    @functools.cached_property
    def key_id(self) -> bytes:
        """SHA-256 of the key's elements, hashed once per key."""
        return hashlib.sha256(b"".join(encode_element(e) for e in self.elements())).digest()


@dataclass(frozen=True, kw_only=True)
class Params(_Rows):
    """The shared parameters of sas and ms, in the row order of
    :class:`PublicKey`, then Lambda = e(g, ghat); sas1 signers pair the
    clear g, so its ``lam`` is None. Exactly these schemes register keys."""

    #         g  u  h  w  ĝ  û  ĥ  v̂  Λ
    WIDTHS = {
        "sas1": (1, 0, 0, 4, 4, 0, 0, 3, 0),
        "sas2": (3, 0, 0, 3, 3, 0, 0, 0, 1),
        "ms":   (3, 3, 3, 3, 3, 3, 3, 0, 1),
    }
    GT_FIELD = "lam"
    lam: GTElem | None = None

    @functools.cached_property
    def omega_base(self) -> GTElem:
        """The one base of every sas and ms signer's Omega = base^alpha:
        ``lam``, or for sas1 e(g_row[0], g_hat_row[0]) on these parameters'
        own rows, paired once per object."""
        return self.lam if self.lam is not None else pair(self.g_row[0], self.g_hat_row[0])

    def signer(self, alpha, x=None, y=None, c_u=None, c_h=None):
        """(PublicKey, PrivateKey) of the sas or ms signer with these secrets:
        the one builder of their keys, and the registry's rebuild. sas1 takes
        its u and h rows from the clear g, sas2 blinds them by c_u and c_h,
        and an ms key has only Omega = ``omega_base``^alpha."""
        rows = {}
        if self.variant == "sas1":
            rows = dict(u_row=(self.g_row[0] ** x,), h_row=(self.g_row[0] ** y,))
        elif self.variant == "sas2":
            if c_u is None or c_h is None:
                raise MissingWitnessError("sas2 keys require the c_u and c_h blinding witnesses")
            row = lambda s, c: tuple(a ** s * w ** c for a, w in zip(self.g_row, self.w_row))
            rows = dict(u_row=row(x, c_u), h_row=row(y, c_h))
        if rows:
            rows.update(u_hat_row=row_pow(self.g_hat_row, x), h_hat_row=row_pow(self.g_hat_row, y))
        pub = PublicKey(suite=self.suite, variant=self.variant, omega=self.omega_base ** alpha,
                        **rows)
        return pub, PrivateKey(self.variant, alpha, x, y, c_u, c_h, key_id(pub))


@dataclass(frozen=True)
class PrivateKey:
    """The held scalars of a pks, sas or ms signer; the ones a variant lacks are None.

    pks and sas keys hold alpha, x and y (pks2/lw rebuild the clear u and h
    from x and y); sas2 keys add the blinding witnesses c_u and c_h; ms keys
    hold alpha alone. The key registry takes this record as the witness.
    """

    variant: str
    alpha: Scalar
    x: Scalar | None = None
    y: Scalar | None = None
    c_u: Scalar | None = None
    c_h: Scalar | None = None
    pk_id: bytes = b""


@dataclass(frozen=True)
class Signature:
    """A pks signature, sas aggregate or ms multi-signature: two G1 rows, each
    ``ROW_WIDTH[variant]`` wide. Only an aggregate fills ``messages`` and
    ``signers``, one per signer in signing order; :func:`check_rows` checks
    it against the scheme and suite of the key or parameters of a call."""

    variant: str
    row1: tuple[G1Elem, ...]
    row2: tuple[G1Elem, ...]
    messages: tuple[Scalar, ...] = ()
    signers: tuple[PublicKey, ...] = ()

    @property
    def length(self) -> int:
        return len(self.messages)

    def elements(self) -> list:
        return list(self.row1) + list(self.row2)


def check_rows(variant: str, suite: GroupSuite, sigs=(), keys=()):
    """The one record check, asked once per public call before any coin, on the
    scheme and suite of the call's key or parameters: ``MalformedEncodingError``
    unless each of ``sigs`` is a ``variant`` record of its width with as many
    messages as signers, and each signer it lists and key in ``keys`` is a
    ``variant`` key; then ``CrossSuiteError`` unless all are of ``suite``."""
    keys = [*(pk for sig in sigs for pk in sig.signers), *keys]
    for sig in sigs:
        if sig.variant != variant:
            raise MalformedEncodingError(f"{sig.variant} signature does not match variant {variant}")
        if not len(sig.row1) == len(sig.row2) == ROW_WIDTH[variant]:
            raise MalformedEncodingError(f"signature width {len(sig.row1)}/{len(sig.row2)}"
                                         f" does not match variant {variant}")
        if len(sig.messages) != len(sig.signers):
            raise MalformedEncodingError("message and signer lists differ in length")
    if any(pk.variant != variant for pk in keys):
        raise MalformedEncodingError(f"a key of another scheme than {variant}")
    if any(x.suite is not suite for x in [*keys, *(e for sig in sigs for e in sig.elements())]):
        raise CrossSuiteError("a signature or key of another suite than the call's")


def key_id(pk) -> bytes:
    """Stable identifier: hash of the canonical public-key encoding."""
    return pk.key_id


@dataclass(frozen=True)
class Pks1Exponents:
    y_w: Scalar
    y_v: Scalar
    nu1: Scalar
    nu2: Scalar
    nu3: Scalar
    phi1: Scalar
    phi2: Scalar
    phi3: Scalar
    alpha: Scalar
    x: Scalar
    y: Scalar


@dataclass(frozen=True)
class Pks2Exponents:
    y_w: Scalar
    nu: Scalar
    phi1: Scalar
    phi2: Scalar
    alpha: Scalar
    x: Scalar
    y: Scalar
    c_g: Scalar = 0
    c_u: Scalar = 0
    c_h: Scalar = 0


def keygen(suite: GroupSuite, variant: str, rng):
    """Draw a fresh key pair. Returns (public_key, private_key)."""
    return keygen_from_exponents(suite, variant, _draw_exponents(suite, variant, rng))


def _draw_exponents(suite, variant, rng):
    r = lambda: random_scalar(suite, rng)
    if variant == "pks1":
        return Pks1Exponents(r(), r(), r(), r(), r(), r(), r(), r(), r(), r(), r())
    if variant == "pks2":
        return Pks2Exponents(r(), r(), r(), r(), r(), r(), r(), r(), r(), r())
    if variant == "lw":
        return Pks2Exponents(r(), r(), r(), r(), r(), r(), r())
    raise ValueError(f"unknown variant {variant!r}")


def keygen_from_exponents(suite: GroupSuite, variant: str, e):
    pk = PublicKey(suite=suite, variant=variant, **rows_from_exponents(suite, variant, e),
                   omega=suite.gt_gen ** e.alpha)
    return pk, PrivateKey(variant, e.alpha, e.x, e.y, pk_id=key_id(pk))


def rows_from_exponents(suite: GroupSuite, variant: str, e) -> dict:
    """A pks1, pks2 or lw key's rows on the exponents ``e``: all but Omega, so no alpha."""
    g = suite.g
    if variant == "pks1":
        w_row, g_hat_row, v_hat_row = param_rows4(
            suite, e.y_w, e.y_v, e.nu1, e.nu2, e.nu3, e.phi1, e.phi2, e.phi3)
        rows = dict(g_row=(g,), u_row=(g ** e.x,), h_row=(g ** e.y,), v_hat_row=v_hat_row)
    elif variant in ("pks2", "lw"):
        w_row, g_hat_row = param_rows3(suite, e.y_w, e.nu, e.phi1, e.phi2)
        rows = {} if variant == "lw" else dict(
            g_row=blind(g, w_row, e.c_g), u_row=blind(g ** e.x, w_row, e.c_u),
            h_row=blind(g ** e.y, w_row, e.c_h))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return dict(rows, w_row=w_row, g_hat_row=g_hat_row,
                u_hat_row=row_pow(g_hat_row, e.x), h_hat_row=row_pow(g_hat_row, e.y))


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")


def message_scalar(suite: GroupSuite, variant: str, message: bytes) -> Scalar:
    _check_variant(variant)
    return hash_to_scalar(suite, _MSG_TAG, message, width=MESSAGE_WIDTH[variant])


def sign(variant: str, message: bytes, sk: PrivateKey, pk, rng) -> Signature:
    return sign_scalar(variant, message_scalar(pk.suite, variant, message), sk, pk, rng)


def sign_scalar(variant: str, m: Scalar, sk: PrivateKey, pk, rng) -> Signature:
    if sk.pk_id != key_id(pk):
        raise KeyMismatchError("private key does not belong to this public key")
    return sign_with_randomness(variant, m, sk, pk, *signing_coins(pk.suite, rng))


def sign_with_randomness(variant: str, m: Scalar, sk: PrivateKey, pk, r, c1, c2) -> Signature:
    _check_variant(variant)
    if pk.variant != variant:
        raise ValueError(f"a {pk.variant} key does not make {variant} signatures")
    g = pk.suite.g
    # the message base u^m * h = g^(x*m + y), from the held x and y: pks2 and
    # lw publish u and h only blinded
    row1, row2 = sign_rows((g,), sk.alpha, (g ** (sk.x * m + sk.y),), pk.w_row, r, c1, c2)
    return Signature(variant, row1, row2)


def _key_rows(variant: str, pk, m: Scalar, sigs=()):
    """(g_hat_row, v_hat_row, terms) of a key for the row core, once :func:`check_rows` passes."""
    _check_variant(variant)
    check_rows(variant, pk.suite, sigs, [pk])
    return pk.g_hat_row, pk.v_hat_row, [(pk.u_hat_row, pk.h_hat_row, m)]


def verification_components(variant: str, pk, m: Scalar, t: Scalar, s1: Scalar = 0, s2: Scalar = 0):
    """The verifier's rows (V1, V2) in the paper's form (coin t on G2) for given coins."""
    v1, v2 = verifier_rows(*_key_rows(variant, pk, m), t, s1, s2)
    return tuple(v ** t for v in v1), tuple(v ** t for v in v2)


# -- Key and parameter rows, shared with sas and ms -------------------------
#
# Every scheme's public rows come from one dual-system construction: a G1
# row w_row and a G2 row g_hat_row with prod_k e(w_row[k], g_hat_row[k]) = 1,
# so the w_row terms that blind signatures and keys vanish in verification.
# pks1 and sas1 use the 4-wide rows (plus the randomization row v_hat_row);
# pks2, lw, sas2 and ms use the 3-wide ones.


def _orthogonal_row(base, nus, phis):
    """(base, base^nu_1, ..., base^-tau) with tau = phi_1 + sum_i nu_i * phi_(i+1),
    the G2 row that pairs to one against (w^phi_1, ..., w^phi_n, w)."""
    order = base.suite.order
    tau = (phis[0] + sum(nu * phi for nu, phi in zip(nus, phis[1:]))) % order
    return (base,) + tuple(base ** nu for nu in nus) + (base ** (-tau % order),)


def param_rows4(suite: GroupSuite, y_w, y_v, nu1, nu2, nu3, phi1, phi2, phi3):
    """(w_row, g_hat_row, v_hat_row) of pks1 and sas1, with w = g^y_w, vhat = ghat^y_v."""
    w = suite.g ** y_w
    return ((w ** phi1, w ** phi2, w ** phi3, w),
            _orthogonal_row(suite.g_hat, (nu1, nu2), (phi1, phi2, phi3)),
            _orthogonal_row(suite.g_hat ** y_v, (nu3,), (phi2, phi3)))


def param_rows3(suite: GroupSuite, y_w, nu, phi1, phi2):
    """(w_row, g_hat_row) of pks2, lw, sas2 and ms, with w = g^y_w."""
    w = suite.g ** y_w
    return (w ** phi1, w ** phi2, w), _orthogonal_row(suite.g_hat, (nu,), (phi1, phi2))


def blind(base, w_row, c):
    """The blinded G1 row (base * w_row[0]^c, w_row[1]^c, ..., w_row[-1]^c)."""
    return (base * w_row[0] ** c,) + row_pow(w_row[1:], c)


def row_pow(row, k):
    """The row raised to k element by element, e.g. a signer's u_hat_row = g_hat_row^x."""
    return tuple(e ** k for e in row)


# -- Row core, shared with sas and ms --------------------------------------
#
# A signature is two G1 rows checked against two G2 rows. pks is the
# one-signer case of sas, and ms is one (u, h, m) term under many keys, so
# signing and verification for all three are written here once, and so are
# the draws of their coins.


def signing_coins(suite: GroupSuite, rng):
    """A signer's coins (r, c1, c2) for :func:`sign_rows`, drawn in that order."""
    return random_scalar(suite, rng), random_scalar(suite, rng), random_scalar(suite, rng)


def verifier_coins(suite: GroupSuite, variant: str, rng):
    """A verifier's coins (t, s1, s2) for :func:`verify_rows`: t is nonzero,
    and s1, s2 are drawn only for the 4-wide variants, which have a
    randomization row (0 otherwise)."""
    t = random_nonzero_scalar(suite, rng)
    if ROW_WIDTH[variant] == 4:
        return t, random_scalar(suite, rng), random_scalar(suite, rng)
    return t, 0, 0


def product(elems):
    """Group product of a nonempty sequence, starting from its first element."""
    return functools.reduce(operator.mul, elems)


def sign_rows(alpha_row, alpha, msg_row, w_row, r, c1, c2, prev=None, d=0):
    """Append one signer to the rows ``prev`` = (row1, row2); None signs afresh.

    With a = alpha_row[k] and b = msg_row[k] (both absent past the slots
    that carry them), slot k of the result is

        row1[k] = prev1[k] * prev2[k]^d * a^alpha * b^r * w_row[k]^c1
        row2[k] = prev2[k] * a^r * w_row[k]^c2

    and each of the two is one multi-exponentiation times the prev entry.
    """
    row1, row2 = [], []
    for k, (w, a, b) in enumerate(zip_longest(w_row, alpha_row, msg_row)):
        items1, items2 = [(w, c1)], [(w, c2)]
        if a is not None:
            items1 += [(a, alpha), (b, r)]
            items2.append((a, r))
        if prev is None:
            row1.append(multi_exp(items1))
            row2.append(multi_exp(items2))
        else:
            items1.append((prev[1][k], d))
            row1.append(prev[0][k] * multi_exp(items1))
            row2.append(prev[1][k] * multi_exp(items2))
    return tuple(row1), tuple(row2)


def coin_inverse(t: Scalar, order: int) -> Scalar:
    """1/t mod ``order``; a verifier coin t = 0 would accept any signature: ``ValueError``."""
    if t % order == 0:
        raise ValueError("verifier coin t must be nonzero mod the group order")
    return pow(t, -1, order)


def verifier_rows(g_hat_row, v_hat_row, terms, t: Scalar, s1: Scalar = 0, s2: Scalar = 0):
    """The verifier's G2 rows (V1', V2') for coins (t, s1, s2), t left out.

    The paper's rows are V = (V')^t, and :func:`verify_rows` checks the
    pairing product on V' against Omega instead of V against Omega^t, so
    here V1'_k = g_hat_row[k] and

        V2'_k = prod_i u_hat_ik^m_i * prod_i h_hat_ik

    over the ``terms``, one (u_hat_row, h_hat_row, m) per signer: one
    multi-exponentiation term per signer and slot, plus plain products.
    ``v_hat_row`` is the randomization row of the 4-wide variants (empty or
    None for 3-wide ones); its entry k - 1 joins slot k >= 1 of V1' with exponent
    s1/t and of V2' with exponent s2/t; t must be nonzero (:func:`coin_inverse`).
    """
    t_inv = coin_inverse(t, g_hat_row[0].suite.order)
    v1, v2 = [], []
    for k, g_hat in enumerate(g_hat_row):
        items = [(u[k], m) for u, _, m in terms]
        if v_hat_row and k > 0:
            g_hat = g_hat * v_hat_row[k - 1] ** (s1 * t_inv)
            items.append((v_hat_row[k - 1], s2 * t_inv))
        v1.append(g_hat)
        v2.append(product([multi_exp(items)] + [h[k] for _, h, _ in terms]))
    return tuple(v1), tuple(v2)


def verify_rows(sig, g_hat_row, v_hat_row, terms, omega: GTElem, t: Scalar,
                s1: Scalar = 0, s2: Scalar = 0) -> bool:
    """The verification of pks, sas and ms: with (V1', V2') from
    :func:`verifier_rows`, e(row1, V1') * e(row2, V2')^-1 == omega.

    The paper's check is this one raised to t (its rows are V = (V')^t,
    its right side omega^t); t is nonzero and GT has prime order, so for
    the same coins both give the same verdict, with the same pairings.
    """
    return pairing_check(sig, *verifier_rows(g_hat_row, v_hat_row, terms, t, s1, s2), omega)


def pairing_check(sig, v1, v2, omega: GTElem) -> bool:
    """e(row1, V1') * e(row2, V2')^-1 == omega, on the rows (V1', V2') of
    :func:`verifier_rows`."""
    return pairing_product(zip(sig.row1, v1), zip(sig.row2, v2)) == omega


def verify(variant: str, sig: Signature, message: bytes, pk, rng) -> bool:
    return verify_scalar(variant, sig, message_scalar(pk.suite, variant, message), pk, rng)


def verify_scalar(variant: str, sig: Signature, m: Scalar, pk, rng) -> bool:
    rows = _key_rows(variant, pk, m, [sig])  # before the coins
    return verify_rows(sig, *rows, pk.omega, *verifier_coins(pk.suite, variant, rng))


def verify_with_coins(variant: str, sig: Signature, m: Scalar, pk, t, s1=0, s2=0) -> bool:
    return verify_rows(sig, *_key_rows(variant, pk, m, [sig]), pk.omega, t, s1, s2)

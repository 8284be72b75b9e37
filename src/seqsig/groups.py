"""Asymmetric bilinear group abstraction with two interchangeable backends.

A :class:`GroupSuite` bundles the three groups (G, Ghat, GT), their
generators, e(g, ghat), and one count of the work done on them
(``GroupSuite.counts``). Two backends implement the same handle-level
interface:

* ``real`` — BN254, a Type-3 pairing curve (see :mod:`seqsig.bn254`).
* ``mock`` — a discrete-log toy group of small prime order where every
  element is stored as its exponent and the pairing is multiplication
  mod p. Zero security, exact transparency: any verification equation can
  be checked directly on exponents.

All scheme code is written against this layer only, so a straight-line
program gives identical truth values on both backends for the same
exponent stream.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
import threading
from collections import Counter
from dataclasses import dataclass, field

from . import bn254
from .errors import CrossSuiteError, MalformedEncodingError, SubgroupMembershipError

Scalar = int  # always reduced mod the suite order


class MockDlogBackend:
    """Transparent group: handles are exponents, pair(a, b) = a*b mod p."""

    name = "mock"

    def __init__(self, order: int):
        if not 101 <= order < 1 << 32:
            raise ValueError("mock group order must lie in [101, 2^32): elements are 4 bytes")
        # trial division, at most 65535 divisors below 2^32
        if not all(order % d for d in range(2, math.isqrt(order) + 1)):
            raise ValueError(f"mock group order must be prime, got {order}")
        self.order = order

    def generator(self, kind):
        return 1

    def identity(self, kind):
        return 0

    def op(self, kind, h1, h2):
        return (h1 + h2) % self.order

    def exp(self, kind, h, k):
        return h * k % self.order

    def inv(self, kind, h):
        return -h % self.order

    def multi_exp(self, kind, pairs):
        return sum(h * k for h, k in pairs) % self.order

    def table(self, kind, h):
        return h  # an exponent needs no table

    def has_order_r(self, kind, h):
        return True  # the group has prime order

    def lines(self, hs):
        return list(hs)  # nor lines

    def pair_product_raw(self, pairs):
        return sum(h1 * h2 for h1, h2 in pairs) % self.order  # a G2 handle is its own lines

    def encode(self, kind, h):
        return struct.pack(">I", h)

    def decode(self, kind, data):
        if len(data) != 4:
            raise MalformedEncodingError(f"mock element must be 4 bytes, got {len(data)}")
        value = struct.unpack(">I", data)[0]
        if value >= self.order:
            raise MalformedEncodingError(f"mock exponent {value} not reduced mod {self.order}")
        return value

    def encoded_size(self, kind):
        return 4

    def reduced_hash_bound(self):
        return self.order // 4


class Bn254Backend:
    """BN254 Type-3 curve; G1/G2 handles are affine points (None = identity),
    GT handles are flat tuples of twelve Fp ints in encoding order."""

    name = "real"
    order = bn254.ORDER

    def generator(self, kind):
        return bn254.G1_GEN if kind == "g1" else bn254.G2_GEN

    def identity(self, kind):
        if kind == "gt":
            return bn254.FQ12_ONE
        return None

    def op(self, kind, h1, h2):
        if kind == "g1":
            return bn254.g1_add(h1, h2)
        if kind == "g2":
            return bn254.g2_add(h1, h2)
        return bn254.fq12_mul(h1, h2)

    def exp(self, kind, h, k):
        if kind == "g1":
            return bn254.g1_mul(h, k)
        if kind == "g2":
            return bn254.g2_mul(h, k)
        return bn254.gt_pow(h, k)

    def inv(self, kind, h):
        if kind == "g1":
            return bn254.g1_neg(h)
        if kind == "g2":
            return bn254.g2_neg(h)
        return bn254.fq12_conj(h)  # inverts only cyclotomic elements, as GT's are

    def multi_exp(self, kind, pairs):
        return {"g1": bn254.g1_multi_exp, "g2": bn254.g2_multi_exp,
                "gt": bn254.gt_multi_exp}[kind](pairs)

    def table(self, kind, h):
        """A G1 or G2 handle's cached table, which ``multi_exp`` takes in place of it."""
        return {"g1": bn254.g1_table, "g2": bn254.g2_table}[kind](h)

    def has_order_r(self, kind, h):
        """Exactly whether h lies in its group's order-r subgroup. E(Fp) has
        prime order r, so every G1 handle, a point on the curve, does; a G2
        handle takes :func:`bn254.g2_in_subgroup`, a GT one
        :func:`bn254.gt_has_order_r`."""
        if kind == "g1":
            return True
        return bn254.g2_in_subgroup(h) if kind == "g2" else bn254.gt_has_order_r(h)

    def lines(self, hs):
        """The Miller-loop lines of each G2 handle of hs, none the identity,
        built together (:func:`bn254.g2_lines`); ``pair_product_raw`` takes
        them in place of the handles."""
        return bn254.g2_lines(hs)

    def pair_product_raw(self, pairs):
        """prod e(P, Q) over (P, lines of Q) pairs, neither side the identity."""
        return bn254.final_exponentiation(bn254.miller_loop_product(pairs))

    def encode(self, kind, h):
        if kind == "g1":
            if h is None:
                return (1 << 255).to_bytes(32, "big")
            x, y = h
            return (x | ((y & 1) << 254)).to_bytes(32, "big")
        if kind == "g2":
            if h is None:
                return bytes([0x80]) + bytes(63)
            (x0, x1), y = h
            parity = (y[0] & 1) if y[0] != 0 else (y[1] & 1)
            return (x0 | (parity << 510) | (x1 << 255)).to_bytes(64, "big")
        return b"".join(c.to_bytes(32, "big") for c in h)

    def decode(self, kind, data):
        if kind == "g1":
            if len(data) != 32:
                raise MalformedEncodingError("G1 encoding must be 32 bytes")
            raw = int.from_bytes(data, "big")
            if raw >> 255:
                if raw != 1 << 255:
                    raise MalformedEncodingError("non-canonical G1 identity encoding")
                return None
            parity = (raw >> 254) & 1
            x = raw & ((1 << 254) - 1)
            if x >= bn254.P:
                raise MalformedEncodingError("G1 x-coordinate out of field range")
            y = self._sqrt_fp((x * x * x + bn254.B) % bn254.P)
            if y is None:
                raise SubgroupMembershipError("G1 x-coordinate is not on the curve")
            if y & 1 != parity:
                y = bn254.P - y
            return (x, y)
        if kind == "g2":
            if len(data) != 64:
                raise MalformedEncodingError("G2 encoding must be 64 bytes")
            raw = int.from_bytes(data, "big")
            if raw >> 511:
                if raw != 1 << 511:
                    raise MalformedEncodingError("non-canonical G2 identity encoding")
                return None
            parity = (raw >> 510) & 1
            x1 = (raw >> 255) & ((1 << 255) - 1)
            x0 = raw & ((1 << 255) - 1)
            if x0 >= bn254.P or x1 >= bn254.P:
                raise MalformedEncodingError("G2 coordinate out of field range")
            x = (x0, x1)
            rhs = bn254.fq2_add(bn254.fq2_mul(bn254.fq2_sqr(x), x), bn254.B2)
            y = self._sqrt_fq2(rhs)
            if y is None:
                raise SubgroupMembershipError("G2 x-coordinate is not on the twist")
            got = (y[0] & 1) if y[0] != 0 else (y[1] & 1)
            if got != parity:
                y = bn254.fq2_neg(y)
            # on the twist, not yet order r: a point outside G2 still decodes;
            # has_order_r decides membership where a caller relies on it
            return (x, y)
        if len(data) != 384:
            raise MalformedEncodingError("GT encoding must be 384 bytes")
        h = tuple(int.from_bytes(data[i * 32:(i + 1) * 32], "big") for i in range(12))
        if any(c >= bn254.P for c in h):
            raise MalformedEncodingError("GT coefficient out of field range")
        # cyclotomic, not yet order r: a cyclotomic element outside G_T still
        # decodes (has_order_r is exact)
        if not bn254.fq12_is_cyclotomic(h):
            raise SubgroupMembershipError("GT element is outside the cyclotomic subgroup")
        return h

    def encoded_size(self, kind):
        return {"g1": 32, "g2": 64, "gt": 384}[kind]

    def reduced_hash_bound(self):
        return 1 << (bn254.ORDER.bit_length() - 2)

    @staticmethod
    def _sqrt_fp(a):
        # P = 3 mod 4
        r = pow(a, (bn254.P + 1) // 4, bn254.P)
        return r if r * r % bn254.P == a else None

    @classmethod
    def _sqrt_fq2(cls, a):
        """A root of a = a0 + a1*u in Fp2, None if a is not a square, in two
        Fp exponentiations (Adj and Rodriguez-Henriquez, "Square root
        computation over even extension fields", IEEE Trans. Computers
        2014). With lam^2 = a0^2 + a1^2 and delta = (a0 + lam)/2, let s =
        delta^((p+1)/4). If s^2 = delta the root is (s, a1/(2s)); otherwise
        s^2 = -delta, because delta * (a0 - lam)/2 = -a1^2/4 is a non-square
        for a1 != 0, and the root is (a1/(2s), s). A real a takes delta = a0
        and one exponentiation the same way. An a whose norm is not a square
        in Fp is not a square in Fp2, and ends after the first."""
        a0, a1 = a
        if a1:
            norm = (a0 * a0 + a1 * a1) % bn254.P
            lam = pow(norm, (bn254.P + 1) // 4, bn254.P)
            if lam * lam % bn254.P != norm:
                return None
            delta = (a0 + lam) * ((bn254.P + 1) // 2) % bn254.P
        else:
            delta = a0
        s = pow(delta, (bn254.P + 1) // 4, bn254.P)
        t = a1 * pow(2 * s, -1, bn254.P) % bn254.P if a1 else 0
        res = (s, t) if s * s % bn254.P == delta else (t, s)
        return res if bn254.fq2_sqr(res) == a else None


def _third_use(elem):
    """``elem``'s table, None before the element's third use of it; on that
    use the backend builds it, counted under ``tables_built``, if
    :func:`has_order_r` holds. A G2 table's terms are split by psi, which is
    exact only on G2, so an element outside it is never tabled and every
    use of it stays exact."""
    if elem._table is None:
        elem._uses += 1
        if elem._uses == 3 and has_order_r(elem):
            elem._table = elem.suite.backend.table(elem.kind, elem.h)
            elem.suite._count({"tables_built": 1})
    return elem._table


class _Elem:
    """Immutable group element bound to its suite; multiplicative notation.

    ``_table`` holds the backend's table of ``h`` for :func:`multi_exp` and
    ``**``, None until the third use in that function (``_uses`` counts
    them) builds it: an element that a key or parameter set holds pays for
    it once, while a fresh one, the identity and the bases of one signature
    (two uses each) never do, and an element outside its group's order-r
    subgroup never does (:func:`_third_use`). ``_lines``
    holds a G2 element's lines for :func:`pairing_product`, None until its
    first product builds them; the Miller loop runs on lines only, so that
    product needs them anyway, and keeping them costs no extra arithmetic,
    only the memory of the lines for as long as the element lives, and
    later products reuse them.
    ``_order_r`` memoizes :func:`has_order_r`, None until it is asked; the
    table's build and ``ms_combine``'s batch read the same verdict.
    Two threads racing on one element can both build a cache; either one is
    correct."""

    __slots__ = ("suite", "h", "_uses", "_table", "_lines", "_order_r")
    kind = None

    def __init__(self, suite, h):
        self.suite = suite
        self.h = h
        self._uses = 0
        self._table = None
        self._lines = None
        self._order_r = None

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.suite is not self.suite:
            raise CrossSuiteError("elements belong to different suites")

    def __mul__(self, other):
        self._check(other)
        return type(self)(self.suite, self.suite.backend.op(self.kind, self.h, other.h))

    def __truediv__(self, other):
        self._check(other)
        return type(self)(
            self.suite,
            self.suite.backend.op(self.kind, self.h, self.suite.backend.inv(self.kind, other.h)),
        )

    def __pow__(self, k: int):
        self.suite._count({self.kind: 1})
        h = self.h if self._table is None else self._table
        return type(self)(self.suite, self.suite.backend.exp(self.kind, h, k % self.suite.order))

    def __eq__(self, other):
        if type(other) is not type(self) or other.suite is not self.suite:
            return NotImplemented
        return self.h == other.h

    def __hash__(self):
        return hash((self.kind, encode_element(self)))

    def is_identity(self):
        return self.h == self.suite.backend.identity(self.kind)

    def __repr__(self):
        return f"{type(self).__name__}({encode_element(self).hex()})"


class G1Elem(_Elem):
    __slots__ = ()
    kind = "g1"


class G2Elem(_Elem):
    __slots__ = ()
    kind = "g2"


class GTElem(_Elem):
    __slots__ = ()
    kind = "gt"


_KIND_CLS = {"g1": G1Elem, "g2": G2Elem, "gt": GTElem}


@dataclass
class GroupSuite:
    """Type-3 pairing context, immutable apart from ``counts``: single
    exponentiations (``g1``, ``g2``, ``gt``), :func:`multi_exp` terms past
    the identity skip (``msm.g1``, ``msm.g2``, ``msm.gt``), the tables
    built and terms served from one (``tables_built``, ``table_terms``) and
    pairings (``pairings``). Lines are not counted: every pair that the Miller loop
    runs is on lines, so ``pairings`` already shows them. A key
    is present once positive."""

    backend: object
    g: G1Elem = field(init=False)
    g_hat: G2Elem = field(init=False)

    def __post_init__(self):
        self.g = G1Elem(self, self.backend.generator("g1"))
        self.g_hat = G2Elem(self, self.backend.generator("g2"))
        self.order = self.backend.order
        self.counts = Counter()
        self._lock = threading.Lock()

    @property
    def pairing_count(self) -> int:
        return self.counts["pairings"]

    def _count(self, tally: dict):
        with self._lock:
            for key, n in tally.items():
                if n:
                    self.counts[key] += n

    @functools.cached_property
    def gt_gen(self) -> "GTElem":
        """e(g, ghat): the Lambda of sas2 and ms parameters and the base of
        pks keys' Omega, paired (and counted as one pairing) on first use."""
        return pair(self.g, self.g_hat)

    def identity(self, kind: str):
        return _KIND_CLS[kind](self, self.backend.identity(kind))

    def __repr__(self):
        return f"GroupSuite({self.backend.name}, order={self.order})"


def suite_generate(backend: str, order: int | None = None) -> GroupSuite:
    """Create a suite: ``suite_generate("mock", p)`` or ``suite_generate("real")``."""
    if backend == "mock":
        if order is None:
            raise ValueError("mock backend requires an explicit prime order")
        be = MockDlogBackend(order)
    elif backend == "real":
        be = Bn254Backend()
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return GroupSuite(be)


def pair(a: G1Elem, b: G2Elem) -> GTElem:
    """Bilinear map: the one-pair :func:`pairing_product`, counted as one pairing."""
    return pairing_product([(a, b)])


def pairing_product(numerator_pairs, denominator_pairs=()) -> GTElem:
    """Evaluate prod e(a_i, b_i) * prod e(c_j, d_j)^-1 as one fused product.

    Counts one pairing per pair on both sides, matching the logical cost.
    This is the one place that decides what the backend's product takes: a
    pair with an identity side is left out, as its pairing is one; every
    G2 element of the others without lines gets them, all in one backend
    call, which shares each step's inversion across the points, and keeps
    them for later products (see :class:`_Elem`); and a denominator pair's
    G1 handle is inverted. The backend then gets one list of
    (G1 handle, lines) pairs.
    """
    pairs = list(numerator_pairs)
    num = len(pairs)
    pairs += denominator_pairs
    if not pairs:
        raise ValueError("pairing_product requires at least one pair")
    suite = pairs[0][0].suite
    for a, b in pairs:
        if not isinstance(a, G1Elem) or not isinstance(b, G2Elem):
            raise TypeError("pairing_product expects (G1Elem, G2Elem) pairs")
        if a.suite is not suite or b.suite is not suite:
            raise CrossSuiteError("pairing_product arguments belong to different suites")
    suite._count({"pairings": len(pairs)})
    backend = suite.backend
    one1, one2 = backend.identity("g1"), backend.identity("g2")
    live = [(a.h if i < num else backend.inv("g1", a.h), b)
            for i, (a, b) in enumerate(pairs) if a.h != one1 and b.h != one2]
    unlined = list({id(b): b for _, b in live if b._lines is None}.values())
    if unlined:
        for b, lines in zip(unlined, backend.lines([b.h for b in unlined])):
            b._lines = lines
    return GTElem(suite, backend.pair_product_raw([(h, b._lines) for h, b in live]))


def hash_to_scalar(suite: GroupSuite, domain_tag: bytes, message: bytes, width: str = "full") -> Scalar:
    """Deterministic message-to-scalar map with domain separation.

    ``full`` yields a value mod p; ``reduced`` realizes the bounded message
    space (below 2^(bits-2) on the real backend, below p//4 on the mock).
    """
    if not domain_tag:
        raise ValueError("domain_tag must be nonempty")
    if width not in ("full", "reduced"):
        raise ValueError(f"unknown width {width!r}")
    digest = hashlib.sha512(struct.pack(">I", len(domain_tag)) + domain_tag + message).digest()
    value = int.from_bytes(digest, "big")
    if width == "reduced":
        return value % suite.backend.reduced_hash_bound()
    return value % suite.order


def multi_exp(items) -> "_Elem":
    """prod elem_i^{k_i} over elements of one group, via one shared chain.
    An identity base is skipped. From a G1 or G2 element's third call on,
    its cached table stands in for it (see :class:`_Elem`); a GT element
    gets no table."""
    items = list(items)
    if not items:
        raise ValueError("multi_exp requires at least one (element, scalar) item")
    first = items[0][0]
    suite, kind = first.suite, first.kind
    one, order = suite.backend.identity(kind), suite.order
    pairs, served = [], 0
    for elem, k in items:
        if elem.suite is not suite:
            raise CrossSuiteError("multi_exp arguments belong to different suites")
        if elem.kind != kind:
            raise TypeError("multi_exp arguments must share one group")
        if elem.h == one:
            continue
        table = None if kind == "gt" else _third_use(elem)
        served += table is not None
        pairs.append((elem.h if table is None else table, k % order))
    suite._count({f"msm.{kind}": len(pairs), "table_terms": served})
    return _KIND_CLS[kind](suite, suite.backend.multi_exp(kind, pairs))


def has_order_r(elem: _Elem) -> bool:
    """Whether elem lies in the order-r subgroup of its group, the identity
    included, by the backend's exact test; asked once per element and kept
    (see :class:`_Elem`). It gates a G1 or G2 element's table
    (:func:`_third_use`) and ``ms_combine``'s batch. Decoding does not run
    it: a decoded G2 point is on the twist and a decoded GT element
    cyclotomic, neither yet of order r."""
    if elem._order_r is None:
        elem._order_r = elem.suite.backend.has_order_r(elem.kind, elem.h)
    return elem._order_r


def random_scalar(suite: GroupSuite, rng) -> Scalar:
    return rng.randrange(suite.order)


def random_nonzero_scalar(suite: GroupSuite, rng) -> Scalar:
    """Uniform over [1, p)."""
    return rng.randrange(1, suite.order)


def encode_element(elem: _Elem) -> bytes:
    return elem.suite.backend.encode(elem.kind, elem.h)


def decode_element(suite: GroupSuite, kind: str, data: bytes) -> _Elem:
    if kind not in _KIND_CLS:
        raise ValueError(f"unknown element kind {kind!r}")
    return _KIND_CLS[kind](suite, suite.backend.decode(kind, data))

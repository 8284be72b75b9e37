"""Asymmetric bilinear group abstraction with two interchangeable backends.

A :class:`GroupSuite` bundles the three groups (G, Ghat, GT), their
generators, e(g, ghat), and one count of the work done on them
(``GroupSuite.counts``). Two backends implement the same handle-level
interface:

* ``real`` — BN254, a Type-3 pairing curve. :mod:`seqsig.bn254` holds
  every condition of it, the encodings and their checks and the exact
  membership tests included; the backend dispatches by kind.
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
from .errors import CrossSuiteError, MalformedEncodingError

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
    GT handles are flat tuples of twelve Fp ints in encoding order. Each
    method calls the :mod:`seqsig.bn254` function of its kind."""

    name = "real"
    order = bn254.ORDER

    def generator(self, kind):
        return bn254.G1_GEN if kind == "g1" else bn254.G2_GEN

    def identity(self, kind):
        return bn254.FQ12_ONE if kind == "gt" else None

    def op(self, kind, h1, h2):
        return {"g1": bn254.g1_add, "g2": bn254.g2_add, "gt": bn254.fq12_mul}[kind](h1, h2)

    def exp(self, kind, h, k):
        return {"g1": bn254.g1_mul, "g2": bn254.g2_mul, "gt": bn254.gt_pow}[kind](h, k)

    def inv(self, kind, h):
        # fq12_conj inverts only cyclotomic elements, as GT's are
        return {"g1": bn254.g1_neg, "g2": bn254.g2_neg, "gt": bn254.fq12_conj}[kind](h)

    def multi_exp(self, kind, pairs):
        return {"g1": bn254.g1_multi_exp, "g2": bn254.g2_multi_exp,
                "gt": bn254.gt_multi_exp}[kind](pairs)

    def table(self, kind, h):
        """A G1 or G2 handle's cached table, which ``multi_exp`` takes in place of it."""
        return {"g1": bn254.g1_table, "g2": bn254.g2_table}[kind](h)

    def has_order_r(self, kind, h):
        """Exactly whether h lies in its group's order-r subgroup; every G1
        handle, a point of E(Fp), which has prime order r, does."""
        return kind == "g1" or {"g2": bn254.g2_in_subgroup, "gt": bn254.gt_has_order_r}[kind](h)

    def lines(self, hs):
        """The Miller-loop lines of each G2 handle of hs, none the identity,
        built together (:func:`bn254.g2_lines`); ``pair_product_raw`` takes
        them in place of the handles."""
        return bn254.g2_lines(hs)

    def pair_product_raw(self, pairs):
        """prod e(P, Q) over (P, lines of Q) pairs, neither side the identity."""
        return bn254.final_exponentiation(bn254.miller_loop_product(pairs))

    def encode(self, kind, h):
        return {"g1": bn254.g1_encode, "g2": bn254.g2_encode, "gt": bn254.gt_encode}[kind](h)

    def decode(self, kind, data):
        """A handle checked by ``bn254``'s decoders: not yet of order r in G2 or G_T."""
        return {"g1": bn254.g1_decode, "g2": bn254.g2_decode, "gt": bn254.gt_decode}[kind](data)

    def encoded_size(self, kind):
        return {"g1": 32, "g2": 64, "gt": 384}[kind]

    def reduced_hash_bound(self):
        return 1 << (bn254.ORDER.bit_length() - 2)


def _third_use(elem):
    """``elem``'s table, None before the element's third use of it; on that
    use the backend builds it, counted under ``tables_built``, and decides
    what it holds (:func:`bn254.g2_table` splits only a point of G2)."""
    if elem._table is None:
        elem._uses += 1
        if elem._uses == 3:
            elem._table = elem.suite.backend.table(elem.kind, elem.h)
            elem.suite._count({"tables_built": 1})
    return elem._table


class _Elem:
    """Immutable group element bound to its suite; multiplicative notation.

    ``_table`` holds the backend's table of ``h`` for :func:`multi_exp` and
    ``**``, None until the third use in that function (``_uses`` counts
    them) builds it: an element that a key or parameter set holds pays for
    it once, while a fresh one, the identity and the bases of one signature
    (two uses each) never do (:func:`_third_use`). ``_lines``
    holds a G2 element's lines for :func:`pairing_product`, None until its
    first product builds them; the Miller loop runs on lines only, so that
    product needs them anyway, and keeping them costs no extra arithmetic,
    only the memory of the lines for as long as the element lives, and
    later products reuse them. A key or parameter record, not an element,
    keeps a membership verdict (``pks._Rows.in_subgroups``). Two threads
    racing on one element can both build a cache; either one is correct."""

    __slots__ = ("suite", "h", "_uses", "_table", "_lines")
    kind = None

    def __init__(self, suite, h):
        self.suite = suite
        self.h = h
        self._uses = 0
        self._table = None
        self._lines = None

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
    """Whether elem lies in its group's order-r subgroup, by the backend's
    exact test on every call; decoding does not run it."""
    return elem.suite.backend.has_order_r(elem.kind, elem.h)


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

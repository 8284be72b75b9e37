"""Binary file envelopes for signatures, keys, parameters, and registries.

Every envelope starts with a 4-byte magic, a version byte, and a backend
descriptor (tag byte plus, for the mock backend, the 4-byte group order),
so a file is self-describing about which suite it belongs to. Decoding
checks the backend against the caller's suite and scalars as reduced, and
on real ``bn254``'s decoders check G1 points on the curve, G2 points on the
twist and GT elements cyclotomic, not of order r in G2 or G_T.

Hex mode wraps the same bytes in lowercase hex with a trailing newline;
it exists for fixture readability only.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import pks, sas
from .errors import MalformedEncodingError
from .groups import GroupSuite, decode_element, encode_element

MAGIC_SIGNATURE = b"APKS"
MAGIC_AGGREGATE = b"ASAS"
MAGIC_MULTISIG = b"AMSG"
MAGIC_REGISTRY = b"AREG"
MAGIC_PUBLIC_KEY = b"AKEY"
MAGIC_PRIVATE_KEY = b"ASEC"
MAGIC_PARAMS = b"APRM"

# the envelope version of each magic; a file of any other version is malformed
VERSION = {
    MAGIC_SIGNATURE: 1, MAGIC_AGGREGATE: 1, MAGIC_MULTISIG: 1, MAGIC_REGISTRY: 2,
    MAGIC_PUBLIC_KEY: 1, MAGIC_PRIVATE_KEY: 1, MAGIC_PARAMS: 1,
}

SCHEME_BYTE = {"pks1": 1, "pks2": 2, "lw": 3, "sas1": 4, "sas2": 5, "ms": 6}
SCHEME_NAME = {v: k for k, v in SCHEME_BYTE.items()}

# the schemes with shared parameters; exactly these register keys
REGISTERED = tuple(pks.Params.WIDTHS)

_BACKEND_MOCK = 0
_BACKEND_REAL = 1

_SCALAR_LEN = 32


def _backend_descriptor(suite: GroupSuite) -> bytes:
    if suite.backend.name == "mock":
        return bytes([_BACKEND_MOCK]) + suite.order.to_bytes(4, "big")
    return bytes([_BACKEND_REAL])


def _header(magic: bytes, suite: GroupSuite) -> bytes:
    return magic + bytes([VERSION[magic]]) + _backend_descriptor(suite)


class _Reader:
    """Bounded cursor over one envelope. It checks the header once; every
    read then checks the remaining length first and raises
    ``MalformedEncodingError``, so no decoder does bounds or offset work."""

    def __init__(self, data: bytes, magic: bytes, suite: GroupSuite):
        self.buf, self.off, self.suite = memoryview(data), 5, suite
        if len(self.buf) < 5 or bytes(self.buf[:4]) != magic:
            raise MalformedEncodingError(f"expected {magic.decode()} envelope")
        if self.buf[4] != VERSION[magic]:
            raise MalformedEncodingError(f"unsupported envelope version {self.buf[4]}")
        descriptor = _backend_descriptor(suite)
        if self.take(len(descriptor), "backend descriptor") != descriptor:
            raise MalformedEncodingError("file was produced under a different suite")

    def take(self, n: int, what: str = "envelope payload") -> bytes:
        if len(self.buf) - self.off < n:
            raise MalformedEncodingError(f"truncated {what}")
        self.off += n
        return bytes(self.buf[self.off - n:self.off])

    def byte(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def scalar(self) -> int:
        value = int.from_bytes(self.take(_SCALAR_LEN, "scalar"), "big")
        if value >= self.suite.order:
            raise MalformedEncodingError("scalar exceeds the group order")
        return value

    def elements(self, kinds: Sequence[str]) -> list:
        size = self.suite.backend.encoded_size
        return [decode_element(self.suite, kind, self.take(size(kind), "element data"))
                for kind in kinds]

    def rows(self, variant: str):
        """The two G1 rows, each pks.ROW_WIDTH[variant] elements wide, that
        end a signature, an aggregate or a multi-signature."""
        width = pks.ROW_WIDTH[variant]
        elems = self.elements(["g1"] * (2 * width))
        return tuple(elems[:width]), tuple(elems[width:])

    def signer(self, i: int, by_id: dict):
        """The key of signer ``i``, whose 32-byte key id must name one of the
        supplied keys in ``by_id``."""
        kid = self.take(32, "key-id list")
        if kid not in by_id:
            raise MalformedEncodingError(f"signer {i} key-id not among the supplied keys")
        return by_id[kid]

    def end(self):
        if self.off != len(self.buf):
            raise MalformedEncodingError("trailing bytes after envelope payload")


def _encode_elements(elems) -> bytes:
    return b"".join(encode_element(e) for e in elems)


def _encode_scalar(value: int) -> bytes:
    return value.to_bytes(_SCALAR_LEN, "big")


# ---------------------------------------------------------------------------
# single-signer signatures (APKS)

def encode_signature(sig: pks.Signature) -> bytes:
    suite = sig.row1[0].suite
    return (
        _header(MAGIC_SIGNATURE, suite)
        + bytes([SCHEME_BYTE[sig.variant], 2 * len(sig.row1)])
        + _encode_elements(sig.elements())
    )


def decode_signature(suite: GroupSuite, data: bytes) -> pks.Signature:
    r = _Reader(data, MAGIC_SIGNATURE, suite)
    variant = SCHEME_NAME.get(r.byte())
    count = r.byte()
    if variant not in pks.VARIANTS:
        raise MalformedEncodingError("not a single-signer signature variant")
    if count != 2 * pks.ROW_WIDTH[variant]:
        raise MalformedEncodingError("element count does not match variant width")
    row1, row2 = r.rows(variant)
    r.end()
    return pks.Signature(variant, row1, row2)


# ---------------------------------------------------------------------------
# public keys (AKEY) and public parameters (APRM): one scheme byte, then the
# elements in the order of the variant's WIDTHS row in pks.PublicKey or pks.Params


def _encode_layout(magic: bytes, obj) -> bytes:
    elems = obj.elements()
    header = _header(magic, elems[0].suite) + bytes([SCHEME_BYTE[obj.variant]])
    return header + _encode_elements(elems)


def _decode_layout(magic: bytes, cls, suite: GroupSuite, data: bytes):
    r = _Reader(data, magic, suite)
    scheme = r.byte()
    variant = SCHEME_NAME.get(scheme)
    if variant not in cls.WIDTHS:
        raise MalformedEncodingError(f"scheme byte {scheme} is not valid in {magic.decode()}")
    elems = r.elements(cls.element_kinds(variant))
    r.end()
    return cls.from_elements(suite, variant, elems)


def encode_public_key(pk) -> bytes:
    return _encode_layout(MAGIC_PUBLIC_KEY, pk)


def decode_public_key(suite: GroupSuite, data: bytes) -> pks.PublicKey:
    return _decode_layout(MAGIC_PUBLIC_KEY, pks.PublicKey, suite, data)


def encode_params(params) -> bytes:
    return _encode_layout(MAGIC_PARAMS, params)


def decode_params(suite: GroupSuite, data: bytes) -> pks.Params:
    return _decode_layout(MAGIC_PARAMS, pks.Params, suite, data)


# ---------------------------------------------------------------------------
# private keys (ASEC) — research artifact: held scalars are stored in clear

# The scalar slots of each variant, in envelope order; None marks a slot the
# variant does not use, which must hold zero and decodes to None.
_PRIVATE_SLOTS = {
    "pks1": ("alpha", "x", "y"), "pks2": ("alpha", "x", "y"), "lw": ("alpha", "x", "y"),
    "sas1": ("alpha", "x", "y", None, None), "sas2": ("alpha", "x", "y", "c_u", "c_h"),
    "ms": ("alpha",),
}


def encode_private_key(suite: GroupSuite, variant: str, sk: pks.PrivateKey) -> bytes:
    if variant not in _PRIVATE_SLOTS:
        raise ValueError(f"unknown scheme {variant!r}")
    if sk.variant != variant:
        raise ValueError(f"private key is for {sk.variant!r}, not {variant!r}")
    if len(sk.pk_id) != 32:
        raise ValueError(f"private key id must be 32 bytes, not {len(sk.pk_id)}")
    slots = _PRIVATE_SLOTS[variant]
    return (
        _header(MAGIC_PRIVATE_KEY, suite)
        + bytes([SCHEME_BYTE[variant], len(slots)])
        + sk.pk_id
        + b"".join(_encode_scalar((getattr(sk, name) if name else None) or 0) for name in slots)
    )


def decode_private_key(suite: GroupSuite, data: bytes):
    """Returns (variant, private key)."""
    r = _Reader(data, MAGIC_PRIVATE_KEY, suite)
    variant = SCHEME_NAME.get(r.byte())
    count = r.byte()
    pk_id = r.take(32)
    if variant not in _PRIVATE_SLOTS:
        raise MalformedEncodingError("unknown scheme byte")
    slots = _PRIVATE_SLOTS[variant]
    if count != len(slots):
        raise MalformedEncodingError(f"a {variant} private key has {len(slots)} scalars, not {count}")
    fields = {}
    for name in slots:
        s = r.scalar()
        if name:
            fields[name] = s
        elif s:
            raise MalformedEncodingError(f"unused scalar slot of a {variant} key is not zero")
    r.end()
    return variant, pks.PrivateKey(variant, pk_id=pk_id, **fields)


# ---------------------------------------------------------------------------
# aggregates (ASAS): l (key-id, message-hash) pairs, then the elements.
# Signer public keys travel separately (key files / registry) and are
# re-attached at decode time via their key-ids.

def encode_aggregate(agg: pks.Signature) -> bytes:
    parts = [
        _header(MAGIC_AGGREGATE, agg.row1[0].suite),
        bytes([SCHEME_BYTE[agg.variant]]),
        agg.length.to_bytes(4, "big"),
    ]
    for m, signer in zip(agg.messages, agg.signers):
        parts.append(pks.key_id(signer))
        parts.append(_encode_scalar(m))
    parts.append(_encode_elements(agg.elements()))
    return b"".join(parts)


def decode_aggregate(suite: GroupSuite, data: bytes,
                     known_keys: Sequence[pks.PublicKey]) -> pks.Signature:
    r = _Reader(data, MAGIC_AGGREGATE, suite)
    variant = SCHEME_NAME.get(r.byte())
    length = r.u32()
    if variant not in sas.VARIANTS:
        raise MalformedEncodingError("not an aggregate-signature variant")
    by_id = {pks.key_id(k): k for k in known_keys}
    messages, signers = [], []
    for i in range(length):
        signers.append(r.signer(i, by_id))
        messages.append(r.scalar())
    row1, row2 = r.rows(variant)
    r.end()
    agg = pks.Signature(variant, row1, row2, tuple(messages), tuple(signers))
    pks.check_rows(variant, suite, [agg])
    return agg


# ---------------------------------------------------------------------------
# multi-signatures (AMSG)

def encode_multisignature(msig: pks.Signature, message_hash: int,
                          pk_list: Sequence[pks.PublicKey]) -> bytes:
    suite = msig.row1[0].suite
    parts = [
        _header(MAGIC_MULTISIG, suite),
        len(pk_list).to_bytes(4, "big"),
    ]
    for pk in pk_list:
        parts.append(pks.key_id(pk))
    parts.append(_encode_scalar(message_hash))
    parts.append(_encode_elements(msig.elements()))
    return b"".join(parts)


def decode_multisignature(suite: GroupSuite, data: bytes,
                          known_keys: Sequence[pks.PublicKey]):
    """Returns (signature, message_hash, ordered public keys)."""
    r = _Reader(data, MAGIC_MULTISIG, suite)
    count = r.u32()
    if count == 0:
        raise MalformedEncodingError("a multi-signature must name at least one signer")
    by_id = {pks.key_id(k): k for k in known_keys}
    pk_list = [r.signer(i, by_id) for i in range(count)]
    message_hash = r.scalar()
    row1, row2 = r.rows("ms")
    r.end()
    return pks.Signature("ms", row1, row2), message_hash, pk_list


# ---------------------------------------------------------------------------
# certified-key registries (AREG, version 2): a record count, then one 42-byte
# record per key: key id (32 bytes), scheme byte, witness flag and 8-byte
# timestamp. A verifier asks only whether a key's id is listed, and the id is
# a SHA-256 hash of the key's elements, so the registry stores no key.

class CertRecord(NamedTuple):
    key_id: bytes
    variant: str
    witness_verified: bool
    timestamp: int


def encode_registry(suite: GroupSuite, records: Sequence[CertRecord]) -> bytes:
    parts = [_header(MAGIC_REGISTRY, suite), len(records).to_bytes(4, "big")]
    for kid, variant, witness_verified, timestamp in records:
        parts += [kid, bytes([SCHEME_BYTE[variant], 1 if witness_verified else 0]),
                  timestamp.to_bytes(8, "big")]
    return b"".join(parts)


def decode_registry(suite: GroupSuite, data: bytes) -> list[CertRecord]:
    r = _Reader(data, MAGIC_REGISTRY, suite)
    records, seen = [], set()
    for _ in range(r.u32()):
        kid = r.take(32, "registry record")
        scheme, flag = r.take(2, "registry record")
        timestamp = int.from_bytes(r.take(8, "registry record"), "big")
        variant = SCHEME_NAME.get(scheme)
        if variant not in REGISTERED:
            raise MalformedEncodingError(
                f"registry record scheme byte {scheme} names no registering scheme")
        if flag not in (0, 1):
            raise MalformedEncodingError(f"registry record witness flag {flag} is not 0 or 1")
        if kid in seen:
            raise MalformedEncodingError("registry lists one key-id twice")
        seen.add(kid)
        records.append(CertRecord(kid, variant, flag == 1, timestamp))
    r.end()
    return records


# ---------------------------------------------------------------------------
# hex wrapping

def to_wire(data: bytes, fmt: str) -> bytes:
    if fmt == "bin":
        return data
    if fmt == "hex":
        return data.hex().encode("ascii") + b"\n"
    raise ValueError(f"unknown format {fmt!r}")


def from_wire(data: bytes) -> bytes:
    """Accept either raw bytes or the hex wrapping, sniffing the magic."""
    if data[:4] in VERSION:
        return data
    try:
        return bytes.fromhex(data.decode("ascii").strip())
    except (UnicodeDecodeError, ValueError):
        raise MalformedEncodingError("neither a known envelope nor hex text") from None

"""Binary file envelopes for signatures, keys, parameters, and registries.

Every envelope starts with a 4-byte magic, a version byte, and a backend
descriptor (tag byte plus, for the mock backend, the 4-byte group order),
so a file is self-describing about which suite it belongs to. Decoding
always validates the backend against the caller's suite and every element
against its group, so a loaded object is as trustworthy as a freshly
built one.

Hex mode wraps the same bytes in lowercase hex with a trailing newline;
it exists for fixture readability only.
"""

from __future__ import annotations

import struct
from typing import Sequence

from . import ms, pks, sas
from .errors import MalformedEncodingError
from .groups import GroupSuite, decode_element, encode_element

VERSION = 1

MAGIC_SIGNATURE = b"APKS"
MAGIC_AGGREGATE = b"ASAS"
MAGIC_MULTISIG = b"AMSG"
MAGIC_REGISTRY = b"AREG"
MAGIC_PUBLIC_KEY = b"AKEY"
MAGIC_PRIVATE_KEY = b"ASEC"
MAGIC_PARAMS = b"APRM"

SCHEME_BYTE = {"pks1": 1, "pks2": 2, "lw": 3, "sas1": 4, "sas2": 5, "ms": 6}
SCHEME_NAME = {v: k for k, v in SCHEME_BYTE.items()}

_BACKEND_MOCK = 0
_BACKEND_REAL = 1

_SCALAR_LEN = 32


def _backend_descriptor(suite: GroupSuite) -> bytes:
    if suite.backend.name == "mock":
        return bytes([_BACKEND_MOCK]) + suite.order.to_bytes(4, "big")
    return bytes([_BACKEND_REAL])


def _header(magic: bytes, suite: GroupSuite) -> bytes:
    return magic + bytes([VERSION]) + _backend_descriptor(suite)


def _check_header(data: bytes, magic: bytes, suite: GroupSuite) -> tuple[memoryview, int]:
    buf = memoryview(data)
    if len(buf) < 5 or bytes(buf[:4]) != magic:
        raise MalformedEncodingError(f"expected {magic.decode()} envelope")
    if buf[4] != VERSION:
        raise MalformedEncodingError(f"unsupported envelope version {buf[4]}")
    descriptor = _backend_descriptor(suite)
    off = 5 + len(descriptor)
    if len(buf) < off:
        raise MalformedEncodingError("truncated backend descriptor")
    if buf[5:off] != descriptor:
        raise MalformedEncodingError("file was produced under a different suite")
    return buf, off


def _encode_elements(elems) -> bytes:
    return b"".join(encode_element(e) for e in elems)


def _decode_elements(suite, kinds: Sequence[str], buf: memoryview, off: int):
    out = []
    for kind in kinds:
        n = suite.backend.encoded_size(kind)
        if len(buf) < off + n:
            raise MalformedEncodingError("truncated element data")
        out.append(decode_element(suite, kind, bytes(buf[off:off + n])))
        off += n
    return out, off


def _encode_scalar(value: int) -> bytes:
    return value.to_bytes(_SCALAR_LEN, "big")


def _decode_scalar(suite, buf: memoryview, off: int) -> tuple[int, int]:
    if len(buf) < off + _SCALAR_LEN:
        raise MalformedEncodingError("truncated scalar")
    value = int.from_bytes(buf[off:off + _SCALAR_LEN], "big")
    if value >= suite.order:
        raise MalformedEncodingError("scalar exceeds the group order")
    return value, off + _SCALAR_LEN


def _expect_end(buf: memoryview, off: int):
    if off != len(buf):
        raise MalformedEncodingError("trailing bytes after envelope payload")


def _read_signer(buf: memoryview, off: int, i: int, by_id):
    """(key, offset after it) of signer ``i``, whose 32-byte key id starts at
    ``off`` and must name one of the supplied keys in ``by_id``."""
    if len(buf) < off + 32:
        raise MalformedEncodingError("truncated key-id list")
    kid = bytes(buf[off:off + 32])
    if kid not in by_id:
        raise MalformedEncodingError(f"signer {i} key-id not among the supplied keys")
    return by_id[kid], off + 32


# Signatures, aggregates and multi-signatures end in their two G1 rows, each
# pks.ROW_WIDTH[variant] elements wide.

def _encode_rows(sig) -> bytes:
    return _encode_elements(sig.elements())


def _decode_rows(suite, variant: str, buf: memoryview, off: int):
    """(row1, row2, offset after them) of a ``variant`` signature."""
    width = pks.ROW_WIDTH[variant]
    elems, off = _decode_elements(suite, ["g1"] * (2 * width), buf, off)
    return tuple(elems[:width]), tuple(elems[width:]), off


# ---------------------------------------------------------------------------
# single-signer signatures (APKS)

def encode_signature(sig: pks.Signature) -> bytes:
    suite = sig.row1[0].suite
    return (
        _header(MAGIC_SIGNATURE, suite)
        + bytes([SCHEME_BYTE[sig.variant], 2 * len(sig.row1)])
        + _encode_rows(sig)
    )


def decode_signature(suite: GroupSuite, data: bytes) -> pks.Signature:
    buf, off = _check_header(data, MAGIC_SIGNATURE, suite)
    if len(buf) < off + 2:
        raise MalformedEncodingError("truncated signature envelope")
    variant = SCHEME_NAME.get(buf[off])
    count = buf[off + 1]
    off += 2
    if variant not in pks.VARIANTS:
        raise MalformedEncodingError("not a single-signer signature variant")
    if count != 2 * pks.ROW_WIDTH[variant]:
        raise MalformedEncodingError("element count does not match variant width")
    row1, row2, off = _decode_rows(suite, variant, buf, off)
    _expect_end(buf, off)
    return pks.Signature(variant, row1, row2)


# ---------------------------------------------------------------------------
# public keys (AKEY) and public parameters (APRM): one scheme byte, then the
# elements in the order the class's LAYOUT declares

_PUBLIC_KEY_CLASS = {
    "pks1": pks.Pks1PublicKey, "pks2": pks.Pks2PublicKey, "lw": pks.LwPublicKey,
    "sas1": sas.SasSignerPublic, "sas2": sas.SasSignerPublic, "ms": ms.MsPublicKey,
}
_PARAMS_CLASS = {"sas1": sas.Sas1Params, "sas2": sas.Sas2Params, "ms": ms.MsParams}


def _encode_layout(magic: bytes, obj) -> bytes:
    elems = obj.elements()
    header = _header(magic, elems[0].suite) + bytes([SCHEME_BYTE[obj.variant]])
    return header + _encode_elements(elems)


def _decode_layout(magic: bytes, classes, suite: GroupSuite, data: bytes):
    buf, off = _check_header(data, magic, suite)
    if len(buf) < off + 1:
        raise MalformedEncodingError(f"truncated {magic.decode()} envelope")
    variant = SCHEME_NAME.get(buf[off])
    if variant not in classes:
        raise MalformedEncodingError(f"scheme byte {buf[off]} is not valid in {magic.decode()}")
    cls = classes[variant]
    elems, off = _decode_elements(suite, cls.element_kinds(variant), buf, off + 1)
    _expect_end(buf, off)
    return cls.from_elements(suite, variant, elems)


def encode_public_key(pk) -> bytes:
    return _encode_layout(MAGIC_PUBLIC_KEY, pk)


def decode_public_key(suite: GroupSuite, data: bytes):
    return _decode_layout(MAGIC_PUBLIC_KEY, _PUBLIC_KEY_CLASS, suite, data)


def encode_params(params) -> bytes:
    return _encode_layout(MAGIC_PARAMS, params)


def decode_params(suite: GroupSuite, data: bytes):
    return _decode_layout(MAGIC_PARAMS, _PARAMS_CLASS, suite, data)


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
    buf, off = _check_header(data, MAGIC_PRIVATE_KEY, suite)
    if len(buf) < off + 2 + 32:
        raise MalformedEncodingError("truncated private-key envelope")
    variant = SCHEME_NAME.get(buf[off])
    count = buf[off + 1]
    pk_id = bytes(buf[off + 2:off + 34])
    off += 34
    if variant not in _PRIVATE_SLOTS:
        raise MalformedEncodingError("unknown scheme byte")
    slots = _PRIVATE_SLOTS[variant]
    if count != len(slots):
        raise MalformedEncodingError(f"a {variant} private key has {len(slots)} scalars, not {count}")
    fields = {}
    for name in slots:
        s, off = _decode_scalar(suite, buf, off)
        if name:
            fields[name] = s
        elif s:
            raise MalformedEncodingError(f"unused scalar slot of a {variant} key is not zero")
    _expect_end(buf, off)
    return variant, pks.PrivateKey(variant, pk_id=pk_id, **fields)


# ---------------------------------------------------------------------------
# aggregates (ASAS): l (key-id, message-hash) pairs, then the elements.
# Signer public keys travel separately (key files / registry) and are
# re-attached at decode time via their key-ids.

def encode_aggregate(agg: sas.AggregateSignature) -> bytes:
    parts = [
        _header(MAGIC_AGGREGATE, agg.row1[0].suite),
        bytes([SCHEME_BYTE[agg.variant]]),
        struct.pack(">I", agg.length),
    ]
    for m, signer in zip(agg.messages, agg.signers):
        parts.append(pks.key_id(signer))
        parts.append(_encode_scalar(m))
    parts.append(_encode_rows(agg))
    return b"".join(parts)


def decode_aggregate(suite: GroupSuite, data: bytes,
                     known_keys: Sequence[sas.SasSignerPublic]) -> sas.AggregateSignature:
    buf, off = _check_header(data, MAGIC_AGGREGATE, suite)
    if len(buf) < off + 5:
        raise MalformedEncodingError("truncated aggregate envelope")
    variant = SCHEME_NAME.get(buf[off])
    if variant not in sas.VARIANTS:
        raise MalformedEncodingError("not an aggregate-signature variant")
    length = struct.unpack(">I", buf[off + 1:off + 5])[0]
    off += 5
    by_id = {pks.key_id(k): k for k in known_keys}
    messages, signers = [], []
    for i in range(length):
        signer, off = _read_signer(buf, off, i, by_id)
        m, off = _decode_scalar(suite, buf, off)
        if signer.variant != variant:
            raise MalformedEncodingError(f"signer {i} key belongs to a different scheme")
        messages.append(m)
        signers.append(signer)
    row1, row2, off = _decode_rows(suite, variant, buf, off)
    _expect_end(buf, off)
    return sas.AggregateSignature(variant, row1, row2, tuple(messages), tuple(signers))


# ---------------------------------------------------------------------------
# multi-signatures (AMSG)

def encode_multisignature(msig: ms.MsSignature, message_hash: int,
                          pk_list: Sequence[ms.MsPublicKey]) -> bytes:
    suite = msig.row1[0].suite
    parts = [
        _header(MAGIC_MULTISIG, suite),
        struct.pack(">I", len(pk_list)),
    ]
    for pk in pk_list:
        parts.append(pks.key_id(pk))
    parts.append(_encode_scalar(message_hash))
    parts.append(_encode_rows(msig))
    return b"".join(parts)


def decode_multisignature(suite: GroupSuite, data: bytes,
                          known_keys: Sequence[ms.MsPublicKey]):
    """Returns (signature, message_hash, ordered public keys)."""
    buf, off = _check_header(data, MAGIC_MULTISIG, suite)
    if len(buf) < off + 4:
        raise MalformedEncodingError("truncated multi-signature envelope")
    count = struct.unpack(">I", buf[off:off + 4])[0]
    off += 4
    by_id = {pks.key_id(k): k for k in known_keys}
    pk_list = []
    for i in range(count):
        pk, off = _read_signer(buf, off, i, by_id)
        pk_list.append(pk)
    message_hash, off = _decode_scalar(suite, buf, off)
    row1, row2, off = _decode_rows(suite, ms.MsSignature.variant, buf, off)
    _expect_end(buf, off)
    return ms.MsSignature(row1, row2), message_hash, pk_list


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
    if data[:4] in (MAGIC_SIGNATURE, MAGIC_AGGREGATE, MAGIC_MULTISIG,
                    MAGIC_REGISTRY, MAGIC_PUBLIC_KEY, MAGIC_PRIVATE_KEY, MAGIC_PARAMS):
        return data
    try:
        return bytes.fromhex(data.decode("ascii").strip())
    except (UnicodeDecodeError, ValueError):
        raise MalformedEncodingError("neither a known envelope nor hex text") from None

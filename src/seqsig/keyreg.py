"""Certified-key registry (knowledge-of-secret-key setting).

Registration demands the signer's full private witness. The registry
deterministically rebuilds the public key from the witness and the shared
parameters and accepts only on a byte-for-byte match of the canonical
encodings — the desk-scale realization of handing the certifier the key
pair outright. Witnesses are checked and discarded: only a boolean
"witness verified" record is kept, so a registry compromise leaks no key.

The certification predicate produced here is what the aggregate and
multi-signature verifiers consult before any pairing is computed.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple

from . import envelopes, ms, pks, sas
from .errors import RegistrationError
from .groups import GroupSuite


REGISTERED = sas.VARIANTS + ("ms",)


def witness_from_private(variant: str, sk: pks.PrivateKey) -> pks.PrivateKey:
    """The registration witness of a sas or ms key: the private key itself."""
    if variant not in REGISTERED:
        raise ValueError(f"scheme {variant!r} does not register keys")
    if sk.variant != variant:
        raise ValueError(f"private key is for {sk.variant!r}, not {variant!r}")
    return sk


class CertRecord(NamedTuple):
    key_id: bytes
    variant: str
    pk: object
    witness_verified: bool
    timestamp: int


def _reconstruct(params, witness: pks.PrivateKey):
    if witness.variant not in REGISTERED:
        raise RegistrationError(f"scheme {witness.variant!r} does not register keys")
    if params.variant != witness.variant:
        raise RegistrationError("witness scheme does not match the parameters")
    if witness.variant == "ms":
        return ms.ms_key_from_secret(params, witness.alpha)[0]
    return sas.signer_from_secrets(params, witness.alpha, witness.x, witness.y,
                                   c_u=witness.c_u, c_h=witness.c_h)[0]


class CertRegistry:
    """Append-only certification list; concurrent reads, exclusive writes."""

    def __init__(self, suite: GroupSuite):
        self.suite = suite
        self._records: dict[bytes, CertRecord] = {}
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._records)

    def records(self) -> list[CertRecord]:
        with self._lock:
            return list(self._records.values())

    def register(self, params, pk, witness: pks.PrivateKey) -> CertRecord:
        """Certify ``pk`` after reconstructing it from the witness."""
        variant = pk.variant
        if variant != witness.variant:
            raise RegistrationError("witness scheme does not match the public key")
        rebuilt = _reconstruct(params, witness)
        submitted = envelopes.encode_public_key(pk)
        if envelopes.encode_public_key(rebuilt) != submitted:
            raise RegistrationError("witness does not reproduce the submitted key")
        kid = pks.key_id(pk)
        with self._lock:
            existing = self._records.get(kid)
            if existing is not None:
                if envelopes.encode_public_key(existing.pk) == submitted:
                    return existing  # idempotent re-registration
                raise RegistrationError("key-id collision with a different key")
            record = CertRecord(kid, variant, pk, True, int(time.time()))
            self._records[kid] = record
            return record

    def is_certified(self, pk) -> bool:
        with self._lock:
            return pks.key_id(pk) in self._records

    def predicate(self):
        """A consistent-snapshot certification predicate for verifiers."""
        with self._lock:
            snapshot = frozenset(self._records)
        return lambda pk: pks.key_id(pk) in snapshot

    # -- persistence -------------------------------------------------------

    def save_bytes(self) -> bytes:
        return envelopes.encode_registry(self.suite, self.records())

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.save_bytes())

    @classmethod
    def load_bytes(cls, suite: GroupSuite, data: bytes) -> "CertRegistry":
        registry = cls(suite)
        for record in envelopes.decode_registry(suite, data):
            registry._records[record[0]] = CertRecord(*record)
        return registry

    @classmethod
    def load(cls, suite: GroupSuite, path) -> "CertRegistry":
        with open(path, "rb") as fh:
            return cls.load_bytes(suite, fh.read())

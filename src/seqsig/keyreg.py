"""Certified-key registry (knowledge-of-secret-key setting).

Registration demands the signer's full private witness. The registry
deterministically rebuilds the public key from the witness and the shared
parameters and accepts only if the rebuilt key has the submitted key's id —
the desk-scale realization of handing the certifier the key pair outright.
Witnesses are checked and discarded, and so is the key: a record holds the
key id, the scheme, a "witness verified" flag and a timestamp, so a
registry compromise leaks no key.

The certification predicate produced here is what the aggregate and
multi-signature verifiers consult before any pairing is computed. A key is
certified only by a record with its key id, its scheme and the witness flag
set; a record loaded from a file that says otherwise certifies nothing.
"""

from __future__ import annotations

import threading
import time

from . import envelopes, pks
from .envelopes import CertRecord
from .errors import RegistrationError
from .groups import GroupSuite


def witness_from_private(variant: str, sk: pks.PrivateKey) -> pks.PrivateKey:
    """The registration witness of a sas or ms key: the private key itself."""
    if variant not in envelopes.REGISTERED:
        raise ValueError(f"scheme {variant!r} does not register keys")
    if sk.variant != variant:
        raise ValueError(f"private key is for {sk.variant!r}, not {variant!r}")
    return sk


def _certifies(record: CertRecord | None, pk) -> bool:
    return record is not None and record.witness_verified and record.variant == pk.variant


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
        """Certify ``pk`` after reconstructing it from the witness; a key
        already certified keeps its record, and a record of its id that does
        not certify it is replaced."""
        schemes = {pk.variant, witness.variant, params.variant}
        if len(schemes) != 1 or params.variant not in envelopes.REGISTERED:
            raise RegistrationError("the key, the witness and the parameters must name"
                                    " one registering scheme")
        kid = pks.key_id(pk)
        rebuilt, _ = params.signer(witness.alpha, witness.x, witness.y, witness.c_u, witness.c_h)
        if pks.key_id(rebuilt) != kid:
            raise RegistrationError("witness does not reproduce the submitted key")
        record = CertRecord(kid, pk.variant, True, int(time.time()))
        with self._lock:
            if not _certifies(self._records.get(kid), pk):
                self._records[kid] = record
            return self._records[kid]

    def is_certified(self, pk) -> bool:
        kid = pks.key_id(pk)
        with self._lock:
            return _certifies(self._records.get(kid), pk)

    def predicate(self):
        """A consistent-snapshot certification predicate for verifiers."""
        with self._lock:
            snapshot = dict(self._records)
        return lambda pk: _certifies(snapshot.get(pks.key_id(pk)), pk)

    # -- persistence -------------------------------------------------------

    def save_bytes(self) -> bytes:
        return envelopes.encode_registry(self.suite, self.records())

    @classmethod
    def load_bytes(cls, suite: GroupSuite, data: bytes) -> "CertRegistry":
        registry = cls(suite)
        registry._records = {r.key_id: r for r in envelopes.decode_registry(suite, data)}
        return registry

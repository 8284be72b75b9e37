"""Exception taxonomy.

Verification predicates return False for cryptographically invalid input and
raise for input that is not even well formed; callers that need an exit-code
split (CLI) rely on that distinction.
"""


class SeqsigError(Exception):
    """Base class for all library errors."""


class MalformedEncodingError(SeqsigError):
    """Byte string does not parse under the expected envelope or encoding."""


class SubgroupMembershipError(SeqsigError):
    """Decoded element is off the curve (G1), off the twist (G2) or not
    cyclotomic (GT); decoding does not test order r in G2 or G_T."""


class CrossSuiteError(SeqsigError):
    """Elements from different group suites were mixed in one operation."""


class KeyMismatchError(SeqsigError):
    """Private key does not belong to the supplied public key."""


class InvalidAggregateError(SeqsigError):
    """Aggregate-so-far failed verification; signing must halt."""


class DuplicateSignerError(SeqsigError):
    """Public key already contributes to the aggregate."""


class RegistrationError(SeqsigError):
    """Witness does not reconstruct the submitted public key."""


class MissingWitnessError(SeqsigError):
    """A required private witness is unavailable."""

"""seqsig: pairing-based signatures with sequential aggregation.

Modules:

* :mod:`seqsig.groups` — asymmetric bilinear group abstraction with a real
  pairing-curve backend and a transparent discrete-log mock backend.
* :mod:`seqsig.pks` — single-signer signature variants (pks1, pks2, lw).
* :mod:`seqsig.sas` — sequential aggregate signatures (sas1, sas2).
* :mod:`seqsig.ms` — multi-signatures on a common message.
* :mod:`seqsig.keyreg` — certified-key registry (knowledge-of-secret-key).
* :mod:`seqsig.envelopes` — binary file formats.
* :mod:`seqsig.cli` — command-line interface.
"""

from .groups import GroupSuite, pair, pairing_product, suite_generate

__version__ = "0.1.0"

__all__ = ["GroupSuite", "pair", "pairing_product", "suite_generate", "__version__"]

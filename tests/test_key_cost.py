"""Cost pin for key material: exponentiations per group and pairings of every
keygen and setup, on mock:10007.

The golden transcript pins the bytes of keys and parameters but not what
they cost to build; these counts do. ``multi`` counts backend
multi-exponentiations (any number of terms), which keygen and setup do not
use.
"""

import random
from collections import Counter

import pytest

from seqsig import ms, pks, sas
from seqsig.groups import GroupSuite, MockDlogBackend


class CountingMockBackend(MockDlogBackend):
    def __init__(self, order):
        super().__init__(order)
        self.counts = Counter()

    def exp(self, kind, h, k):
        self.counts[kind] += 1
        return super().exp(kind, h, k)

    def multi_exp(self, kind, pairs):
        self.counts["multi"] += 1
        return super().multi_exp(kind, pairs)


def _cost(build):
    backend = CountingMockBackend(10007)
    suite = GroupSuite(backend=backend, order=backend.order)
    build(suite, random.Random(7))
    return dict(backend.counts, pairings=suite.pairing_count)


EXPECTED = {
    "keygen.pks1": {"g1": 6, "g2": 14, "gt": 1, "pairings": 1},
    "keygen.pks2": {"g1": 14, "g2": 8, "gt": 1, "pairings": 1},
    "keygen.lw": {"g1": 3, "g2": 8, "gt": 1, "pairings": 1},
    "setup+keygen.sas1": {"g1": 6, "g2": 14, "gt": 1, "pairings": 1},
    "setup+keygen.sas2": {"g1": 18, "g2": 8, "gt": 1, "pairings": 1},
    "setup+keygen.ms": {"g1": 14, "g2": 8, "gt": 1, "pairings": 1},
}

BUILDS = {
    **{f"keygen.{v}": (lambda v: lambda s, r: pks.keygen(s, v, r))(v) for v in pks.VARIANTS},
    **{f"setup+keygen.{v}": (lambda v: lambda s, r: sas.keygen(sas.setup(s, v, r), r))(v)
       for v in sas.VARIANTS},
    "setup+keygen.ms": lambda s, r: ms.ms_keygen(ms.ms_setup(s, r), r),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_key_material_cost(name):
    assert _cost(BUILDS[name]) == EXPECTED[name]

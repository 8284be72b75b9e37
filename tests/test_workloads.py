"""Each benchmark workload runs one unit of ops on mock:10007 without a
failed op, and verify-short runs three on real, so a library change that
breaks a workload fails here and not only in a benchmark run."""

import pytest

from perfbench import workloads
from seqsig import bn254


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_one_unit(name):
    cls = workloads.WORKLOADS[name]
    out = workloads.run_ops(cls("mock:10007", 1), 1, n_ops=cls.unit)
    assert out.attempted == cls.unit
    assert out.failed == 0, out.errors


def test_verify_short_runs_three_ops_on_real(monkeypatch):
    """Three verify-short ops on the real backend, so a G2 split that breaks
    a verdict fails here: op 1 holds the tampered sas1 input, and by op 2
    the keys' and parameters' G2 elements are tabled, so most G2 terms run
    split on their psi images."""
    wl = workloads.WORKLOADS["verify-short"]("real", 1)
    split = []  # per op, per bn254.g2_multi_exp call: (terms, terms on a split table)
    g2_multi_exp, op = bn254.g2_multi_exp, wl.op

    def counted_multi_exp(pairs):
        split[-1].append((len(pairs), sum(type(x) is bn254.Table and x.images is not None
                                          for x, _ in pairs)))
        return g2_multi_exp(pairs)

    def counted_op(i, rec, rng):
        split.append([])
        return op(i, rec, rng)

    monkeypatch.setattr(bn254, "g2_multi_exp", counted_multi_exp)
    monkeypatch.setattr(wl, "op", counted_op)
    out = workloads.run_ops(wl, 1, n_ops=3)
    assert out.attempted == 3
    assert out.failed == 0, out.errors
    terms, on_tables = (sum(col) for col in zip(*split[2]))
    assert 2 * on_tables > terms

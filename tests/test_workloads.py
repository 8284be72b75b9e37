"""Each benchmark workload runs one unit of ops on mock:10007 without a
failed op, so a library change that breaks a workload fails here and not
only in a benchmark run."""

import pytest

from perfbench import workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_one_unit(name):
    cls = workloads.WORKLOADS[name]
    out = workloads.run_ops(cls("mock:10007", 1), 1, n_ops=cls.unit)
    assert out.attempted == cls.unit
    assert out.failed == 0, out.errors

"""The benchmark's tracing hooks still find every name they wrap.

``perfbench`` rebinds library functions and backend methods by name from
outside the package; a renamed or inlined target would break its traced
runs, which Tier-1 does not otherwise run.
"""

import pytest

import seqsig
from perfbench import spans, spec
from seqsig import bn254, cli, envelopes, groups, keyreg, ms, pks, sas

# the hooks rebind names in every loaded seqsig module, so load them all
OWNERS = (bn254, cli, envelopes, groups, keyreg, ms, pks, sas,
          groups.Bn254Backend, groups.MockDlogBackend, keyreg.CertRegistry)


def _bindings():
    """Every attribute of every seqsig module and of the hooked classes."""
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in list(vars(owner).items())}


@pytest.mark.parametrize("hook", ["tracer", "field-ops"])
def test_hook_installs_and_undoes_cleanly(hook):
    make = {"tracer": spans.Tracer,
            "field-ops": lambda: spans.FieldOpCounter(spec.FIELD_OPS)}[hook]
    before = _bindings()
    with make().install(seqsig):
        during = _bindings()
        assert any(during[k] is not v for k, v in before.items())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_field_op_counter_sees_every_op_in_a_pairing():
    """Each counted field op is still called through bn254's globals by a
    pairing, so the benchmark's field-op counts stay meaningful."""
    counter = spans.FieldOpCounter(spec.FIELD_OPS)
    with counter.install(seqsig):
        bn254.pairing(bn254.G1_GEN, bn254.G2_GEN)
    assert all(n > 0 for n in counter.counts.values()), counter.counts


def test_g2_membership_is_one_traced_check_that_decoding_does_not_make():
    """The benchmark's ``bn254.g2_in_subgroup`` span counts exact G2
    membership checks: each ``has_order_r`` call on a G2 element makes one,
    and no ``bn254.g2_multi_exp`` span, so traced G2 exponentiations count
    exponentiations only; building a G2 table makes one, as
    ``bn254.g2_table`` checks its point; decoding a G2 element, which
    checks the twist equation only, makes none."""
    suite = groups.suite_generate("real")
    data = groups.encode_element(suite.g_hat ** 5)
    tracer = spans.Tracer()
    with tracer.install(seqsig):
        elem = tracer.run_op(0, lambda: groups.decode_element(suite, "g2", data))
        assert tracer.run_op(1, lambda: [groups.has_order_r(elem) for _ in range(2)]) == [True] * 2
        tracer.run_op(2, lambda: suite.backend.table("g2", elem.h))
    labels = [(rec[4], rec[0]) for rec in tracer.spans]
    assert (0, "groups.decode.g2") in labels
    assert (0, "bn254.g2_in_subgroup") not in labels
    assert labels.count((1, "bn254.g2_in_subgroup")) == 2
    assert (1, "bn254.g2_multi_exp") not in labels
    assert labels.count((2, "bn254.g2_in_subgroup")) == 1

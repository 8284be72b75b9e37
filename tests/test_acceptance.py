"""Acceptance gate: ten exit criteria, one verdict line each.

Each criterion is a single test; its PASS/FAIL line is echoed in the
terminal summary (see conftest). Criteria are self-contained so a red
line always identifies the broken property directly.
"""

import random
import time

import pytest

import dual_system as ds
from conftest import ACCEPTANCE_LINES, SharedStream
from seqsig import envelopes, keyreg, ms, pks, sas
from seqsig.groups import pairing_product, suite_generate

LARGE_MOCK_PRIME = (1 << 31) - 1  # Mersenne prime M31


def _report(num, desc, ok, extra=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    line = f"criterion {num:2d}: {verdict} - {desc}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _msg(rng):
    return rng.getrandbits(128).to_bytes(16, "big")


# ---------------------------------------------------------------------------

def test_criterion_01_round_trips():
    """200 randomized sign->verify round trips per scheme on both backends."""
    trials = 200
    start = time.perf_counter()
    counts = {}
    for backend, order in (("mock", 10007), ("real", None)):
        suite = suite_generate(backend, order) if order else suite_generate(backend)
        rng = random.Random(0xA11CE + (order or 0))
        for variant in pks.VARIANTS:
            pk, sk = pks.keygen(suite, variant, rng)
            ok = 0
            for _ in range(trials):
                m = _msg(rng)
                sig = pks.sign(variant, m, sk, pk, rng)
                ok += pks.verify(variant, sig, m, pk, rng)
            counts[(backend, variant)] = ok
        for variant in sas.VARIANTS:
            params = sas.setup(suite, variant, rng)
            pub, priv = sas.keygen(params, rng)
            ok = 0
            for _ in range(trials):
                agg = sas.agg_sign(params, sas.empty_aggregate(params), _msg(rng),
                                   pub, priv, rng)
                ok += sas.agg_verify(params, agg, rng)
            counts[(backend, variant)] = ok
        params = ms.ms_setup(suite, rng)
        mpk, msk = ms.ms_keygen(params, rng)
        ok = 0
        for _ in range(trials):
            m = _msg(rng)
            sig = ms.ms_sign(params, m, msk, rng)
            ok += ms.ms_verify(sig, m, mpk, params, rng)
        counts[(backend, "ms")] = ok
    elapsed = time.perf_counter() - start
    all_pass = all(v == trials for v in counts.values())
    _report(1, "200 sign/aggregate->verify round trips per scheme, both backends",
            all_pass, f"{12 * trials} trials, {elapsed:.1f}s on this host")


def test_criterion_02_compact_aggregates():
    """Aggregate/multi-signature element counts: 8 (sas1), 6 (sas2, ms)."""
    suite = suite_generate("mock", 10007)
    rng = random.Random(2)
    ok = True
    observed = {}
    for variant, want in (("sas1", 8), ("sas2", 6)):
        params = sas.setup(suite, variant, rng)
        for l in (0, 1, 5, 20):
            agg = sas.empty_aggregate(params)
            for i in range(l):
                pub, priv = sas.keygen(params, rng)
                agg = sas.agg_sign(params, agg, _msg(rng), pub, priv, rng)
            observed[(variant, l)] = len(agg.elements())
            ok &= len(agg.elements()) == want
    params = ms.ms_setup(suite, rng)
    for l in (1, 5, 20):
        keys = [ms.ms_keygen(params, rng) for _ in range(l)]
        sigs = [ms.ms_sign(params, b"joint", sk, rng) for _, sk in keys]
        msig = ms.ms_combine(sigs, b"joint", [pk for pk, _ in keys], params, rng,
                             skip_individual_checks=True)
        observed[("ms", l)] = len(msig.elements())
        ok &= len(msig.elements()) == 6
    _report(2, "aggregate widths are 8/6/6 elements for l in {0,1,5,20}",
            ok, f"observed {sorted(set(observed.values()))}")


def test_criterion_03_public_key_sizes():
    suite = suite_generate("mock", 10007)
    rng = random.Random(3)
    p1 = sas.setup(suite, "sas1", rng)
    p2 = sas.setup(suite, "sas2", rng)
    n1 = len(sas.keygen(p1, rng)[0].elements())
    n2 = len(sas.keygen(p2, rng)[0].elements())
    _report(3, "signer public keys are 11 (sas1) and 13 (sas2) elements",
            (n1, n2) == (11, 13), f"observed {n1}/{n2}")


def test_criterion_04_constant_pairing_cost():
    suite = suite_generate("mock", 10007)
    rng = random.Random(4)
    ok = True
    observed = {}
    for variant, want in (("sas1", 8), ("sas2", 6)):
        params = sas.setup(suite, variant, rng)
        for l in (1, 5, 20):
            agg = sas.empty_aggregate(params)
            for i in range(l):
                pub, priv = sas.keygen(params, rng)
                agg = sas.agg_sign(params, agg, _msg(rng), pub, priv, rng,
                                   verify_prev=False)
            before = suite.pairing_count
            assert sas.agg_verify(params, agg, rng)
            observed[(variant, l)] = suite.pairing_count - before
            ok &= observed[(variant, l)] == want
    params = ms.ms_setup(suite, rng)
    for l in (1, 5, 20):
        keys = [ms.ms_keygen(params, rng) for _ in range(l)]
        sigs = [ms.ms_sign(params, b"j", sk, rng) for _, sk in keys]
        msig = ms.ms_combine(sigs, b"j", [pk for pk, _ in keys], params, rng,
                             skip_individual_checks=True)
        before = suite.pairing_count
        assert ms.ms_mult_verify(msig, b"j", [pk for pk, _ in keys], params, rng)
        observed[("ms", l)] = suite.pairing_count - before
        ok &= observed[("ms", l)] == 6
    _report(4, "verification pairing count is 8/6/6 independent of l in {1,5,20}",
            ok, f"deltas {sorted(set(observed.values()))}")


def test_criterion_05_mock_oracle_equivalence():
    """Identical exponent streams on MockDlog(2^31-1) and the real curve
    must yield identical verdicts over 1000 transcripts."""
    trials = 1000
    start = time.perf_counter()
    verdicts = {}
    for backend in ("mock", "real"):
        suite = (suite_generate("mock", LARGE_MOCK_PRIME) if backend == "mock"
                 else suite_generate("real"))
        stream = SharedStream(0xEC0)
        p = suite.order
        d = lambda: stream.randrange(p)
        exps = pks.Pks2Exponents(d(), d(), d(), d(), d(), d(), d(), d(), d(), d())
        pk, sk = pks.keygen_from_exponents(suite, "pks2", exps)
        out = []
        for i in range(trials):
            m = stream.randrange(p)
            r, c1, c2 = d(), d(), d()
            t = stream.randrange(1, p)
            sig = pks.sign_with_randomness("pks2", m, sk, pk, r, c1, c2)
            m_checked = (m + 1) % p if i % 4 == 3 else m  # every 4th is tampered
            out.append(pks.verify_with_coins("pks2", sig, m_checked, pk, t))
        verdicts[backend] = out
    mismatches = sum(a != b for a, b in zip(verdicts["mock"], verdicts["real"]))
    sane = (sum(verdicts["real"]) == 750)  # the tampered quarter must reject
    elapsed = time.perf_counter() - start
    _report(5, "1000 shared-stream transcripts agree between mock and real backends",
            mismatches == 0 and sane,
            f"0 mismatches required, got {mismatches}; {elapsed:.1f}s")


def test_criterion_06_hand_derived_fixture():
    """p=101 fixture, recomputed by hand: alpha=7, x=2, y=3, w=g^6,
    nu=(3,4,5), phi=(2,3,4), M=11, r=13, c=(1,2), coins t=2, s=0."""
    suite = suite_generate("mock", 101)
    exps = pks.Pks1Exponents(y_w=6, y_v=8, nu1=3, nu2=4, nu3=5,
                             phi1=2, phi2=3, phi3=4, alpha=7, x=2, y=3)
    pk, sk = pks.keygen_from_exponents(suite, "pks1", exps)
    sig = pks.sign_with_randomness("pks1", 11, sk, pk, 13, 1, 2)
    # W_{1,1} = alpha + (x*11 + y)*r + y_w*phi1*c1 = 7 + 325 + 12 = 41 (mod 101)
    w11_ok = sig.row1[0].h == 41
    v1, v2 = pks.verification_components("pks1", pk, 11, 2, 0, 0)
    product = pairing_product(zip(sig.row1, v1), zip(sig.row2, v2))
    # product must be e(g, ghat)^14 = Omega^2
    product_ok = product.h == 14 and product == pk.omega ** 2
    accept = pks.verify_with_coins("pks1", sig, 11, pk, t=2, s1=0, s2=0)
    _report(6, "hand fixture reproduces W11 = g^41 and product = Omega^2 at p=101",
            w11_ok and product_ok and accept,
            f"W11=g^{sig.row1[0].h}, product=lambda^{product.h}")


def test_criterion_07_dual_system_property():
    suite = suite_generate("mock", 10007)
    rng = random.Random(7)
    p = suite.order
    nominal_ok = mismatch_reject = residual_ok = 0
    trials = 100
    for variant in ("pks1", "pks2"):
        pk, sk, td = ds.keygen_with_trapdoor(suite, variant, rng)
        for _ in range(trials // 2):
            # nominal pair: matching tags must accept
            z = rng.randrange(p)
            tags_k = ds.SFTags(s_k=rng.randrange(1, p), z_k=z)
            tags_c = ds.SFTags(s_c=rng.randrange(1, p), z_c=z)
            sig = ds.sign_sf(variant, b"n", sk, pk, td, tags_k, rng)
            nominal_ok += ds.verify_sf(variant, sig, b"n", pk, td, tags_c, rng)
            # mismatched tags with nonzero s-values must reject
            z_k = rng.randrange(p)
            z_c = (z_k + rng.randrange(1, p)) % p
            tags = ds.SFTags(s_k=rng.randrange(1, p), z_k=z_k,
                             s_c=rng.randrange(1, p), z_c=z_c)
            bad = ds.sign_sf(variant, b"n", sk, pk, td, tags, rng)
            mismatch_reject += not ds.verify_sf(variant, bad, b"n", pk, td, tags, rng)
            # residual exponent: y_f^2 * s_k * s_c * (z_k - z_c), exactly
            m = pks.message_scalar(suite, variant, b"n")
            t = rng.randrange(1, p)
            fhat = suite.g_hat ** td.y_f
            e = td.exponents
            v1, v2 = pks.verification_components(variant, pk, m, t, 0, 0)
            s_c, sczc = tags.s_c, tags.s_c * tags.z_c % p
            if variant == "pks1":
                fneg = fhat ** (-e.phi3 % p)
                v1 = (v1[0], v1[1], v1[2] * fhat ** s_c, v1[3] * fneg ** s_c)
                v2 = (v2[0], v2[1], v2[2] * fhat ** sczc, v2[3] * fneg ** sczc)
            else:
                fneg = fhat ** (-e.phi2 % p)
                v1 = (v1[0], v1[1] * fhat ** s_c, v1[2] * fneg ** s_c)
                v2 = (v2[0], v2[1] * fhat ** sczc, v2[2] * fneg ** sczc)
            sig_m = ds.sign_sf_scalar(variant, m, sk, pk, td, tags, rng)
            lhs = pairing_product(zip(sig_m.row1, v1), zip(sig_m.row2, v2))
            want = td.y_f * td.y_f * tags.s_k * tags.s_c * (tags.z_k - tags.z_c) % p
            residual_ok += (lhs / pk.omega ** t).h == want
    _report(7, "nominal SF pairs accept 100/100; mismatched tags reject; residual exact",
            nominal_ok == trials and mismatch_reject >= trials - 1
            and residual_ok == trials,
            f"nominal {nominal_ok}/100, reject {mismatch_reject}/100, "
            f"residual {residual_ok}/100")


def test_criterion_08_proof_unwind():
    suite = suite_generate("mock", 10007)
    rng = random.Random(8)
    passed = 0
    trials = 100
    for i in range(trials):
        variant = ("sas1", "sas2")[i % 2]
        params = sas.setup(suite, variant, rng)
        l = rng.randrange(2, 11)
        agg = sas.empty_aggregate(params)
        keys, msgs = [], []
        for _ in range(l):
            pub, priv = sas.keygen(params, rng)
            msg = _msg(rng)
            agg = sas.agg_sign(params, agg, msg, pub, priv, rng, verify_prev=False)
            keys.append((pub, priv))
            msgs.append(msg)
        target = rng.randrange(l)
        witnesses = {priv.pk_id: priv for _, priv in keys}
        single = sas.strip_to_single(params, agg, target, witnesses)
        view = sas.pks_view(params, keys[target][0])
        pvariant = "pks1" if variant == "sas1" else "pks2"
        m = sas.chained_message_scalar(suite, variant, [msgs[target]])
        passed += pks.verify_scalar(pvariant, single, m, view, rng)
    _report(8, "strip_to_single of 100 random l in [2,10] aggregates verifies singly",
            passed == trials, f"{passed}/{trials}")


def _c9_real_rejections():
    suite = suite_generate("real")
    rng = random.Random(9)
    rejected = total = 0

    def check(expect_false):
        nonlocal rejected, total
        total += 1
        rejected += not expect_false

    for variant in pks.VARIANTS:
        pk, sk = pks.keygen(suite, variant, rng)
        pk2, _ = pks.keygen(suite, variant, rng)
        sig = pks.sign(variant, b"msg", sk, pk, rng)
        slot = rng.randrange(len(sig.row1))
        bad_row1 = tuple(e * suite.g if i == slot else e for i, e in enumerate(sig.row1))
        check(pks.verify(variant, pks.Signature(variant, bad_row1, sig.row2),
                         b"msg", pk, rng))          # component flip
        check(pks.verify(variant, sig, b"msh", pk, rng))   # message byte flip
        check(pks.verify(variant, sig, b"msg", pk2, rng))  # wrong key binding
    for variant in sas.VARIANTS:
        params = sas.setup(suite, variant, rng)
        agg = sas.empty_aggregate(params)
        keys = []
        for msg in (b"first", b"second"):
            pub, priv = sas.keygen(params, rng)
            keys.append(pub)
            agg = sas.agg_sign(params, agg, msg, pub, priv, rng, verify_prev=False)
        bad_row = (agg.row1[0] * suite.g,) + agg.row1[1:]
        check(sas.agg_verify(params, sas.AggregateSignature(
            variant, bad_row, agg.row2, agg.messages, agg.signers), rng))
        bad_msgs = ((agg.messages[0] + 1) % suite.order,) + agg.messages[1:]
        check(sas.agg_verify(params, sas.AggregateSignature(
            variant, agg.row1, agg.row2, bad_msgs, agg.signers), rng))
        swapped = (agg.signers[1], agg.signers[0])
        check(sas.agg_verify(params, sas.AggregateSignature(
            variant, agg.row1, agg.row2, agg.messages, swapped), rng))
    params = ms.ms_setup(suite, rng)
    keys = [ms.ms_keygen(params, rng) for _ in range(2)]
    sigs = [ms.ms_sign(params, b"joint", sk, rng) for _, sk in keys]
    pk_list = [pk for pk, _ in keys]
    msig = ms.ms_combine(sigs, b"joint", pk_list, params, rng,
                         skip_individual_checks=True)
    bad = ms.MsSignature((msig.row1[0] * suite.g,) + msig.row1[1:], msig.row2)
    check(ms.ms_mult_verify(bad, b"joint", pk_list, params, rng))
    check(ms.ms_mult_verify(msig, b"joins", pk_list, params, rng))
    check(ms.ms_mult_verify(msig, b"joint", pk_list[:1], params, rng))
    return rejected, total


def _c9_mock_false_accepts(trials=2000):
    suite = suite_generate("mock", 101)
    rng = random.Random(99)
    accepts = 0
    variants = ("pks1", "pks2", "lw")
    keys = {v: pks.keygen(suite, v, rng) for v in variants}
    for i in range(trials):
        variant = variants[i % 3]
        pk, sk = keys[variant]
        m = rng.randrange(suite.order)
        sig = pks.sign_scalar(variant, m, sk, pk, rng)
        row1, row2 = list(sig.row1), list(sig.row2)
        row = row1 if rng.random() < 0.5 else row2
        row[rng.randrange(len(row))] *= suite.g ** rng.randrange(1, 101)
        bad = pks.Signature(variant, tuple(row1), tuple(row2))
        accepts += pks.verify_scalar(variant, bad, m, pk, rng)
    return accepts, trials


def test_criterion_09_tamper_soundness():
    rejected, total = _c9_real_rejections()
    accepts, trials = _c9_mock_false_accepts()
    rate = accepts / trials
    _report(9, "every tamper mode rejects on real; mock p=101 false-accept rate < 5%",
            rejected == total and rate < 0.05,
            f"real {rejected}/{total} rejected; mock {accepts}/{trials} "
            f"false accepts ({100 * rate:.2f}%)")


def test_criterion_10_security_theorems_not_tested():
    """NOT TESTED: the schemes' unforgeability rests on hardness-assumption
    reductions that no experiment here can reproduce or measure. The suites
    above exercise correctness, compactness, cost, the dual-system
    cancellation structure, and tamper rejection - none of them is a
    forgery experiment, and no test in this repository claims to measure
    unforgeability."""
    _report(10, "stated: unforgeability reductions are NOT tested by this suite",
            True, "documentation-only criterion")

"""The three benchmark workloads.

Each workload sets up from its seed alone, then runs op ``i`` on demand with
an rng derived from (seed, workload, i), so an op does the same work whether
it runs timed, traced or counted. The library only ever receives the
generated keys, messages and rng.

``kind(i)`` names the kind of op ``i`` for the runner's per-kind latency.
``op`` records the latency of each library call by kind and returns a list
of ``(what, check)`` pairs; a check is a bool or a callable that the runner
evaluates after the op's timing has stopped (round-trips, for example).

Library functions are looked up on their module at call time
(``sas.agg_sign``, never a local alias) so that the traced run's rebinding
sees every call.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import struct
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

from seqsig import envelopes, groups, keyreg, ms, pks, sas
from seqsig.errors import InvalidAggregateError


def make_suite(backend: str):
    """``real`` or ``mock:<prime>``."""
    if backend == "real":
        return groups.suite_generate("real")
    kind, _, order = backend.partition(":")
    if kind != "mock" or not order.isdigit():
        raise ValueError(f"backend must be 'real' or 'mock:<prime>', got {backend!r}")
    return groups.suite_generate("mock", int(order))


def op_rng(seed, name, i):
    return random.Random(f"{seed}/{name}/op{i}")


_P = 21888242871839275222246405745257518101583133097916519470452599001051929208583


def reference_work(rounds=1000):
    """The benchmark's fixed yardstick: Fp2-style multiplies on 254-bit Python
    ints, the same kind of interpreter and big-int work as the library's hot
    paths, but written here so no library change can alter it. Its duration
    tracks how fast this CPU runs Python at that moment."""
    a, b, c, d = 1234567, 7654321, 3, 5
    for _ in range(rounds):
        t0, t1 = a * c, b * d
        a, b = (t0 - t1) % _P, ((a + b) * (c + d) - t0 - t1) % _P
        c, d = (3 * c + 1) % _P, (5 * d + 2) % _P
    return a


class Recorder:
    """Latency samples keyed by kind (``sign``, ``verify.sas2``, ...).

    ``samples`` are wall-clock ms. With ``probe`` on, one run of
    :func:`reference_work` is timed as each sample starts and ends, and
    ``relative`` holds the sample's duration over the mean duration of the
    reference runs at its start, its end and its nested samples' ends: the
    sample's cost in reference runs, which a shared host slowing down or
    speeding up between runs leaves unchanged. Reference time spent inside
    a sample is not counted in it.
    """

    def __init__(self, probe=False):
        self.samples = defaultdict(list)
        self.relative = defaultdict(list)
        self.probe = probe
        self.probes = []
        self.probe_s = 0.0

    def _probe(self):
        if self.probe:
            t0 = time.perf_counter()
            reference_work()
            d = time.perf_counter() - t0
            self.probes.append(d)
            self.probe_s += d

    @contextmanager
    def timing(self, kind):
        self._probe()
        first, probed = len(self.probes) - 1, self.probe_s
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start - (self.probe_s - probed)
            self._probe()
            self.samples[kind].append(1e3 * elapsed)
            if self.probe:
                self.relative[kind].append(elapsed / statistics.fmean(self.probes[first:]))

    def timed(self, kind, fn, *args, **kwargs):
        with self.timing(kind):
            return fn(*args, **kwargs)


def _alter_message(agg, order):
    """The same aggregate with its first message scalar changed."""
    return dataclasses.replace(agg, messages=((agg.messages[0] + 1) % order,) + agg.messages[1:])


def _tampered(n):
    """Every 8th verification input (n = 7, 15, ...) is tampered with."""
    return n % 8 == 7


def _verdict(tampered, verdict):
    return ("tampered input rejected" if tampered else "honest input accepted"), verdict is (not tampered)


def _register_all(params, registry, keys):
    for pub, priv in keys:
        registry.register(params, pub, keyreg.witness_from_private(params.variant, priv))


class Chain20:
    """Certificate chains: 20 checked sas2 appends, then relying-party verifies."""

    name = "chain20"
    unit = 1
    signers = 20
    relying_parties = 8

    def kind(self, i):
        return "chain"

    def __init__(self, backend, seed):
        rng = random.Random(f"{seed}/{self.name}/setup")
        self.suite = make_suite(backend)
        self.params = sas.setup(self.suite, "sas2", rng)
        self.keys = [sas.keygen(self.params, rng) for _ in range(self.signers)]
        registry = keyreg.CertRegistry(self.suite)
        _register_all(self.params, registry, self.keys)
        self.certified = registry.predicate()

    def op(self, i, rec, rng):
        params = self.params
        agg = sas.empty_aggregate(params)
        with rec.timing("chain"):
            for k, (pub, priv) in enumerate(self.keys):
                agg = rec.timed("sign", sas.agg_sign, params, agg, b"chain %d link %d" % (i, k),
                                pub, priv, rng, certified=self.certified)
        checks = []
        for j in range(self.relying_parties):
            bad = _tampered(i * self.relying_parties + j)
            target = _alter_message(agg, self.suite.order) if bad else agg
            verdict = rec.timed("verify.sas2", sas.agg_verify, params, target, rng,
                                certified=self.certified)
            checks.append(_verdict(bad, verdict))
        checks.append(("final aggregate round-trips", lambda: self._round_trip(agg)))
        return checks

    def _round_trip(self, agg):
        data = envelopes.encode_aggregate(agg)
        back = envelopes.decode_aggregate(self.suite, data, [pub for pub, _ in self.keys])
        return (envelopes.encode_aggregate(back) == data and back.row1 == agg.row1
                and back.row2 == agg.row2 and back.messages == agg.messages
                and back.signers == agg.signers)


class VerifyShort:
    """One fixed round of short signs and verifies, with at most 2 MSM terms per slot."""

    name = "verify-short"
    unit = 1
    ms_signers = 10
    combined_shares = 4
    ms_message = b"ms statement"

    def kind(self, i):
        return "round"

    def __init__(self, backend, seed):
        rng = random.Random(f"{seed}/{self.name}/setup")
        suite = self.suite = make_suite(backend)
        self.pks_keys = {v: pks.keygen(suite, v, rng) for v in ("pks1", "pks2")}
        self.sas1 = sas.setup(suite, "sas1", rng)
        pub, priv = sas.keygen(self.sas1, rng)
        self.sas1_agg = sas.agg_sign(self.sas1, sas.empty_aggregate(self.sas1),
                                     b"sas1 statement", pub, priv, rng)
        self.ms = ms.ms_setup(suite, rng)
        keys = [ms.ms_keygen(self.ms, rng) for _ in range(self.ms_signers)]
        self.ms_pks = [pk for pk, _ in keys]
        self.ms_sks = [sk for _, sk in keys]
        self.shares = [ms.ms_sign(self.ms, self.ms_message, sk, rng) for sk in self.ms_sks]
        self.msig = ms.ms_combine(self.shares, self.ms_message, self.ms_pks, self.ms,
                                  rng, skip_individual_checks=True)
        self.bad_share = ms.ms_sign(self.ms, b"another statement", self.ms_sks[3], rng)

    def op(self, i, rec, rng):
        checks = []
        n = 5 * i  # verification inputs per round: pks1, pks2, sas1, combine, ms
        message = b"round %d" % i
        for pos, variant in enumerate(("pks1", "pks2")):
            pk, sk = self.pks_keys[variant]
            sig = rec.timed("sign", pks.sign, variant, message, sk, pk, rng)
            bad = _tampered(n + pos)
            verdict = rec.timed(f"verify.{variant}", pks.verify, variant, sig,
                                message + b"!" if bad else message, pk, rng)
            checks.append(_verdict(bad, verdict))

        bad = _tampered(n + 2)
        agg = _alter_message(self.sas1_agg, self.suite.order) if bad else self.sas1_agg
        checks.append(_verdict(bad, rec.timed("verify.sas1", sas.agg_verify, self.sas1, agg, rng)))

        share = rec.timed("sign", ms.ms_sign, self.ms, self.ms_message, self.ms_sks[0], rng)
        bad = _tampered(n + 3)
        shares = [share] + self.shares[1:self.combined_shares - 1]
        shares.append(self.bad_share if bad else self.shares[self.combined_shares - 1])
        signers = self.ms_pks[:self.combined_shares]
        try:
            combined = rec.timed("combine", ms.ms_combine, shares, self.ms_message,
                                 signers, self.ms, rng)
        except InvalidAggregateError:
            combined = None
        checks.append(_verdict(bad, combined is not None))
        if combined is not None:
            checks.append(("combine is the product of its shares",
                           lambda: combined == ms.ms_combine(shares, self.ms_message, signers, self.ms,
                                                             rng, skip_individual_checks=True)))

        bad = _tampered(n + 4)
        verdict = rec.timed("verify.ms", ms.ms_mult_verify, self.msig,
                            self.ms_message + b"!" if bad else self.ms_message,
                            self.ms_pks, self.ms, rng)
        checks.append(_verdict(bad, verdict))
        return checks


class ColdFiles:
    """Every op starts from envelope bytes in a fresh suite, as one CLI process does.

    Ops cycle through 3 file-verifies and 1 file-register.
    """

    name = "cold-files"
    unit = 4
    registered = 32
    chain_length = 5
    fresh_keys = 4

    def __init__(self, backend, seed):
        rng = random.Random(f"{seed}/{self.name}/setup")
        self.backend = backend
        suite = make_suite(backend)
        params = sas.setup(suite, "sas2", rng)
        keys = [sas.keygen(params, rng) for _ in range(self.registered)]
        registry = keyreg.CertRegistry(suite)
        _register_all(params, registry, keys)
        certified = registry.predicate()
        signers = keys[:self.chain_length]
        agg = sas.empty_aggregate(params)
        for k, (pub, priv) in enumerate(signers[:-1]):
            agg = sas.agg_sign(params, agg, b"file statement %d" % k, pub, priv, rng,
                               certified=certified)
        last = b"file statement %d" % (self.chain_length - 1)
        outsider = sas.keygen(params, rng)

        def finish(pub, priv):
            full = sas.agg_sign(params, agg, last, pub, priv, rng, certified=certified)
            return envelopes.encode_aggregate(full)

        self.params_bytes = envelopes.encode_params(params)
        self.registry_bytes = registry.save_bytes()
        self.key_bytes = [envelopes.encode_public_key(pub) for pub, _ in signers]
        self.agg_bytes = finish(*signers[-1])
        self.uncertified_key_bytes = self.key_bytes[:-1] + [envelopes.encode_public_key(outsider[0])]
        self.uncertified_agg_bytes = finish(*outsider)
        self.fresh = []
        for _ in range(self.fresh_keys):
            pub, priv = sas.keygen(params, rng)
            self.fresh.append((envelopes.encode_public_key(pub),
                               envelopes.encode_private_key(suite, "sas2", priv)))
        # offset of the record count in a registry envelope
        self.registry_split = len(envelopes._header(envelopes.MAGIC_REGISTRY, suite))

    def kind(self, i):
        return "file-register" if i % self.unit == self.unit - 1 else "file-verify"

    def op(self, i, rec, rng):
        suite = make_suite(self.backend)
        if self.kind(i) == "file-register":
            return self._register(suite, i // self.unit, rec)
        return self._verify(suite, _tampered(i - i // self.unit), rec, rng)

    def _load(self, suite):
        params = envelopes.decode_params(suite, self.params_bytes)
        registry = keyreg.CertRegistry.load_bytes(suite, self.registry_bytes)
        return params, registry

    def _verify(self, suite, uncertified, rec, rng):
        key_bytes = self.uncertified_key_bytes if uncertified else self.key_bytes
        agg_bytes = self.uncertified_agg_bytes if uncertified else self.agg_bytes
        with rec.timing("load"):
            params, registry = self._load(suite)
            keys = [envelopes.decode_public_key(suite, b) for b in key_bytes]
            agg = envelopes.decode_aggregate(suite, agg_bytes, keys)
        # a rejection before any pairing is not timed as a verify
        verdict = rec.timed("reject" if uncertified else "verify.sas2", sas.agg_verify,
                            params, agg, rng, certified=registry.predicate())
        checks = [_verdict(uncertified, verdict)]
        if uncertified:
            checks.append(("uncertified signer rejected before any pairing",
                           suite.pairing_count == 0))
        checks += [
            ("params round-trip", lambda: envelopes.encode_params(params) == self.params_bytes),
            ("registry round-trip", lambda: registry.save_bytes() == self.registry_bytes),
            ("keys round-trip", lambda: [envelopes.encode_public_key(k) for k in keys] == key_bytes),
            ("aggregate round-trip", lambda: envelopes.encode_aggregate(agg) == agg_bytes),
        ]
        return checks

    def _register(self, suite, j, rec):
        pub_bytes, priv_bytes = self.fresh[j % self.fresh_keys]
        with rec.timing("load"):
            params, registry = self._load(suite)
            pk = envelopes.decode_public_key(suite, pub_bytes)
            variant, sk = envelopes.decode_private_key(suite, priv_bytes)
        with rec.timing("register"):
            registry.register(params, pk, keyreg.witness_from_private(variant, sk))
            saved = registry.save_bytes()
        old, cut = self.registry_bytes, self.registry_split
        return [
            ("new key certified",
             lambda: registry.is_certified(pk) and len(registry) == self.registered + 1),
            # the loaded records re-encode unchanged, then the new one follows
            ("registry round-trip", lambda: saved[:cut] == old[:cut]
             and saved[cut:cut + 4] == struct.pack(">I", self.registered + 1)
             and saved[cut + 4:len(old)] == old[cut + 4:]),
            ("params round-trip", lambda: envelopes.encode_params(params) == self.params_bytes),
            ("public key round-trip", lambda: envelopes.encode_public_key(pk) == pub_bytes),
            ("private key round-trip",
             lambda: envelopes.encode_private_key(suite, variant, sk) == priv_bytes),
        ]


class Outcome:
    """Samples, op count, time spent in ops and failures of one pass."""

    def __init__(self, probe=False):
        self.rec = Recorder(probe)
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.errors = []

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def run_ops(workload, seed, *, seconds=None, n_ops=None, tracer=None, probe=False):
    """Closed loop, one client: op i+1 starts when op i and its checks are done.

    Runs whole units of ``workload.unit`` ops, either until ``seconds`` have
    passed or for exactly ``n_ops`` ops. ``probe`` times the reference work
    around every sample (see :class:`Recorder`).
    """
    out = Outcome(probe)
    start = time.perf_counter()
    i = 0
    while True:
        if i % workload.unit == 0:
            if n_ops is not None and i >= n_ops:
                break
            if n_ops is None and time.perf_counter() - start >= seconds:
                break
        rng = op_rng(seed, workload.name, i)
        op_ms = out.rec.samples["op." + workload.kind(i)]
        try:
            with out.rec.timing("op." + workload.kind(i)):
                if tracer is None:
                    checks = workload.op(i, out.rec, rng)
                else:
                    checks = tracer.run_op(i, lambda: workload.op(i, out.rec, rng))
            bad = [what for what, check in checks if not (check() if callable(check) else check)]
        except Exception:  # an op that raises is a failed op; the run goes on
            bad = [traceback.format_exc(limit=3)]
        out.busy_s += op_ms[-1] / 1e3
        out.attempted += 1
        if bad:
            out.failed += 1
            out.errors.append(f"op {i}: " + "; ".join(bad))
        i += 1
    return out


WORKLOADS = {cls.name: cls for cls in (Chain20, VerifyShort, ColdFiles)}

"""Spans and counters wrapped around seqsig's public functions from outside.

No file of the package changes: a module-level function is rebound in the
namespace of every ``seqsig`` module that holds it (``sas`` and ``ms`` do
``from .groups import multi_exp``), and backend methods are rebound on the
backend class. :class:`Patches` undoes every rebinding on exit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _seqsig_modules():
    return [m for n, m in list(sys.modules.items()) if n == "seqsig" or n.startswith("seqsig.")]


class Patches:
    """Rebinds functions for the duration of a ``with`` block."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        """Replace ``module.name`` everywhere it was imported by name."""
        original = getattr(module, name)
        replacement = make(original)
        for mod in _seqsig_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def method(self, cls, name, make):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, name, replacement)
        self._undo.append((cls, name, raw))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _listed(index):
    """Size argument ``index`` is materialised (it may be a zip) and counted."""
    def prepare(args):
        args = list(args)
        args[index] = list(args[index])
        return args, len(args[index])
    return prepare


def _pairing_pairs(args):
    args = [list(a) for a in args]
    return args, sum(len(a) for a in args)


def _span_targets(seqsig):
    """(owner, attribute, span label, kind-argument index, size preparer).

    Method targets take ``self`` first, so their kind argument is index 1.
    """
    bn254, groups = seqsig.bn254, seqsig.groups
    env, keyreg = seqsig.envelopes, seqsig.keyreg
    pks, sas, ms = seqsig.pks, seqsig.sas, seqsig.ms
    funcs = [
        (bn254, "g2_multi_exp", "bn254.g2_multi_exp", None, _listed(0)),
        (bn254, "miller_loop_product", "bn254.miller_loop_product", None, _listed(0)),
        (bn254, "final_exponentiation", "bn254.final_exponentiation", None, None),
        (bn254, "g1_mul", "bn254.g1_mul", None, None),
        (bn254, "g1_add", "bn254.g1_add", None, None),
        (bn254, "gt_pow", "bn254.gt_pow", None, None),
        (bn254, "g2_in_subgroup", "bn254.g2_in_subgroup", None, None),
        (groups, "multi_exp", "groups.multi_exp", None, _listed(0)),
        (groups, "pairing_product", "groups.pairing_product", None, _pairing_pairs),
        (groups, "hash_to_scalar", "groups.hash_to_scalar", None, None),
        (pks, "key_id", "pks.key_id", None, None),
        (pks, "sign", "pks.sign", None, None),
        (pks, "verify", "pks.verify", None, None),
        (sas, "agg_sign", "sas.agg_sign", None, None),
        (sas, "agg_verify", "sas.agg_verify", None, None),
        (ms, "ms_sign", "ms.ms_sign", None, None),
        (ms, "ms_combine", "ms.ms_combine", None, None),
        (ms, "ms_mult_verify", "ms.ms_mult_verify", None, None),
        (env, "decode_params", "envelopes.decode_params", None, None),
        (env, "decode_public_key", "envelopes.decode_public_key", None, None),
        (env, "decode_private_key", "envelopes.decode_private_key", None, None),
        (env, "decode_aggregate", "envelopes.decode_aggregate", None, None),
    ]
    methods = [
        (keyreg.CertRegistry, "load_bytes", "keyreg.load_bytes", None, None),
        (keyreg.CertRegistry, "register", "keyreg.register", None, None),
        (keyreg.CertRegistry, "save_bytes", "keyreg.save_bytes", None, None),
    ]
    for cls in (groups.Bn254Backend, groups.MockDlogBackend):
        methods += [
            (cls, "exp", "groups.exp", 1, None),
            (cls, "op", "groups.op", None, None),
            (cls, "decode", "groups.decode", 1, None),
            (cls, "encode", "groups.encode", None, None),
        ]
    return funcs, methods


class Tracer:
    """In-memory spans: [label, start, end, parent index, op id, size].

    Spans are recorded only while ``op_id`` is set, i.e. inside a timed op;
    correctness checks run between ops and leave no spans.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    def _wrap(self, fn, label, kind_index, prepare):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            name = label if kind_index is None else f"{label}.{args[kind_index]}"
            size = None
            if prepare is not None:
                args, size = prepare(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, size]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, seqsig) -> Patches:
        patches = Patches()
        funcs, methods = _span_targets(seqsig)
        for owner, attr, label, kind_index, prepare in funcs:
            patches.function(owner, attr, lambda fn, a=(label, kind_index, prepare): self._wrap(fn, *a))
        for owner, attr, label, kind_index, prepare in methods:
            patches.method(owner, attr, lambda fn, a=(label, kind_index, prepare): self._wrap(fn, *a))
        return patches

    def run_op(self, op_id, fn):
        """Run ``fn()`` as op ``op_id`` under a root span ``bench.op``."""
        rec = ["bench.op", 0.0, 0.0, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.op_id = op_id
        rec[1] = time.perf_counter()
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter()
            self.op_id = None
            self._stack.pop()

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self, n_ops):
        """Per-op calls, size and self time for each span label, plus the
        largest relative gap between an op's summed self times and its
        root duration (zero up to rounding when every span nests)."""
        own = self.self_times()
        calls, size, self_s = defaultdict(int), defaultdict(int), defaultdict(float)
        per_op_self = defaultdict(float)
        for rec, own_s in zip(self.spans, own):
            name, _, _, _, op, n = rec
            calls[name] += 1
            size[name] += n or 0
            self_s[name] += own_s
            per_op_self[op] += own_s
        gap = 0.0
        for rec in self.spans:
            if rec[0] == "bench.op":
                dur = rec[2] - rec[1]
                gap = max(gap, abs(per_op_self[rec[4]] - dur) / dur)
        stats = {
            name: {
                "calls": calls[name] / n_ops,
                "qty": size[name] / n_ops,
                "self_ms": 1e3 * self_s[name] / n_ops,
            }
            for name in calls
        }
        return stats, gap

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "size"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class FieldOpCounter:
    """Exact call counts of the named ``bn254`` field operations."""

    def __init__(self, names):
        self.counts = dict.fromkeys(names, 0)

    def install(self, seqsig) -> Patches:
        patches = Patches()
        for name in self.counts:
            patches.function(seqsig.bn254, name, lambda fn, n=name: self._wrap(fn, n))
        return patches

    def _wrap(self, fn, name):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

"""Command-line surface: files in, files out, exit codes for pipelines.

Every command is a thin delegation to exactly one library operation.
Exit codes: 0 = success/valid, 1 = cryptographically invalid,
2 = malformed input. One machine-readable ``key=value`` result line is
printed on standard output per command.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import envelopes, keyreg, ms, pks, sas
from .errors import (
    InvalidAggregateError,
    KeyMismatchError,
    MalformedEncodingError,
    RegistrationError,
    SeqsigError,
    SubgroupMembershipError,
)
from .groups import suite_generate

REGISTRY_ENV = "SEQSIG_REGISTRY"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2


def _emit(**fields):
    print(" ".join(f"{k}={v}" for k, v in fields.items()))


def _make_suite(spec: str):
    if spec == "real":
        return suite_generate("real")
    if spec.startswith("mock:"):
        try:
            return suite_generate("mock", int(spec.split(":", 1)[1], 0))
        except ValueError as exc:
            raise MalformedEncodingError(f"bad mock order in {spec!r}: {exc}") from None
    raise MalformedEncodingError(f"unknown backend {spec!r} (use real or mock:P)")


def _make_rng(args):
    if args.seed is not None:
        if not args.test_mode:
            raise MalformedEncodingError("--seed requires --test-mode")
        return random.Random(args.seed)
    return random.SystemRandom()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return envelopes.from_wire(fh.read())


def _write(path: str, data: bytes, fmt: str):
    with open(path, "wb") as fh:
        fh.write(envelopes.to_wire(data, fmt))


def _message_bytes(args) -> bytes:
    if args.message_file is not None:
        with open(args.message_file, "rb") as fh:
            return fh.read()
    if args.message is not None:
        return args.message.encode("utf-8")
    raise MalformedEncodingError("a message (--message or --message-file) is required")


def _registry_path(args) -> str | None:
    return args.registry or os.environ.get(REGISTRY_ENV)


def _load_registry(suite, args, *, required=False):
    path = _registry_path(args)
    if path is None or not os.path.exists(path):
        if required:
            raise MalformedEncodingError("no registry file (use --registry or the environment)")
        return None
    return keyreg.CertRegistry.load(suite, path)


def _load_params(suite, args, scheme):
    if args.params is None:
        raise MalformedEncodingError(f"scheme {scheme} needs a parameter file (--params)")
    params = envelopes.decode_params(suite, _read(args.params))
    if params.variant != scheme:
        raise MalformedEncodingError(f"parameter file is for {params.variant}, not {scheme}")
    return params


def _load_signer_keys(suite, paths):
    return [envelopes.decode_public_key(suite, _read(p)) for p in paths or []]


# ---------------------------------------------------------------------------
# commands

def cmd_setup(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    if args.scheme in sas.VARIANTS:
        params = sas.setup(suite, args.scheme, rng)
    elif args.scheme == "ms":
        params = ms.ms_setup(suite, rng)
    else:
        raise MalformedEncodingError(f"scheme {args.scheme!r} has no shared parameters")
    _write(args.out, envelopes.encode_params(params), args.format)
    _emit(result="ok", command="setup", scheme=args.scheme, out=args.out)
    return EXIT_OK


def cmd_keygen(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    if args.scheme in pks.VARIANTS:
        pk, sk = pks.keygen(suite, args.scheme, rng)
    else:
        params = _load_params(suite, args, args.scheme)
        if args.scheme in sas.VARIANTS:
            pk, sk = sas.keygen(params, rng)
        else:
            pk, sk = ms.ms_keygen(params, rng)
    _write(args.pub_out, envelopes.encode_public_key(pk), args.format)
    _write(args.priv_out, envelopes.encode_private_key(suite, args.scheme, sk), args.format)
    _emit(result="ok", command="keygen", scheme=args.scheme,
          key_id=pks.key_id(pk).hex()[:16])
    return EXIT_OK


def cmd_sign(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    pk = envelopes.decode_public_key(suite, _read(args.pub))
    variant, sk = envelopes.decode_private_key(suite, _read(args.priv))
    if variant != args.scheme or pk.variant != args.scheme:
        raise MalformedEncodingError("key files do not match --scheme")
    sig = pks.sign(variant, _message_bytes(args), sk, pk, rng)
    _write(args.out, envelopes.encode_signature(sig), args.format)
    _emit(result="ok", command="sign", scheme=variant, out=args.out)
    return EXIT_OK


def cmd_verify(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    pk = envelopes.decode_public_key(suite, _read(args.pub))
    sig = envelopes.decode_signature(suite, _read(args.sig))
    if sig.variant != args.scheme:
        raise MalformedEncodingError("signature file does not match --scheme")
    if pk.variant != args.scheme:
        raise MalformedEncodingError("public key file does not match --scheme")
    ok_ = pks.verify(sig.variant, sig, _message_bytes(args), pk, rng)
    _emit(result="valid" if ok_ else "invalid", command="verify", scheme=sig.variant)
    return EXIT_OK if ok_ else EXIT_INVALID


def cmd_agg_sign(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    params = _load_params(suite, args, args.scheme)
    known = _load_signer_keys(suite, args.keys)
    pub = envelopes.decode_public_key(suite, _read(args.pub))
    variant, priv = envelopes.decode_private_key(suite, _read(args.priv))
    if variant != args.scheme:
        raise MalformedEncodingError("private key does not match --scheme")
    if args.prev is not None:
        prev = envelopes.decode_aggregate(suite, _read(args.prev), known + [pub])
    else:
        prev = sas.empty_aggregate(params)
    registry = _load_registry(suite, args)
    certified = registry.predicate() if registry is not None else None
    agg = sas.agg_sign(params, prev, _message_bytes(args), pub, priv, rng,
                       certified=certified)
    _write(args.out, envelopes.encode_aggregate(agg), args.format)
    _emit(result="ok", command="agg-sign", scheme=variant, l=agg.length, out=args.out)
    return EXIT_OK


def cmd_agg_verify(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    params = _load_params(suite, args, args.scheme)
    known = _load_signer_keys(suite, args.keys)
    agg = envelopes.decode_aggregate(suite, _read(args.agg), known)
    registry = _load_registry(suite, args)
    certified = registry.predicate() if registry is not None else None
    if certified is not None and not all(certified(s) for s in agg.signers):
        _emit(result="invalid", command="agg-verify", reason="uncertified")
        return EXIT_INVALID
    before = suite.pairing_count
    ok_ = sas.agg_verify(params, agg, rng, certified=certified)
    _emit(result="valid" if ok_ else "invalid", command="agg-verify",
          scheme=agg.variant, l=agg.length, pairings=suite.pairing_count - before)
    return EXIT_OK if ok_ else EXIT_INVALID


def cmd_ms_combine(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    params = _load_params(suite, args, "ms")
    pk_list = [envelopes.decode_public_key(suite, _read(p)) for p in args.pubs]
    sigs = []
    for path in args.sigs:
        sig, m, _ = envelopes.decode_multisignature(suite, _read(path), pk_list)
        sigs.append((sig, m))
    message = _message_bytes(args)
    expected = ms.message_scalar(params, message)
    if any(m != expected for _, m in sigs):
        raise MalformedEncodingError("an input signature covers a different message")
    msig = ms.ms_combine([s for s, _ in sigs], message, pk_list, params, rng)
    _write(args.out, envelopes.encode_multisignature(msig, expected, pk_list), args.format)
    _emit(result="ok", command="ms-combine", l=len(pk_list), out=args.out)
    return EXIT_OK


def cmd_ms_sign(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    params = _load_params(suite, args, "ms")
    pk = envelopes.decode_public_key(suite, _read(args.pub))
    variant, sk = envelopes.decode_private_key(suite, _read(args.priv))
    if variant != "ms":
        raise MalformedEncodingError("private key is not a multi-signature key")
    if sk.pk_id != pks.key_id(pk):
        raise KeyMismatchError("private key does not belong to this public key")
    message = _message_bytes(args)
    sig = ms.ms_sign(params, message, sk, rng)
    blob = envelopes.encode_multisignature(sig, ms.message_scalar(params, message), [pk])
    _write(args.out, blob, args.format)
    _emit(result="ok", command="ms-sign", out=args.out)
    return EXIT_OK


def cmd_ms_verify(args):
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    params = _load_params(suite, args, "ms")
    pk_list = [envelopes.decode_public_key(suite, _read(p)) for p in args.pubs]
    msig, m, signers = envelopes.decode_multisignature(suite, _read(args.msig), pk_list)
    message = _message_bytes(args)
    if m != ms.message_scalar(params, message):
        _emit(result="invalid", command="ms-verify", reason="message-mismatch")
        return EXIT_INVALID
    registry = _load_registry(suite, args)
    if registry is not None and not all(registry.is_certified(pk) for pk in signers):
        _emit(result="invalid", command="ms-verify", reason="uncertified")
        return EXIT_INVALID
    before = suite.pairing_count
    ok_ = ms.ms_mult_verify(msig, message, signers, params, rng)
    _emit(result="valid" if ok_ else "invalid", command="ms-verify",
          l=len(signers), pairings=suite.pairing_count - before)
    return EXIT_OK if ok_ else EXIT_INVALID


def cmd_register(args):
    suite = _make_suite(args.backend)
    params = envelopes.decode_params(suite, _read(args.params))
    pub = envelopes.decode_public_key(suite, _read(args.pub))
    variant, priv = envelopes.decode_private_key(suite, _read(args.priv))
    if variant not in keyreg.REGISTERED:
        raise MalformedEncodingError(f"scheme {variant} does not register keys")
    path = _registry_path(args)
    if path is None:
        raise MalformedEncodingError("no registry path (use --registry or the environment)")
    if os.path.exists(path):
        registry = keyreg.CertRegistry.load(suite, path)
    else:
        registry = keyreg.CertRegistry(suite)
    witness = keyreg.witness_from_private(variant, priv)
    record = registry.register(params, pub, witness)
    registry.save(path)
    _emit(result="ok", command="register", scheme=variant,
          key_id=record.key_id.hex()[:16], registry=path)
    return EXIT_OK


def cmd_demo_chain(args):
    """Certificate-chain demo: one aggregate versus d separate signatures."""
    suite = _make_suite(args.backend)
    rng = _make_rng(args)
    scheme = args.scheme
    if scheme not in sas.VARIANTS:
        raise MalformedEncodingError("demo-chain covers sas1 and sas2")
    params = sas.setup(suite, scheme, rng)
    issuers = [sas.keygen(params, rng) for _ in range(args.depth)]
    agg = sas.empty_aggregate(params)
    for level, (pub, priv) in enumerate(issuers):
        statement = f"certify level {level + 1} key".encode()
        agg = sas.agg_sign(params, agg, statement, pub, priv, rng)
    valid = sas.agg_verify(params, agg, rng)
    width = pks.ROW_WIDTH[scheme]
    elem_size = suite.backend.encoded_size("g1")
    aggregate_bytes = 2 * width * elem_size
    naive_bytes = args.depth * aggregate_bytes  # one full signature per issuer
    _emit(result="valid" if valid else "invalid", command="demo-chain",
          scheme=scheme, depth=args.depth, elements=2 * width,
          aggregate_bytes=aggregate_bytes, naive_bytes=naive_bytes,
          ratio=f"{aggregate_bytes / naive_bytes:.3f}")
    return EXIT_OK if valid else EXIT_INVALID


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--backend", default="real",
                   help="real, or mock:P for the discrete-log mock with prime order P")
    p.add_argument("--seed", type=int, default=None,
                   help="deterministic RNG seed (requires --test-mode)")
    p.add_argument("--test-mode", action="store_true",
                   help="allow deterministic seeding; never use for production keys")
    p.add_argument("--registry", default=None,
                   help=f"certification registry path (default: ${REGISTRY_ENV})")
    p.add_argument("--format", choices=("bin", "hex"), default="bin",
                   help="output file format")


def _add_message(p):
    p.add_argument("--message", default=None, help="message as a UTF-8 string")
    p.add_argument("--message-file", default=None, help="message file (raw bytes)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="seqsig",
                                  description="pairing-based aggregate signature toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        _add_common(p)
        p.set_defaults(fn=fn)
        return p

    p = add("setup", cmd_setup, help="generate shared scheme parameters")
    p.add_argument("--scheme", required=True, choices=("sas1", "sas2", "ms"))
    p.add_argument("--out", required=True)

    p = add("keygen", cmd_keygen, help="generate a key pair")
    p.add_argument("--scheme", required=True,
                   choices=("pks1", "pks2", "lw", "sas1", "sas2", "ms"))
    p.add_argument("--params", default=None, help="parameter file (sas/ms schemes)")
    p.add_argument("--pub-out", required=True)
    p.add_argument("--priv-out", required=True)

    p = add("sign", cmd_sign, help="produce a single-signer signature")
    p.add_argument("--scheme", required=True, choices=pks.VARIANTS)
    p.add_argument("--pub", required=True)
    p.add_argument("--priv", required=True)
    p.add_argument("--out", required=True)
    _add_message(p)

    p = add("verify", cmd_verify, help="verify a single-signer signature")
    p.add_argument("--scheme", required=True, choices=pks.VARIANTS)
    p.add_argument("--pub", required=True)
    p.add_argument("--sig", required=True)
    _add_message(p)

    p = add("agg-sign", cmd_agg_sign, help="append to a sequential aggregate")
    p.add_argument("--scheme", required=True, choices=sas.VARIANTS)
    p.add_argument("--params", required=True)
    p.add_argument("--prev", default=None, help="aggregate-so-far (omit to start fresh)")
    p.add_argument("--keys", nargs="*", default=[], help="prior signers' public key files")
    p.add_argument("--pub", required=True)
    p.add_argument("--priv", required=True)
    p.add_argument("--out", required=True)
    _add_message(p)

    p = add("agg-verify", cmd_agg_verify, help="verify a sequential aggregate")
    p.add_argument("--scheme", required=True, choices=sas.VARIANTS)
    p.add_argument("--params", required=True)
    p.add_argument("--agg", required=True)
    p.add_argument("--keys", nargs="*", default=[], help="signers' public key files")

    p = add("ms-sign", cmd_ms_sign, help="produce an individual multi-signature share")
    p.add_argument("--params", required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--priv", required=True)
    p.add_argument("--out", required=True)
    _add_message(p)

    p = add("ms-combine", cmd_ms_combine, help="combine same-message signatures")
    p.add_argument("--params", required=True)
    p.add_argument("--sigs", nargs="+", required=True)
    p.add_argument("--pubs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _add_message(p)

    p = add("ms-verify", cmd_ms_verify, help="verify a combined multi-signature")
    p.add_argument("--params", required=True)
    p.add_argument("--msig", required=True)
    p.add_argument("--pubs", nargs="+", required=True)
    _add_message(p)

    p = add("register", cmd_register, help="certify a key in the registry")
    p.add_argument("--params", required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--priv", required=True)

    p = add("demo-chain", cmd_demo_chain, help="certificate-chain size demo")
    p.add_argument("--scheme", required=True, choices=sas.VARIANTS)
    p.add_argument("--depth", type=int, default=5)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MalformedEncodingError, SubgroupMembershipError, OSError) as exc:
        _emit(result="malformed", error=str(exc).replace(" ", "_"))
        return EXIT_MALFORMED
    except (InvalidAggregateError, RegistrationError) as exc:
        _emit(result="invalid", error=str(exc).replace(" ", "_"))
        return EXIT_INVALID
    except SeqsigError as exc:
        _emit(result="invalid", error=str(exc).replace(" ", "_"))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

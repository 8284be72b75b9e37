"""Command-line surface: files in, files out, exit codes for pipelines.

Every command is a thin delegation to exactly one library operation.
Exit codes: 0 = success/valid, 1 = cryptographically invalid,
2 = malformed input; a file of another scheme than the command's is
malformed. One machine-readable ``key=value`` result line is printed on
standard output per command.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import envelopes, keyreg, ms, pks, sas
from .errors import KeyMismatchError, MalformedEncodingError, SeqsigError, SubgroupMembershipError
from .groups import suite_generate

REGISTRY_ENV = "SEQSIG_REGISTRY"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2


def _emit(**fields):
    print(" ".join(f"{k}={v}" for k, v in fields.items()))


def _verdict(valid: bool, **fields) -> int:
    _emit(result="valid" if valid else "invalid", **fields)
    return EXIT_OK if valid else EXIT_INVALID


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
    if (args.message is None) == (args.message_file is None):
        raise MalformedEncodingError("give one message: --message or --message-file")
    if args.message_file is not None:
        with open(args.message_file, "rb") as fh:
            return fh.read()
    try:
        return args.message.encode("utf-8")
    except UnicodeEncodeError:  # non-UTF-8 argv bytes arrive as lone surrogates
        raise MalformedEncodingError("--message is not UTF-8 (use --message-file)") from None


# ---------------------------------------------------------------------------
# loaders: each decodes one kind of file and refuses a file of another scheme

def _of_scheme(obj, scheme: str, what: str):
    if obj.variant != scheme:
        raise MalformedEncodingError(f"{what} is for {obj.variant}, not {scheme}")
    return obj


def _load_params(suite, path, scheme):
    if path is None:
        raise MalformedEncodingError(f"scheme {scheme} needs a parameter file (--params)")
    return _of_scheme(envelopes.decode_params(suite, _read(path)), scheme, "parameter file")


def _load_public_key(suite, path, scheme):
    return _of_scheme(envelopes.decode_public_key(suite, _read(path)), scheme, "public key file")


def _load_private_key(suite, path, scheme):
    _, sk = envelopes.decode_private_key(suite, _read(path))
    return _of_scheme(sk, scheme, "private key file")


def _load_ms(suite, args, pub_paths):
    """(params, public keys, message, message scalar) of an ms command."""
    params = _load_params(suite, args.params, "ms")
    keys = [_load_public_key(suite, p, "ms") for p in pub_paths]
    message = _message_bytes(args)
    return params, keys, message, ms.message_scalar(params, message)


def _registry_path(args) -> str | None:
    return args.registry or os.environ.get(REGISTRY_ENV)


def _certified(suite, args):
    """The registry's certification predicate, or None when no registry is named."""
    path = _registry_path(args)
    if path is None:
        return None
    return keyreg.CertRegistry.load_bytes(suite, _read(path)).predicate()


def _certification(suite, args, keys) -> str:
    """A verify command's ``certified`` field: ``unchecked`` when no registry
    is named, else ``yes`` or ``no`` as its predicate takes every key."""
    certified = _certified(suite, args)
    if certified is None:
        return "unchecked"
    return "yes" if all(certified(k) for k in keys) else "no"


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, the suite and the rng

def cmd_setup(args, suite, rng):
    if args.scheme == "ms":
        params = ms.ms_setup(suite, rng)
    else:
        params = sas.setup(suite, args.scheme, rng)
    _write(args.out, envelopes.encode_params(params), args.format)
    _emit(result="ok", command="setup", scheme=args.scheme, out=args.out)
    return EXIT_OK


def cmd_keygen(args, suite, rng):
    if args.scheme in pks.VARIANTS:
        pk, sk = pks.keygen(suite, args.scheme, rng)
    else:
        params = _load_params(suite, args.params, args.scheme)
        if args.scheme in sas.VARIANTS:
            pk, sk = sas.keygen(params, rng)
        else:
            pk, sk = ms.ms_keygen(params, rng)
    _write(args.pub_out, envelopes.encode_public_key(pk), args.format)
    _write(args.priv_out, envelopes.encode_private_key(suite, args.scheme, sk), args.format)
    _emit(result="ok", command="keygen", scheme=args.scheme,
          key_id=pks.key_id(pk).hex()[:16])
    return EXIT_OK


def cmd_sign(args, suite, rng):
    pk = _load_public_key(suite, args.pub, args.scheme)
    sk = _load_private_key(suite, args.priv, args.scheme)
    sig = pks.sign(args.scheme, _message_bytes(args), sk, pk, rng)
    _write(args.out, envelopes.encode_signature(sig), args.format)
    _emit(result="ok", command="sign", scheme=args.scheme, out=args.out)
    return EXIT_OK


def cmd_verify(args, suite, rng):
    pk = _load_public_key(suite, args.pub, args.scheme)
    sig = _of_scheme(envelopes.decode_signature(suite, _read(args.sig)), args.scheme,
                     "signature file")
    valid = pks.verify(args.scheme, sig, _message_bytes(args), pk, rng)
    return _verdict(valid, command="verify", scheme=args.scheme)


def cmd_agg_sign(args, suite, rng):
    params = _load_params(suite, args.params, args.scheme)
    known = [_load_public_key(suite, p, args.scheme) for p in args.keys]
    pub = _load_public_key(suite, args.pub, args.scheme)
    priv = _load_private_key(suite, args.priv, args.scheme)
    if args.prev is not None:
        prev = envelopes.decode_aggregate(suite, _read(args.prev), known + [pub])
    else:
        prev = sas.empty_aggregate(params)
    agg = sas.agg_sign(params, prev, _message_bytes(args), pub, priv, rng,
                       certified=_certified(suite, args))
    _write(args.out, envelopes.encode_aggregate(agg), args.format)
    _emit(result="ok", command="agg-sign", scheme=args.scheme, l=agg.length, out=args.out)
    return EXIT_OK


def cmd_agg_verify(args, suite, rng):
    params = _load_params(suite, args.params, args.scheme)
    known = [_load_public_key(suite, p, args.scheme) for p in args.keys]
    agg = envelopes.decode_aggregate(suite, _read(args.agg), known)
    certified = _certification(suite, args, agg.signers)
    if certified == "no":
        return _verdict(False, command="agg-verify", reason="uncertified", certified=certified)
    before = suite.pairing_count
    valid = sas.agg_verify(params, agg, rng)
    return _verdict(valid, command="agg-verify", scheme=agg.variant, l=agg.length,
                    pairings=suite.pairing_count - before, certified=certified)


def cmd_ms_sign(args, suite, rng):
    params, (pk,), _, m = _load_ms(suite, args, [args.pub])
    sk = _load_private_key(suite, args.priv, "ms")
    if sk.pk_id != pks.key_id(pk):
        raise KeyMismatchError("private key does not belong to this public key")
    sig = ms.ms_sign_scalar(params, m, sk, rng)
    _write(args.out, envelopes.encode_multisignature(sig, m, [pk]), args.format)
    _emit(result="ok", command="ms-sign", out=args.out)
    return EXIT_OK


def cmd_ms_combine(args, suite, rng):
    if len(args.sigs) != len(args.pubs):
        raise MalformedEncodingError(f"{len(args.sigs)} --sigs but {len(args.pubs)} --pubs")
    params, pk_list, message, m = _load_ms(suite, args, args.pubs)
    sigs, signers = [], []
    for path in args.sigs:  # a share's own key id picks its key among --pubs
        sig, covered, named = envelopes.decode_multisignature(suite, _read(path), pk_list)
        if covered != m:
            raise MalformedEncodingError("an input signature covers a different message")
        if len(named) != 1:
            raise MalformedEncodingError("an input signature names more than one signer")
        sigs.append(sig)
        signers += named
    msig = ms.ms_combine(sigs, message, signers, params, rng,
                         certified=_certified(suite, args))
    _write(args.out, envelopes.encode_multisignature(msig, m, signers), args.format)
    _emit(result="ok", command="ms-combine", l=len(signers), out=args.out)
    return EXIT_OK


def cmd_ms_verify(args, suite, rng):
    params, pk_list, _, m = _load_ms(suite, args, args.pubs)
    msig, covered, signers = envelopes.decode_multisignature(suite, _read(args.msig), pk_list)
    certified = _certification(suite, args, signers)
    if certified == "no":
        return _verdict(False, command="ms-verify", reason="uncertified", certified=certified)
    if covered != m:
        return _verdict(False, command="ms-verify", reason="message-mismatch",
                        certified=certified)
    before = suite.pairing_count
    valid = ms.ms_mult_verify_scalar(msig, m, signers, params, rng)
    return _verdict(valid, command="ms-verify", l=len(signers),
                    pairings=suite.pairing_count - before, certified=certified)


def cmd_register(args, suite, rng):
    # every scheme with shared parameters registers keys; the parameter file names it
    params = envelopes.decode_params(suite, _read(args.params))
    pub = _load_public_key(suite, args.pub, params.variant)
    priv = _load_private_key(suite, args.priv, params.variant)
    path = _registry_path(args)
    if path is None:
        raise MalformedEncodingError("no registry path (use --registry or the environment)")
    if os.path.exists(path):
        registry = keyreg.CertRegistry.load_bytes(suite, _read(path))
    else:
        registry = keyreg.CertRegistry(suite)
    record = registry.register(params, pub, priv)
    _write(path, registry.save_bytes(), args.format)
    _emit(result="ok", command="register", scheme=params.variant,
          key_id=record.key_id.hex()[:16], registry=path)
    return EXIT_OK


def cmd_demo_chain(args, suite, rng):
    """Certificate-chain demo: one aggregate versus d separate signatures."""
    if args.depth < 1:
        raise MalformedEncodingError(f"--depth must be at least 1, not {args.depth}")
    params = sas.setup(suite, args.scheme, rng)
    issuers = [sas.keygen(params, rng) for _ in range(args.depth)]
    agg = sas.empty_aggregate(params)
    for level, (pub, priv) in enumerate(issuers):
        statement = f"certify level {level + 1} key".encode()
        agg = sas.agg_sign(params, agg, statement, pub, priv, rng)
    valid = sas.agg_verify(params, agg, rng)
    width = pks.ROW_WIDTH[args.scheme]
    aggregate_bytes = 2 * width * suite.backend.encoded_size("g1")
    naive_bytes = args.depth * aggregate_bytes  # one full signature per issuer
    return _verdict(valid, command="demo-chain", scheme=args.scheme, depth=args.depth,
                    elements=2 * width, aggregate_bytes=aggregate_bytes,
                    naive_bytes=naive_bytes, ratio=f"{aggregate_bytes / naive_bytes:.3f}")


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


def _add_files(p, *flags, **kw):
    """One required file argument per flag."""
    for flag in flags:
        p.add_argument(flag, required=True, **kw)


def _add_message(p):
    p.add_argument("--message", default=None, help="message as a UTF-8 string")
    p.add_argument("--message-file", default=None, help="message file (raw bytes)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="seqsig",
                                  description="pairing-based aggregate signature toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help, schemes=None):
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(fn=fn)
        if schemes:
            p.add_argument("--scheme", required=True, choices=schemes)
        return p

    p = add("setup", cmd_setup, "generate shared scheme parameters", envelopes.REGISTERED)
    _add_files(p, "--out")

    p = add("keygen", cmd_keygen, "generate a key pair", pks.VARIANTS + envelopes.REGISTERED)
    p.add_argument("--params", default=None, help="parameter file (sas/ms schemes)")
    _add_files(p, "--pub-out", "--priv-out")

    p = add("sign", cmd_sign, "produce a single-signer signature", pks.VARIANTS)
    _add_files(p, "--pub", "--priv", "--out")
    _add_message(p)

    p = add("verify", cmd_verify, "verify a single-signer signature", pks.VARIANTS)
    _add_files(p, "--pub", "--sig")
    _add_message(p)

    p = add("agg-sign", cmd_agg_sign, "append to a sequential aggregate", sas.VARIANTS)
    _add_files(p, "--params")
    p.add_argument("--prev", default=None, help="aggregate-so-far (omit to start fresh)")
    p.add_argument("--keys", nargs="*", default=[], help="prior signers' public key files")
    _add_files(p, "--pub", "--priv", "--out")
    _add_message(p)

    p = add("agg-verify", cmd_agg_verify, "verify a sequential aggregate", sas.VARIANTS)
    _add_files(p, "--params", "--agg")
    p.add_argument("--keys", nargs="*", default=[], help="signers' public key files")

    p = add("ms-sign", cmd_ms_sign, "produce an individual multi-signature share")
    _add_files(p, "--params", "--pub", "--priv", "--out")
    _add_message(p)

    p = add("ms-combine", cmd_ms_combine, "combine same-message signatures")
    _add_files(p, "--params")
    _add_files(p, "--sigs", "--pubs", nargs="+")
    _add_files(p, "--out")
    _add_message(p)

    p = add("ms-verify", cmd_ms_verify, "verify a combined multi-signature")
    _add_files(p, "--params", "--msig")
    _add_files(p, "--pubs", nargs="+")
    _add_message(p)

    p = add("register", cmd_register, "certify a key in the registry")
    _add_files(p, "--params", "--pub", "--priv")

    p = add("demo-chain", cmd_demo_chain, "certificate-chain size demo", sas.VARIANTS)
    p.add_argument("--depth", type=int, default=5)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, _make_suite(args.backend), _make_rng(args))
    except (MalformedEncodingError, SubgroupMembershipError, OSError) as exc:
        _emit(result="malformed", error=str(exc).replace(" ", "_"))
        return EXIT_MALFORMED
    except SeqsigError as exc:
        _emit(result="invalid", error=str(exc).replace(" ", "_"))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

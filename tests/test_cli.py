"""CLI: full pipelines, exit codes, and deterministic seeding."""

import contextlib
import io
import random
import re

import pytest

from seqsig import envelopes, keyreg
from seqsig.cli import main
from seqsig.groups import suite_generate

BACKEND = "mock:10007"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    fields = {}
    for line in out:
        for tok in line.split():
            k, _, v = tok.partition("=")
            fields.setdefault(k, []).append(v)
    return code, fields


def det(*argv, seed=7):
    return (*argv, "--backend", BACKEND, "--test-mode", "--seed", str(seed))


def _one_malformed_line(capsys, argv):
    code = main(list(det(*argv)))
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert len(out) == 1 and out[0].startswith("result=malformed "), out


class TestSingleSigner:
    @pytest.fixture
    def keypair(self, tmp_path, capsys):
        pub, priv = tmp_path / "pk.bin", tmp_path / "sk.bin"
        code, _ = run(capsys, *det("keygen", "--scheme", "pks2",
                                   "--pub-out", str(pub), "--priv-out", str(priv)))
        assert code == 0
        return pub, priv

    def test_sign_then_verify(self, keypair, tmp_path, capsys):
        pub, priv = keypair
        sig = tmp_path / "sig.bin"
        code, _ = run(capsys, *det("sign", "--scheme", "pks2", "--pub", str(pub),
                                   "--priv", str(priv), "--out", str(sig),
                                   "--message", "hello"))
        assert code == 0
        code, fields = run(capsys, *det("verify", "--scheme", "pks2", "--pub", str(pub),
                                        "--sig", str(sig), "--message", "hello"))
        assert code == 0 and fields["result"] == ["valid"]

    def test_wrong_message_exits_one(self, keypair, tmp_path, capsys):
        pub, priv = keypair
        sig = tmp_path / "sig.bin"
        run(capsys, *det("sign", "--scheme", "pks2", "--pub", str(pub),
                         "--priv", str(priv), "--out", str(sig), "--message", "hello"))
        code, fields = run(capsys, *det("verify", "--scheme", "pks2", "--pub", str(pub),
                                        "--sig", str(sig), "--message", "goodbye"))
        assert code == 1 and fields["result"] == ["invalid"]

    def test_message_that_is_not_utf8_exits_two(self, keypair, tmp_path, capsys):
        """A shell passes the argument bytes h, 0xff, i; Python decodes argv
        with surrogateescape, so --message holds a lone surrogate, which is
        malformed input, not an invalid signature."""
        pub, priv = keypair
        sig = tmp_path / "sig.bin"
        run(capsys, *det("sign", "--scheme", "pks2", "--pub", str(pub),
                         "--priv", str(priv), "--out", str(sig), "--message", "hi"))
        message = b"h\xffi".decode("utf-8", "surrogateescape")
        for command in (("sign", "--priv", str(priv), "--out", str(tmp_path / "s2.bin")),
                        ("verify", "--sig", str(sig))):
            _one_malformed_line(capsys, (*command, "--scheme", "pks2", "--pub", str(pub),
                                         "--message", message))

    def test_both_message_options_exit_two(self, keypair, tmp_path, capsys):
        """--message and --message-file together are malformed: neither is
        signed or verified in place of the other."""
        pub, priv = keypair
        msg, sig = tmp_path / "msg", tmp_path / "sig.bin"
        msg.write_bytes(b"from the file")
        both = ("--message-file", str(msg), "--message", "other")
        _one_malformed_line(capsys, ("sign", "--scheme", "pks2", "--pub", str(pub),
                                     "--priv", str(priv), "--out", str(sig), *both))
        assert not sig.exists()
        code, _ = run(capsys, *det("sign", "--scheme", "pks2", "--pub", str(pub),
                                   "--priv", str(priv), "--out", str(sig),
                                   "--message-file", str(msg)))
        assert code == 0
        _one_malformed_line(capsys, ("verify", "--scheme", "pks2", "--pub", str(pub),
                                     "--sig", str(sig), *both))

    def test_message_file_round_trips_bytes_that_are_not_utf8(self, keypair, tmp_path,
                                                               capsys):
        pub, priv = keypair
        msg, other, sig = tmp_path / "msg", tmp_path / "other", tmp_path / "sig.bin"
        msg.write_bytes(b"h\xffi\x00")
        other.write_bytes(b"h\xfei\x00")
        code, _ = run(capsys, *det("sign", "--scheme", "pks2", "--pub", str(pub),
                                   "--priv", str(priv), "--out", str(sig),
                                   "--message-file", str(msg)))
        assert code == 0
        for path, want in ((msg, (0, ["valid"])), (other, (1, ["invalid"]))):
            code, fields = run(capsys, *det("verify", "--scheme", "pks2", "--pub", str(pub),
                                            "--sig", str(sig), "--message-file", str(path)))
            assert (code, fields["result"]) == want

    def test_corrupt_file_exits_two(self, keypair, tmp_path, capsys):
        pub, _ = keypair
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"APKS" + b"\x00" * 3)
        code, fields = run(capsys, *det("verify", "--scheme", "pks2", "--pub", str(pub),
                                        "--sig", str(bad), "--message", "hello"))
        assert code == 2 and fields["result"] == ["malformed"]

    def test_missing_file_exits_two(self, keypair, tmp_path, capsys):
        pub, _ = keypair
        code, _ = run(capsys, *det("verify", "--scheme", "pks2", "--pub", str(pub),
                                   "--sig", str(tmp_path / "nope.bin"),
                                   "--message", "hello"))
        assert code == 2

    def test_seed_requires_test_mode(self, tmp_path, capsys):
        code, _ = run(capsys, "keygen", "--scheme", "pks2",
                      "--pub-out", str(tmp_path / "a"), "--priv-out", str(tmp_path / "b"),
                      "--backend", BACKEND, "--seed", "7")
        assert code == 2

    def test_seeded_runs_are_byte_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("x", "y"):
            pub = tmp_path / f"pk-{tag}.bin"
            priv = tmp_path / f"sk-{tag}.bin"
            run(capsys, *det("keygen", "--scheme", "lw",
                             "--pub-out", str(pub), "--priv-out", str(priv)))
            outs.append((pub.read_bytes(), priv.read_bytes()))
        assert outs[0] == outs[1]

    def test_hex_format(self, tmp_path, capsys):
        pub, priv = tmp_path / "pk.hex", tmp_path / "sk.hex"
        code, _ = run(capsys, *det("keygen", "--scheme", "pks1", "--format", "hex",
                                   "--pub-out", str(pub), "--priv-out", str(priv)))
        assert code == 0
        text = pub.read_bytes()
        assert text.endswith(b"\n")
        bytes.fromhex(text.decode())  # must be valid hex
        sig = tmp_path / "sig.hex"
        run(capsys, *det("sign", "--scheme", "pks1", "--pub", str(pub),
                         "--priv", str(priv), "--out", str(sig),
                         "--message", "m", "--format", "hex"))
        code, fields = run(capsys, *det("verify", "--scheme", "pks1", "--pub", str(pub),
                                        "--sig", str(sig), "--message", "m"))
        assert code == 0 and fields["result"] == ["valid"]


class TestAggregatePipeline:
    @pytest.fixture
    def setup(self, tmp_path, capsys):
        params = tmp_path / "params.bin"
        run(capsys, *det("setup", "--scheme", "sas2", "--out", str(params)))
        signers = []
        for i in range(3):
            pub, priv = tmp_path / f"pk{i}.bin", tmp_path / f"sk{i}.bin"
            run(capsys, *det("keygen", "--scheme", "sas2", "--params", str(params),
                             "--pub-out", str(pub), "--priv-out", str(priv),
                             seed=100 + i))
            signers.append((pub, priv))
        return params, signers

    def _build_chain(self, tmp_path, capsys, params, signers, registry=None):
        prev = None
        keys = []
        for i, (pub, priv) in enumerate(signers):
            out = tmp_path / f"agg{i}.bin"
            argv = ["agg-sign", "--scheme", "sas2", "--params", str(params),
                    "--pub", str(pub), "--priv", str(priv), "--out", str(out),
                    "--message", f"m{i}", "--keys", *map(str, keys)]
            if prev is not None:
                argv += ["--prev", str(prev)]
            if registry is not None:
                argv += ["--registry", str(registry)]
            code, fields = run(capsys, *det(*argv))
            assert code == 0 and fields["l"] == [str(i + 1)]
            prev = out
            keys.append(pub)
        return prev, keys

    def test_chain_and_verify(self, setup, tmp_path, capsys):
        params, signers = setup
        agg, keys = self._build_chain(tmp_path, capsys, params, signers)
        code, fields = run(capsys, *det("agg-verify", "--scheme", "sas2",
                                        "--params", str(params), "--agg", str(agg),
                                        "--keys", *map(str, keys)))
        assert code == 0 and fields["result"] == ["valid"]
        assert fields["pairings"] == ["6"] and fields["certified"] == ["unchecked"]

    def test_tampered_aggregate_exits_one(self, setup, tmp_path, capsys):
        params, signers = setup
        agg, keys = self._build_chain(tmp_path, capsys, params, signers)
        blob = bytearray(agg.read_bytes())
        blob[-1] = (blob[-1] + 1) % 10007 % 256  # perturb the last element byte
        tampered = tmp_path / "tampered.bin"
        tampered.write_bytes(bytes(blob))
        code, fields = run(capsys, *det("agg-verify", "--scheme", "sas2",
                                        "--params", str(params), "--agg", str(tampered),
                                        "--keys", *map(str, keys)))
        assert code in (1, 2)  # invalid, or malformed if the byte left the group
        assert fields["result"] != ["valid"]

    def test_registry_gates_verification(self, setup, tmp_path, capsys):
        params, signers = setup
        registry = tmp_path / "registry.bin"
        # certify only the first two signers
        for pub, priv in signers[:2]:
            code, _ = run(capsys, *det("register", "--params", str(params),
                                       "--pub", str(pub), "--priv", str(priv),
                                       "--registry", str(registry)))
            assert code == 0
        agg, keys = self._build_chain(tmp_path, capsys, params, signers[:2],
                                      registry=registry)
        # append an uncertified signer without the registry, then verify with it
        pub3, priv3 = signers[2]
        out = tmp_path / "agg-uncert.bin"
        code, _ = run(capsys, *det("agg-sign", "--scheme", "sas2",
                                   "--params", str(params), "--prev", str(agg),
                                   "--keys", *map(str, keys), "--pub", str(pub3),
                                   "--priv", str(priv3), "--out", str(out),
                                   "--message", "m2"))
        assert code == 0
        code, fields = run(capsys, *det("agg-verify", "--scheme", "sas2",
                                        "--params", str(params), "--agg", str(out),
                                        "--keys", *map(str, keys + [pub3]),
                                        "--registry", str(registry)))
        assert code == 1
        assert fields["reason"] == ["uncertified"] and fields["certified"] == ["no"]
        assert "pairings" not in fields
        code, fields = run(capsys, *det("agg-verify", "--scheme", "sas2",
                                        "--params", str(params), "--agg", str(agg),
                                        "--keys", *map(str, keys),
                                        "--registry", str(registry)))
        assert code == 0 and fields["certified"] == ["yes"] and fields["pairings"] == ["6"]

    def test_mismatched_key_pair_exits_one(self, setup, tmp_path, capsys):
        params, signers = setup
        (pub0, _), (_, priv1) = signers[:2]
        out = tmp_path / "agg-mismatch.bin"
        code, fields = run(capsys, *det("agg-sign", "--scheme", "sas2",
                                        "--params", str(params), "--pub", str(pub0),
                                        "--priv", str(priv1), "--out", str(out),
                                        "--message", "m0"))
        assert code == 1 and fields["result"] == ["invalid"]
        assert not out.exists()

    def test_signer_appending_twice_exits_one(self, setup, tmp_path, capsys):
        params, signers = setup
        agg, keys = self._build_chain(tmp_path, capsys, params, signers[:2])
        pub0, priv0 = signers[0]
        out = tmp_path / "agg-twice.bin"
        code, fields = run(capsys, *det("agg-sign", "--scheme", "sas2",
                                        "--params", str(params), "--prev", str(agg),
                                        "--keys", *map(str, keys), "--pub", str(pub0),
                                        "--priv", str(priv0), "--out", str(out),
                                        "--message", "m2"))
        assert code == 1 and fields["result"] == ["invalid"]
        assert not out.exists()

    def test_keygen_without_params_exits_two(self, tmp_path, capsys):
        code, fields = run(capsys, *det("keygen", "--scheme", "sas2",
                                        "--pub-out", str(tmp_path / "pk.bin"),
                                        "--priv-out", str(tmp_path / "sk.bin")))
        assert code == 2 and fields["result"] == ["malformed"]

    def test_registry_env_variable(self, setup, tmp_path, capsys, monkeypatch):
        params, signers = setup
        registry = tmp_path / "registry-env.bin"
        monkeypatch.setenv("SEQSIG_REGISTRY", str(registry))
        pub, priv = signers[0]
        code, _ = run(capsys, *det("register", "--params", str(params),
                                   "--pub", str(pub), "--priv", str(priv)))
        assert code == 0 and registry.exists()


class TestMultisigPipeline:
    @pytest.fixture
    def shares(self, tmp_path, capsys):
        """ms params, and two key pairs with each key's share on "joint"."""
        params = tmp_path / "params.bin"
        run(capsys, *det("setup", "--scheme", "ms", "--out", str(params)))
        pubs, sigs = [], []
        for i in range(2):
            pub, priv = tmp_path / f"pk{i}.bin", tmp_path / f"sk{i}.bin"
            run(capsys, *det("keygen", "--scheme", "ms", "--params", str(params),
                             "--pub-out", str(pub), "--priv-out", str(priv),
                             seed=100 + i))
            sig = tmp_path / f"sig{i}.bin"
            code, _ = run(capsys, *det("ms-sign", "--params", str(params),
                                       "--pub", str(pub), "--priv", str(priv),
                                       "--out", str(sig), "--message", "joint"))
            assert code == 0
            pubs.append(pub)
            sigs.append(sig)
        return params, pubs, sigs

    @staticmethod
    def combine_argv(params, sigs, pubs, out):
        return ("ms-combine", "--params", str(params), "--sigs", *map(str, sigs),
                "--pubs", *map(str, pubs), "--out", str(out), "--message", "joint")

    def test_sign_combine_verify(self, shares, tmp_path, capsys):
        params, pubs, sigs = shares
        combined = tmp_path / "combined.bin"
        code, _ = run(capsys, *det(*self.combine_argv(params, sigs, pubs, combined)))
        assert code == 0
        code, fields = run(capsys, *det("ms-verify", "--params", str(params),
                                        "--msig", str(combined),
                                        "--pubs", *map(str, pubs),
                                        "--message", "joint"))
        assert code == 0 and fields["result"] == ["valid"]
        assert fields["certified"] == ["unchecked"]
        code, fields = run(capsys, *det("ms-verify", "--params", str(params),
                                        "--msig", str(combined),
                                        "--pubs", *map(str, pubs),
                                        "--message", "different"))
        assert code == 1 and fields["reason"] == ["message-mismatch"]
        assert fields["certified"] == ["unchecked"]

    def test_each_share_picks_its_own_key(self, shares, tmp_path, capsys):
        params, pubs, sigs = shares
        combined = tmp_path / "combined.bin"
        code, _ = run(capsys, *det(*self.combine_argv(params, sigs, pubs[::-1], combined)))
        assert code == 0
        code, fields = run(capsys, *det("ms-verify", "--params", str(params),
                                        "--msig", str(combined), "--pubs", *map(str, pubs),
                                        "--message", "joint"))
        assert code == 0 and fields["result"] == ["valid"]

    def test_combined_share_as_input_exits_two(self, shares, tmp_path, capsys):
        params, pubs, sigs = shares
        combined = tmp_path / "combined.bin"
        assert main(list(det(*self.combine_argv(params, sigs, pubs, combined)))) == 0
        capsys.readouterr()
        out = tmp_path / "again.bin"
        _one_malformed_line(capsys, self.combine_argv(params, [combined, sigs[1]], pubs, out))
        assert not out.exists()


class TestReports:
    def test_demo_chain_ratio(self, capsys):
        code, fields = run(capsys, *det("demo-chain", "--scheme", "sas2",
                                        "--depth", "5"))
        assert code == 0
        assert fields["result"] == ["valid"]
        assert fields["ratio"] == ["0.200"]

    def test_unknown_backend_exits_two(self, capsys, tmp_path):
        code, _ = run(capsys, "setup", "--scheme", "ms", "--out",
                      str(tmp_path / "p.bin"), "--backend", "quantum")
        assert code == 2

    @pytest.mark.parametrize("order", ["4294967311", "100"])
    def test_unusable_mock_order_exits_two(self, capsys, tmp_path, order):
        # 2^32 + 15 is prime but its elements do not fit 4 bytes; 100 is not prime
        code = main(["setup", "--scheme", "ms", "--out", str(tmp_path / "p.bin"),
                     "--backend", f"mock:{order}"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(out) == 1 and out[0].startswith("result=malformed ")
        assert not (tmp_path / "p.bin").exists()

    def test_envelope_without_backend_tag_exits_two(self, capsys, tmp_path):
        params = tmp_path / "params.bin"
        run(capsys, *det("setup", "--scheme", "sas2", "--out", str(params)))
        params.write_bytes(params.read_bytes()[:5])  # magic and version only
        code, fields = run(capsys, *det("keygen", "--scheme", "sas2", "--params", str(params),
                                        "--pub-out", str(tmp_path / "pk.bin"),
                                        "--priv-out", str(tmp_path / "sk.bin")))
        assert code == 2 and fields["result"] == ["malformed"]

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_demo_chain_without_issuers_exits_two(self, capsys, depth):
        _one_malformed_line(capsys, ["demo-chain", "--scheme", "sas2", "--depth", depth])


SCHEMES = ("pks1", "pks2", "lw", "sas1", "sas2", "ms")

# Each command with the files of its own scheme (first entry), except that
# {pub} and {priv} name the key files of the scheme under test; {d} is the
# directory of the prepared files and {out} a fresh one.
KEY_FILE_CASES = {
    "sign-pub": ("pks2", "sign --scheme pks2 --pub {pub} --priv {d}/pks2.key"
                         " --out {out}/s.bin --message hi"),
    "sign-priv": ("pks2", "sign --scheme pks2 --pub {d}/pks2.pub --priv {priv}"
                          " --out {out}/s.bin --message hi"),
    "verify": ("pks2", "verify --scheme pks2 --pub {pub} --sig {d}/pks2.sig --message hi"),
    "register": ("sas2", "register --params {d}/sas2.prm --pub {pub} --priv {priv}"
                         " --registry {out}/reg.bin"),
    "agg-sign-pub": ("sas2", "agg-sign --scheme sas2 --params {d}/sas2.prm --pub {pub}"
                             " --priv {d}/sas2.key --out {out}/a.bin --message hi"),
    "agg-sign-priv": ("sas2", "agg-sign --scheme sas2 --params {d}/sas2.prm --pub {d}/sas2.pub"
                              " --priv {priv} --out {out}/a.bin --message hi"),
    "agg-verify": ("sas2", "agg-verify --scheme sas2 --params {d}/sas2.prm --agg {d}/sas2.agg"
                           " --keys {pub}"),
    "ms-sign-pub": ("ms", "ms-sign --params {d}/ms.prm --pub {pub} --priv {d}/ms.key"
                          " --out {out}/m.bin --message hi"),
    "ms-sign-priv": ("ms", "ms-sign --params {d}/ms.prm --pub {d}/ms.pub --priv {priv}"
                           " --out {out}/m.bin --message hi"),
    "ms-combine": ("ms", "ms-combine --params {d}/ms.prm --sigs {d}/ms.sig --pubs {pub}"
                         " --out {out}/c.bin --message hi"),
    "ms-verify": ("ms", "ms-verify --params {d}/ms.prm --msig {d}/ms.sig --pubs {pub} --message hi"),
}


@pytest.fixture(scope="module")
def key_files(tmp_path_factory):
    """Params, a key pair of every scheme, and a pks2 signature, a sas2
    aggregate and an ms share made with them, all on the mock backend."""
    d = tmp_path_factory.mktemp("keys")
    steps = [(f"setup --scheme {s} --out {d}/{s}.prm", 7) for s in ("sas1", "sas2", "ms")]
    for i, s in enumerate(SCHEMES):  # a distinct seed, so no two keys share a secret
        params = f" --params {d}/{s}.prm" if s in ("sas1", "sas2", "ms") else ""
        steps.append((f"keygen --scheme {s}{params} --pub-out {d}/{s}.pub"
                       f" --priv-out {d}/{s}.key", 100 + i))
    steps += [
        (f"sign --scheme pks2 --pub {d}/pks2.pub --priv {d}/pks2.key --out {d}/pks2.sig"
         " --message hi", 7),
        (f"agg-sign --scheme sas2 --params {d}/sas2.prm --pub {d}/sas2.pub --priv {d}/sas2.key"
         f" --out {d}/sas2.agg --message hi", 7),
        (f"ms-sign --params {d}/ms.prm --pub {d}/ms.pub --priv {d}/ms.key --out {d}/ms.sig"
         " --message hi", 7),
    ]
    for step, seed in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(det(*step.split(), seed=seed))) == 0, step
    return d


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("case", sorted(KEY_FILE_CASES))
def test_key_files_of_every_scheme(key_files, tmp_path, capsys, case, scheme):
    """A key file of any scheme gets an exit code and one result line; only
    the command's own scheme succeeds, and a file of another scheme is
    malformed."""
    home, template = KEY_FILE_CASES[case]
    argv = template.format(d=key_files, out=tmp_path, pub=key_files / f"{scheme}.pub",
                           priv=key_files / f"{scheme}.key").split()
    code = main(list(det(*argv)))
    out = capsys.readouterr().out.strip().splitlines()
    assert code in (0, 1, 2)
    assert len(out) == 1 and all("=" in tok for tok in out[0].split())
    assert code == (0 if scheme == home else 2), out[0]


def test_register_seed_requires_test_mode(key_files, tmp_path, capsys):
    registry = tmp_path / "reg.bin"
    code, fields = run(capsys, "register", "--params", str(key_files / "sas2.prm"),
                       "--pub", str(key_files / "sas2.pub"), "--priv", str(key_files / "sas2.key"),
                       "--registry", str(registry), "--backend", BACKEND, "--seed", "7")
    assert code == 2 and fields["result"] == ["malformed"]
    assert not registry.exists()


@pytest.mark.parametrize("command", ["ms-verify --msig {sig}", "ms-combine --sigs {sig}"
                                     " --out {out}/c.bin"])
def test_multisignature_naming_no_signer_exits_two(key_files, tmp_path, capsys, command):
    blob = (key_files / "ms.sig").read_bytes()
    header = len(envelopes._header(envelopes.MAGIC_MULTISIG, suite_generate("mock", 10007)))
    empty = tmp_path / "empty.sig"  # count 0 and no key id, the rest unchanged
    empty.write_bytes(blob[:header] + bytes(4) + blob[header + 4 + 32:])
    argv = (command.format(sig=empty, out=tmp_path)
            + f" --params {key_files}/ms.prm --pubs {key_files}/ms.pub --message hi")
    _one_malformed_line(capsys, argv.split())
    assert not (tmp_path / "c.bin").exists()


def test_ms_combine_with_unequal_sigs_and_pubs_exits_two(key_files, tmp_path, capsys):
    d = key_files
    _one_malformed_line(capsys, f"ms-combine --params {d}/ms.prm --sigs {d}/ms.sig"
                                f" --pubs {d}/ms.pub {d}/ms.pub --out {tmp_path}/c.bin"
                                " --message hi".split())
    assert not (tmp_path / "c.bin").exists()


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("case", ["agg-sign-pub", "agg-verify", "ms-combine", "ms-verify"])
def test_missing_registry_exits_two(key_files, tmp_path, capsys, monkeypatch, case, via):
    """A named registry that does not exist is malformed, not skipped."""
    home, template = KEY_FILE_CASES[case]
    argv = template.format(d=key_files, out=tmp_path, pub=key_files / f"{home}.pub",
                           priv=key_files / f"{home}.key").split()
    missing = str(tmp_path / "no-such.reg")
    if via == "flag":
        argv += ["--registry", missing]
    else:
        monkeypatch.setenv("SEQSIG_REGISTRY", missing)
    _one_malformed_line(capsys, argv)
    assert not (tmp_path / "a.bin").exists()


def test_version_1_registry_exits_two(key_files, tmp_path, capsys):
    registry = tmp_path / "old.bin"
    d = key_files
    assert main(list(det(*f"register --params {d}/sas2.prm --pub {d}/sas2.pub"
                           f" --priv {d}/sas2.key --registry {registry}".split()))) == 0
    capsys.readouterr()
    blob = bytearray(registry.read_bytes())
    blob[4] = 1  # the version byte
    registry.write_bytes(bytes(blob))
    _one_malformed_line(capsys, f"agg-verify --scheme sas2 --params {d}/sas2.prm"
                                f" --agg {d}/sas2.agg --keys {d}/sas2.pub"
                                f" --registry {registry}".split())


@pytest.mark.parametrize("offset, value", [(33, 0), (32, envelopes.SCHEME_BYTE["ms"])],
                         ids=["witness-flag-0", "sas2-relabelled-ms"])
def test_record_that_does_not_vouch_for_the_key_is_uncertified(key_files, tmp_path, capsys,
                                                              offset, value):
    registry = tmp_path / "reg.bin"
    d = key_files
    assert main(list(det(*f"register --params {d}/sas2.prm --pub {d}/sas2.pub"
                           f" --priv {d}/sas2.key --registry {registry}".split()))) == 0
    capsys.readouterr()
    blob = bytearray(registry.read_bytes())
    header = len(envelopes._header(envelopes.MAGIC_REGISTRY, suite_generate("mock", 10007)))
    blob[header + 4 + offset] = value  # the only record's flag or scheme byte
    registry.write_bytes(bytes(blob))
    code, fields = run(capsys, *det(*f"agg-verify --scheme sas2 --params {d}/sas2.prm"
                                     f" --agg {d}/sas2.agg --keys {d}/sas2.pub"
                                     f" --registry {registry}".split()))
    assert code == 1 and fields["result"] == ["invalid"] and fields["reason"] == ["uncertified"]


def test_ms_commands_refuse_an_uncertified_signer(key_files, tmp_path, capsys):
    """ms-combine and ms-verify refuse the unregistered ms key before any
    pairing, and ms-verify says so with certified=no; once the key is
    registered, both succeed and ms-verify prints certified=yes."""
    registry = tmp_path / "reg.bin"
    d = key_files
    tail = f" --pubs {d}/ms.pub --message hi --registry {registry}"
    combine = f"ms-combine --params {d}/ms.prm --sigs {d}/ms.sig --out {tmp_path}/c.bin" + tail
    verify = f"ms-verify --params {d}/ms.prm --msig {d}/ms.sig" + tail
    for scheme in ("sas2", "ms"):
        assert main(list(det(*f"register --params {d}/{scheme}.prm --pub {d}/{scheme}.pub"
                               f" --priv {d}/{scheme}.key --registry {registry}".split()))) == 0
        capsys.readouterr()
        combined, _ = run(capsys, *det(*combine.split()))
        code, fields = run(capsys, *det(*verify.split()))
        if scheme == "sas2":
            assert combined == 1 and not (tmp_path / "c.bin").exists()
            assert code == 1 and fields["reason"] == ["uncertified"]
            assert fields["certified"] == ["no"] and "pairings" not in fields
        else:
            assert combined == 0 and (tmp_path / "c.bin").exists()
            assert code == 0 and fields["result"] == ["valid"] and fields["pairings"] == ["6"]
            assert fields["certified"] == ["yes"]


# The file-reading commands for the fuzz below: {name} is a file of
# ``fuzz_files`` that the command reads, OUT the file it writes.
FUZZ_CASES = {
    "verify": "verify --scheme pks2 --pub {pks2.pub} --sig {pks2.sig} --message hi",
    "sign": "sign --scheme pks2 --pub {pks2.pub} --priv {pks2.key} --out OUT --message hi",
    "agg-sign": "agg-sign --scheme sas2 --params {sas2.prm} --prev {sas2.agg} --keys {sas2.pub}"
                " --pub {sas2b.pub} --priv {sas2b.key} --out OUT --message hi",
    "agg-verify": "agg-verify --scheme sas2 --params {sas2.prm} --agg {sas2.agg} --keys {sas2.pub}",
    "agg-verify-registry": "agg-verify --scheme sas2 --params {sas2.prm} --agg {sas2.agg}"
                           " --keys {sas2.pub} --registry {reg.bin}",
    "ms-sign": "ms-sign --params {ms.prm} --pub {ms.pub} --priv {ms.key} --out OUT --message hi",
    "ms-combine": "ms-combine --params {ms.prm} --sigs {ms.sig} --pubs {ms.pub} --out OUT"
                  " --message hi",
    "ms-verify": "ms-verify --params {ms.prm} --msig {ms.sig} --pubs {ms.pub} --message hi",
    "register": "register --params {sas2.prm} --pub {sas2b.pub} --priv {sas2b.key}"
                " --registry {reg.bin}",
}
FUZZ_FILE = re.compile(r"\{([\w.]+)\}")


@pytest.fixture(scope="module")
def fuzz_files(key_files):
    """``key_files`` plus a second sas2 key pair and a registry that
    certifies the first sas2 key."""
    d = key_files
    for step, seed in [(f"keygen --scheme sas2 --params {d}/sas2.prm --pub-out {d}/sas2b.pub"
                        f" --priv-out {d}/sas2b.key", 200),
                       (f"register --params {d}/sas2.prm --pub {d}/sas2.pub --priv {d}/sas2.key"
                        f" --registry {d}/reg.bin", 7)]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(det(*step.split(), seed=seed))) == 0, step
    return d


def _damaged(blob: bytes, rng) -> list:
    """A bit flip, a truncation, random bytes and a few overwritten bytes of ``blob``."""
    flipped, overwritten = bytearray(blob), bytearray(blob)
    flipped[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
    for _ in range(rng.randint(1, 4)):
        overwritten[rng.randrange(len(blob))] = rng.randrange(256)
    return [bytes(flipped), blob[:rng.randrange(len(blob))],
            rng.randbytes(rng.randrange(200)), bytes(overwritten)]


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
def test_damaged_input_files(fuzz_files, tmp_path, capsys, case):
    """Each file argument, damaged in four ways with three seeds, gives exit
    0, 1 or 2 and one key=value line, never a traceback; each run reads
    fresh copies, so ``register`` never writes the shared registry."""
    template = FUZZ_CASES[case]
    argv = FUZZ_FILE.sub(lambda m: str(tmp_path / m.group(1)), template)
    argv = argv.replace("OUT", str(tmp_path / "out.bin")).split()
    originals = {n: (fuzz_files / n).read_bytes() for n in FUZZ_FILE.findall(template)}

    def run_with(files):
        for name, blob in files.items():
            (tmp_path / name).write_bytes(blob)
        code = main(list(det(*argv)))
        out = capsys.readouterr().out.strip().splitlines()
        assert code in (0, 1, 2) and len(out) == 1, out
        assert all("=" in tok for tok in out[0].split()), out
        return code

    assert run_with(originals) == 0
    rng = random.Random(case)
    for name, blob in originals.items():
        for _ in range(3):
            for damaged in _damaged(blob, rng):
                run_with({**originals, name: damaged})


@pytest.mark.parametrize("fmt, magic", [("hex", b"AREG".hex().encode()), ("bin", b"AREG")],
                         ids=["hex", "bin"])
def test_registry_file_follows_format(fuzz_files, tmp_path, capsys, fmt, magic):
    """register writes the registry in --format; a second register,
    agg-verify, ms-verify and agg-sign read it in either format."""
    d, registry = fuzz_files, tmp_path / "reg"
    for scheme in ("sas2", "ms"):
        code, _ = run(capsys, *det(*f"register --params {d}/{scheme}.prm --pub {d}/{scheme}.pub"
                                    f" --priv {d}/{scheme}.key --registry {registry}"
                                    f" --format {fmt}".split()))
        assert code == 0
    blob = registry.read_bytes()
    assert blob.startswith(magic)
    records = keyreg.CertRegistry.load_bytes(suite_generate("mock", 10007),
                                             envelopes.from_wire(blob)).records()
    assert [r.variant for r in records] == ["sas2", "ms"]
    tail = ["--registry", str(registry)]
    code, fields = run(capsys, *det(*f"agg-verify --scheme sas2 --params {d}/sas2.prm"
                                     f" --agg {d}/sas2.agg --keys {d}/sas2.pub".split(), *tail))
    assert code == 0 and fields["certified"] == ["yes"]
    code, fields = run(capsys, *det(*f"ms-verify --params {d}/ms.prm --msig {d}/ms.sig"
                                     f" --pubs {d}/ms.pub --message hi".split(), *tail))
    assert code == 0 and fields["certified"] == ["yes"]
    code, _ = run(capsys, *det(*f"agg-sign --scheme sas2 --params {d}/sas2.prm --prev {d}/sas2.agg"
                                f" --keys {d}/sas2.pub --pub {d}/sas2b.pub --priv {d}/sas2b.key"
                                f" --out {tmp_path}/a.bin --message hi".split(), *tail))
    assert code == 0 and (tmp_path / "a.bin").exists()

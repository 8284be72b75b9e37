"""The shell wrappers in scripts/ run end to end on the mock backend through
a ``seqsig`` command that invokes this checkout's CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def shell_env(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "seqsig"
    shim.write_text(f'#!/bin/sh\nPYTHONPATH="{REPO / "src"}" exec "{sys.executable}"'
                    ' -m seqsig.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               TMPDIR=str(tmp_path))
    env.pop("SEQSIG_REGISTRY", None)
    return env


def run_script(name, env, cwd):
    done = subprocess.run(["sh", str(REPO / "scripts" / name), "mock:10007"], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_demo_cert_chain(shell_env, tmp_path):
    lines = run_script("demo_cert_chain.sh", shell_env, tmp_path)
    assert len(lines) == 2
    assert all(line.startswith("result=valid command=demo-chain ") for line in lines)
    assert "scheme=sas2" in lines[0] and "scheme=sas1" in lines[1]


def test_full_pipeline_demo(shell_env, tmp_path):
    lines = run_script("full_pipeline_demo.sh", shell_env, tmp_path)
    assert len(lines) == 12 and all(line.startswith("result=ok ") for line in lines[:-2])
    assert lines[-2].startswith("result=valid command=agg-verify scheme=sas2 l=3 ")
    assert lines[-1].startswith("pipeline complete")

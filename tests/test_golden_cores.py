"""The golden digests and the stacked kernels' bit-identity tests hold on
every OpenBLAS core the digests are recorded for, not only on the core this
box selects: each core runs them in a child process with OPENBLAS_CORETYPE
set on that child alone.

On numpy 2.4's scipy-openblas 0.3.31, OPENBLAS_CORETYPE=Zen selects the
Haswell kernels and Prescott the Katmai ones; the tables are keyed by the
name the library reports."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from test_cli import CHAIN_GOLDEN
from test_frozen_table import LEARNABILITY
from test_trainer import GOLDEN

from conftest import core_table, openblas_core

TESTS = pathlib.Path(__file__).resolve().parent
RECORDED = sorted({core for tables in (GOLDEN, LEARNABILITY, CHAIN_GOLDEN)
                   for cores in tables for core in cores})


@pytest.mark.parametrize("core", RECORDED)
def test_golden_digests_hold_on_every_recorded_core(core):
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": str(TESTS.parent / "src")}
    child = subprocess.run([sys.executable, str(TESTS / "record_golden.py")], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    got = json.loads(child.stdout)
    assert got["core"] == core
    assert got["training"] == {case: list(d) for case, d in core_table(GOLDEN, core).items()}
    assert got["learnability"] == {"-".join(map(str, case)): d
                                   for case, d in core_table(LEARNABILITY, core).items()}
    assert got["chain"] == core_table(CHAIN_GOLDEN, core)


# the tests that pin a stacked call to the bytes of its single calls
STACK_TESTS = "stacked or stack_of or single_call or own_call"
# run in the child: check the core OpenBLAS reports, then run STACK_TESTS
STACK_CHILD = ("import sys, conftest, pytest\n"
               "core = conftest.openblas_core()\n"
               "assert core == sys.argv[1], f'asked for {sys.argv[1]}, running on {core}'\n"
               "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '-k', sys.argv[2], "
               "sys.argv[3]]))")


@pytest.mark.parametrize("core", RECORDED)
def test_stack_tests_hold_on_every_recorded_core(core):
    if core == openblas_core():
        pytest.skip(f"{core} is this process's core; the suite itself runs the stack tests")
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": str(TESTS.parent / "src")}
    child = subprocess.run([sys.executable, "-c", STACK_CHILD, core, STACK_TESTS, str(TESTS)],
                           cwd=TESTS, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, (child.stdout + child.stderr)[-3000:]

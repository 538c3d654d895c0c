"""Compute every golden digest case on the OpenBLAS core of this process.

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/record_golden.py

prints one JSON object: the core name and the digests of the training
(test_trainer.GOLDEN), learnability (test_frozen_table.LEARNABILITY) and
CLI-chain (test_cli.CHAIN_GOLDEN) cases. A new core's tables are recorded
from it; test_golden_cores checks the recorded ones through it.
"""

import contextlib
import json
import os
import pathlib
import sys
import tempfile

import test_cli
import test_frozen_table
import test_trainer
from conftest import openblas_core


def record() -> dict:
    learnability = {"-".join(map(str, case)): test_frozen_table.learnability_digest(*case)
                    for case in test_frozen_table.LEARNABILITY_CASES}
    training = {case: list(test_trainer.training_digests(case))
                for case in test_trainer.GOLDEN_CASES}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        os.chdir(tmp)
        try:
            pathlib.Path("config.json").write_text(json.dumps(test_cli.TINY_CONFIG))
            chain = test_cli.chain_digests(pathlib.Path(tmp))
        finally:
            os.chdir(here)
    return {"core": openblas_core(), "training": training, "learnability": learnability,
            "chain": chain}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    print()

"""Print the pass digest of benchmark workloads, one JSON line per run.

    python tests/pass_digests.py --work-dir DIR [--workload NAME ...] [--seed S ...]
    python tests/pass_digests.py --work-dir DIR --files [--seed S ...]

Each run is one set-up and one untraced pass of a workload from
perfbench/workloads.py, loaded by path, on this checkout's src/ tree, with
BLAS pinned to one thread as perfbench/run.py pins it. A line holds the
workload, the seed, the pass digest and the operations attempted and
failed. Two checkouts keep the same outputs when they print the same
lines, under any --work-dir. --files runs cli-wide alone and adds the
sha256 of each file its set-up (data, model, gal) and its pass (ranked,
reranked, eval, curve) wrote: a change to a writer shows as the files it
moves, and when one checkout writes files the other does not, the files
both write can still be compared. Each run works in
DIR/<workload>-seed<seed>, which is removed before and after it.
Not a test module: pytest collects test_*.py alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS_PATH = os.path.join(ROOT, "perfbench", "workloads.py")


def load_workloads():
    """perfbench/workloads.py as a module, importing elip from SRC."""
    sys.path.insert(0, SRC)
    import elip

    where = os.path.realpath(os.path.dirname(elip.__file__))
    if where != os.path.realpath(os.path.join(SRC, "elip")):
        raise SystemExit(f"elip imported from {where}, not from {SRC}")
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PATH)
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI_OUTPUTS = ("data", "model", "gal", "ranked", "reranked", "eval", "curve")


def output_files(run_dir: str) -> dict:
    """{path under run_dir: sha256} of every file cli-wide's set-up and pass
    wrote under CLI_OUTPUTS, subdirectories included."""
    digests = {}
    for out in CLI_OUTPUTS:
        for parent, dirs, names in os.walk(os.path.join(run_dir, out)):
            dirs.sort()
            for name in sorted(names):
                path = os.path.join(parent, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, run_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def pass_digest(workloads, name: str, seed: int, work_dir: str, files: bool = False) -> dict:
    run_dir = os.path.join(os.path.abspath(work_dir), f"{name}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[name](run_dir, seed)
        result = workload.run_pass(workload.setup(), workloads.Recorder())
        line = {"workload": name, "seed": seed, "digest": result.digest, "ops": result.ops,
                "failed": len(result.failed)}
        if files:
            line["files"] = output_files(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return line


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--files", action="store_true",
                        help="cli-wide only: add a sha256 per output file")
    args = parser.parse_args(argv)
    if args.files and set(args.workload or ["cli-wide"]) != {"cli-wide"}:
        parser.error("--files reads cli-wide's output directories; run it on cli-wide alone")
    names = ["cli-wide"] if args.files else args.workload or sorted(workloads.WORKLOADS)
    for name in names:
        for seed in args.seed or [7]:
            line = pass_digest(workloads, name, seed, args.work_dir, args.files)
            print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

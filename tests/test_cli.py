import ast
import base64
import hashlib
import json
import os
import pathlib
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elip import cli, retrieval, storage
from elip.cli import build_parser, run_command
from elip.config import DimsConfig, MapperConfig, RunConfig, TrainConfig
from elip.errors import DataError

from conftest import TINY, core_table, ranking_from_entries

TINY_CONFIG = {
    "seed": 7,
    "dims": {
        "d_t": 6, "d_v": 8, "d_e": 8, "P": 4, "m": 3, "L_t": 2, "L_v": 2,
        "H": 2, "n": 2, "insert_layer": 0, "d_in": 5, "vocab": 32,
    },
    "mapper": {"input_mode": "cls", "hidden": 8},
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    return tmp_path


def run(workdir, *argv):
    return run_command([str(a) for a in argv])


def status_line(capsys):
    return status_line_of(capsys.readouterr().out)


def status_line_of(out):
    lines = out.strip().splitlines()
    assert len(lines) == 1, f"expected one status line, got {lines!r}"
    return json.loads(lines[0])


def build_pipeline(workdir, capsys, variant="C"):
    """gen-synth -> init-model -> embed-gallery -> curate-mine."""
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "data",
               "--n", 12, "--clusters", 3) == 0
    assert run(workdir, "init-model", "--config", "config.json", "--out", "model",
               "--variant", variant) == 0
    assert run(workdir, "embed-gallery", "--config", "config.json", "--out", "gal",
               "--model", "model/checkpoint", "--data", "data/data.jsonl") == 0
    assert run(workdir, "curate-mine", "--config", "config.json", "--out", "plan",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--batch-size", 3) == 0
    capsys.readouterr()


def test_unknown_subcommand_exit_one(workdir, capsys):
    assert run(workdir, "frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_eval_missing_benchmark_exit_two(workdir, capsys):
    storage.write_rankings(str(workdir / "rankings.json"), [ranking_from_entries(
        query_id="q0000", entries=[("a", 1.0)], stage="stage1", k_reranked=0)])
    code = run(workdir, "eval", "--rankings", "rankings.json",
               "--bench", "missing-bench.json", "--out", "m")
    assert code == 2
    err = capsys.readouterr().err
    assert "missing-bench.json" in err


def test_full_pipeline_smoke(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, "train", "--config", "config.json", "--out", "trained",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 2) == 0
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked",
               "--model", "trained/checkpoint", "--gallery", "gal/gallery",
               "--bench", "data/benchmark.json") == 0
    assert run(workdir, "rerank", "--config", "config.json", "--out", "reranked",
               "--model", "trained/checkpoint", "--data", "data/data.jsonl",
               "--bench", "data/benchmark.json",
               "--rankings", "ranked/rankings.json", "--k", 4) == 0
    assert run(workdir, "eval", "--config", "config.json", "--out", "metrics",
               "--rankings", "reranked/rankings.json",
               "--bench", "data/benchmark.json") == 0
    capsys.readouterr()
    assert os.path.exists("metrics/metrics.csv")
    header = open("metrics/metrics.csv").readline().strip()
    assert header == "query_id,metric,value"
    for out_dir in ("data", "model", "gal", "plan", "trained", "ranked", "reranked", "metrics"):
        assert os.path.exists(os.path.join(out_dir, "resolved-config.json"))
    assert os.path.exists("trained/trace.csv")
    assert open("trained/trace.csv").readline().strip() == "step,loss"


def test_gen_synth_resolved_config_replays_run(workdir, capsys):
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "g1",
               "--n", 8, "--clusters", 2) == 0
    capsys.readouterr()
    resolved = json.loads(open("g1/resolved-config.json").read())
    assert resolved["synth"] == {"N": 8, "clusters": 2, "signal_strength": 0.6}
    assert resolved["seed"] == 7


def test_env_seed_overrides_config(workdir, capsys, monkeypatch):
    monkeypatch.setenv("ELIP_SEED", "9")
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "d9",
               "--n", 6, "--clusters", 2) == 0
    assert status_line(capsys)["seed"] == 9
    resolved = json.loads(open("d9/resolved-config.json").read())
    assert resolved["seed"] == 9


def test_seed_flag_beats_env(workdir, capsys, monkeypatch):
    monkeypatch.setenv("ELIP_SEED", "9")
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "d11",
               "--n", 6, "--clusters", 2, "--seed", 11) == 0
    assert status_line(capsys)["seed"] == 11


@pytest.mark.parametrize("hidden", [0, 8])
def test_flops_from_config_matches_flops_from_its_model(workdir, capsys, hidden):
    """flops --config resolves the mapper's hidden width as init-model does
    (0 is 4 * d_v), so it writes the flops.json bytes that flops --model
    writes for a checkpoint made from the same config."""
    config = {**TINY_CONFIG, "mapper": {**TINY_CONFIG["mapper"], "hidden": hidden}}
    (workdir / "config.json").write_text(json.dumps(config))
    assert run(workdir, "init-model", "--config", "config.json", "--out", "model",
               "--variant", "C") == 0
    assert run(workdir, "flops", "--config", "config.json", "--out", "from_config") == 0
    assert run(workdir, "flops", "--model", "model/checkpoint", "--out", "from_model") == 0
    capsys.readouterr()
    index = json.loads((workdir / "model/checkpoint/index.json").read_text())
    assert index["mapper"]["hidden"] == (hidden or 4 * config["dims"]["d_v"])
    assert ((workdir / "from_config/flops.json").read_bytes()
            == (workdir / "from_model/flops.json").read_bytes())


def test_status_is_single_json_line(workdir, capsys):
    assert run(workdir, "flops", "--config", "config.json", "--out", "f") == 0
    line = status_line(capsys)
    assert line["status"] == "ok"
    assert line["command"] == "flops"
    assert line["delta"] == line["flops_with_prompts"] - line["flops_without_prompts"]


def test_gen_synth_is_deterministic(workdir, capsys):
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "a",
               "--n", 8, "--clusters", 2) == 0
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "b",
               "--n", 8, "--clusters", 2) == 0
    capsys.readouterr()
    for name in ("data.jsonl", "patches.bin", "benchmark.json", "vocab.json"):
        with open(f"a/{name}", "rb") as fa, open(f"b/{name}", "rb") as fb:
            assert fa.read() == fb.read(), name


def test_curate_select_smoke(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, "curate-select", "--config", "config.json", "--out", "sel",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--fraction", 0.25) == 0
    line = status_line(capsys)
    assert line["kept"] == 3  # ceil(0.25 * 12)
    doc = json.loads(open("sel/plan.json").read())
    assert len(doc["batches"]) == 3
    assert len(doc["learnability"]) == 3


def test_curve_and_attn_commands(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked",
               "--model", "model/checkpoint", "--gallery", "gal/gallery",
               "--bench", "data/benchmark.json") == 0
    assert run(workdir, "curve", "--config", "config.json", "--out", "cv",
               "--rankings", "ranked/rankings.json", "--bench", "data/benchmark.json",
               "--kind", "recall_topk", "--ks", "1,2,5,12") == 0
    assert run(workdir, "curve", "--config", "config.json", "--out", "cv2",
               "--rankings", "ranked/rankings.json", "--bench", "data/benchmark.json",
               "--kind", "precision_recall") == 0
    assert run(workdir, "attn", "--config", "config.json", "--out", "at",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--record", "img0000", "--bench", "data/benchmark.json",
               "--query-index", 0) == 0
    capsys.readouterr()
    lines = open("cv/curve.csv").read().splitlines()
    assert lines[0] == "kind,x,y"
    assert lines[1].startswith("recall_topk,1")
    assert len(lines) == 5
    pr = open("cv2/curve.csv").read().splitlines()
    assert len(pr) == 22  # header + 21 grid points
    attn = open("at/attn.csv").read().splitlines()
    assert attn[0] == "row,col,weight"
    assert len(attn) == 1 + TINY_CONFIG["dims"]["P"]
    total = sum(float(line.split(",")[2]) for line in attn[1:])
    assert abs(total - 1.0) < 1e-6


def test_bench_occluded_command(workdir, capsys):
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "data",
               "--n", 12, "--clusters", 3) == 0
    assert run(workdir, "bench-occluded", "--config", "config.json", "--out", "occ",
               "--data", "data/data.jsonl") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    line = json.loads(lines[-1])
    assert line["status"] == "ok"
    assert line["queries"] >= 1
    doc = json.loads(open("occ/benchmark-occluded.json").read())
    assert "queries" in doc


def test_corrupt_checkpoint_blob_exit_two(workdir, capsys):
    build_pipeline(workdir, capsys)
    target = "model/checkpoint/proj_image.weight.bin"
    with open(target, "r+b") as fh:
        fh.write(b"XXXX")
    code = run(workdir, "embed-gallery", "--config", "config.json", "--out", "g2",
               "--model", "model/checkpoint", "--data", "data/data.jsonl")
    assert code == 2
    assert "offset 0" in capsys.readouterr().err


def assert_exit_two_naming(capsys, code, path):
    """Exit 2, one error status line, and an `error:` message naming path."""
    out, err = capsys.readouterr()
    assert code == 2, err
    assert json.loads(out)["status"] == "error"
    assert err.startswith("error: ") and path in err and "Traceback" not in err
    return err


def assert_exit_two_without_traceback(workdir, capsys, path, *argv):
    code = run(workdir, *argv, "--config", "config.json", "--out", "bad")
    return assert_exit_two_naming(capsys, code, path)


READERS = {
    "plan/plan.json": ("train", "--model", "model/checkpoint", "--data", "data/data.jsonl",
                       "--plan", "plan/plan.json", "--steps", 1),
    "ranked/rankings.json": ("eval", "--rankings", "ranked/rankings.json",
                             "--bench", "data/benchmark.json"),
    "gal/gallery/ids.json": ("rank", "--model", "model/checkpoint", "--gallery", "gal/gallery",
                             "--bench", "data/benchmark.json"),
    "data/benchmark.json": ("rank", "--model", "model/checkpoint", "--gallery", "gal/gallery",
                            "--bench", "data/benchmark.json"),
    "model/checkpoint/index.json": ("embed-gallery", "--model", "model/checkpoint",
                                    "--data", "data/data.jsonl"),
}


@pytest.mark.parametrize("path", sorted(READERS))
@pytest.mark.parametrize("damage", ["truncated", "missing_keys", "wrong_types"])
def test_malformed_json_artifact_exit_two(workdir, capsys, path, damage):
    build_pipeline(workdir, capsys)
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked",
               "--model", "model/checkpoint", "--gallery", "gal/gallery",
               "--bench", "data/benchmark.json") == 0
    capsys.readouterr()
    text = open(path).read()
    damaged = {
        "truncated": text[: len(text) // 2],
        "missing_keys": "{}",
        "wrong_types": json.dumps({key: 3 for key in json.loads(text)}),
    }[damage]
    with open(path, "w") as fh:
        fh.write(damaged)
    assert_exit_two_without_traceback(workdir, capsys, path, *READERS[path])


def _packed_order(*indices):
    return base64.b64encode(np.array(indices, dtype="<i4").tobytes()).decode("ascii")


RANKINGS_DAMAGE = {
    "negative_index": ("order", _packed_order(0, -1), "order index outside [0, 2)"),
    "index_past_ids": ("order", _packed_order(0, 2), "order index outside [0, 2)"),
    "length_mismatch": ("order", _packed_order(0), "1 order indices but 2 scores"),
    "bad_base64": ("scores", "AAAA*AAA", "scores is not strict base64"),
    "ragged_bytes": ("scores", "AAAA", "scores holds 3 bytes"),
    "repeated_index": ("order", _packed_order(1, 1), "order repeats an image"),
    "k_reranked_float": ("k_reranked", 2.7, "k_reranked 2.7 is not an integer"),
    "k_reranked_bool": ("k_reranked", True, "k_reranked True is not an integer"),
    "k_reranked_string": ("k_reranked", "2", "k_reranked '2' is not an integer"),
    "k_reranked_past_entries": ("k_reranked", 5, "k_reranked 5 outside [0, 2]"),
    "k_reranked_negative": ("k_reranked", -1, "k_reranked -1 outside [0, 2]"),
}


@pytest.mark.parametrize("damage", sorted(RANKINGS_DAMAGE))
def test_damaged_rankings_exit_two(workdir, capsys, damage):
    key, value, expected = RANKINGS_DAMAGE[damage]
    storage.write_rankings("rankings.json", [ranking_from_entries(
        query_id="q0000", entries=[("b", 0.5), ("a", 0.25)], stage="stage1")])
    doc = json.loads(open("rankings.json").read())
    doc["rankings"][0][key] = value
    with open("rankings.json", "w") as fh:
        json.dump(doc, fh)
    err = assert_exit_two_without_traceback(workdir, capsys, "rankings.json", "eval",
                                            "--rankings", "rankings.json",
                                            "--bench", "missing-bench.json")
    assert expected in err


@pytest.mark.parametrize("flag", [False, True])
def test_truncated_vocab_exit_two(workdir, capsys, flag):
    build_pipeline(workdir, capsys)
    text = open("data/vocab.json").read()
    path = "own-vocab.json" if flag else "data/vocab.json"
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    argv = ["bench-occluded", "--data", "data/data.jsonl"] + (["--vocab", path] if flag else [])
    assert_exit_two_without_traceback(workdir, capsys, path, *argv)


@pytest.mark.parametrize("field, value", [
    ("width", "wide"), ("hidden", "x"), ("n", "10"), ("input_mode", 3),
    ("P", 4.9), ("H", True), ("hidden", 8.7), ("seed", "abc"), ("seed", 1.5), ("dtype", "f16"),
])
def test_checkpoint_index_bad_value_exit_two(workdir, capsys, field, value):
    """The dims and mapper fields are typed as a config file's are: a
    string, a float or a bool where an int belongs is a damaged index, not
    a value to cast ("10" is no n, 4.9 no P, true no head count). The seed
    is an int and the dtype f32 or f64."""
    build_pipeline(workdir, capsys)
    path = "model/checkpoint/index.json"
    index = json.loads(open(path).read())
    if field == "width":
        index["dims"]["P"] = value
    elif field in ("P", "H", "n"):
        index["dims"][field] = value
    elif field in ("seed", "dtype"):
        index[field] = value
    else:
        index["mapper"][field] = value
    with open(path, "w") as fh:
        json.dump(index, fh)
    err = assert_exit_two_without_traceback(workdir, capsys, "model/checkpoint",
                                            "flops", "--model", "model/checkpoint")
    assert field == "width" or field in err, err


def _flip_last_byte(path):
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0x01]))


def _truncate(path, size):
    with open(path, "r+b") as fh:
        fh.truncate(size)


def _edit_json(path, edit):
    doc = json.loads(open(path).read())
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_index(edit):
    _edit_json("model/checkpoint/index.json", edit)


def _as_version(version):
    """The index as an older version records it: each tensor entry an
    object of file, dtype, shape and (from version 2) sha256."""
    def edit(index):
        index["version"] = version
        for name, digest in index["tensors"].items():
            index["tensors"][name] = {"file": f"{name}.bin", "dtype": "f32", "shape": [8, 8],
                                      **({"sha256": digest} if version == 2 else {})}
    return edit


def _rewrite_blob(arr):
    """proj_image.weight's blob replaced by arr, its index digest updated
    so the sha256 check passes."""
    data = storage.tensor_to_blob(arr)
    with open("model/checkpoint/proj_image.weight.bin", "wb") as fh:
        fh.write(data)
    _edit_index(lambda ix: ix["tensors"].update(
        {"proj_image.weight": hashlib.sha256(data).hexdigest()}))


CHECKPOINT_DAMAGE = {
    "flipped_payload_byte": (
        "model/checkpoint/proj_image.weight.bin", "sha256 does not match",
        lambda: _flip_last_byte("model/checkpoint/proj_image.weight.bin")),
    "blob_wrong_dtype": (
        "model/checkpoint/index.json",
        "tensor 'proj_image.weight' in model/checkpoint/proj_image.weight.bin is "
        "f64 (8, 8); the model needs f32 (8, 8)",
        lambda: _rewrite_blob(np.zeros((8, 8), dtype=np.float64))),
    "blob_wrong_shape": (
        "model/checkpoint/index.json",
        "tensor 'proj_image.weight' in model/checkpoint/proj_image.weight.bin is "
        "f32 (8, 7); the model needs f32 (8, 8)",
        lambda: _rewrite_blob(np.zeros((8, 7), dtype=np.float32))),
    "index_version_1": (
        "model/checkpoint/index.json", "version 1 is not 3, so re-create the checkpoint",
        lambda: _edit_index(_as_version(1))),
    "index_version_2": (
        "model/checkpoint/index.json", "version 2 is not 3, so re-create the checkpoint",
        lambda: _edit_index(_as_version(2))),
    "missing_tensor": (
        "model/checkpoint/index.json", "missing tensors ['proj_image.weight']",
        lambda: _edit_index(lambda ix: ix["tensors"].pop("proj_image.weight"))),
    "unexpected_tensor": (
        "model/checkpoint/index.json", "unexpected tensor 'proj_image.bias'",
        lambda: _edit_index(lambda ix: ix["tensors"].update({"proj_image.bias": "0" * 64}))),
    "blob_truncated_header": (
        "model/checkpoint/proj_image.weight.bin", "truncated header at offset 5",
        lambda: _truncate("model/checkpoint/proj_image.weight.bin", 5)),
    "insert_layer_past_layers": (
        "model/checkpoint/index.json", "insert_layer=2 outside [0, 2)",
        lambda: _edit_index(lambda ix: ix["dims"].update(insert_layer=ix["dims"]["L_v"]))),
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_checkpoint_integrity_failure_exit_two(workdir, capsys, damage):
    build_pipeline(workdir, capsys)
    path, expected, apply = CHECKPOINT_DAMAGE[damage]
    apply()
    err = assert_exit_two_without_traceback(workdir, capsys, path, "embed-gallery",
                                            "--model", "model/checkpoint",
                                            "--data", "data/data.jsonl")
    assert "malformed" not in err and expected in err


@pytest.mark.parametrize("field, value", [
    ("sha256", None), ("sha256", 5), pytest.param("sha256", "0" * 64, id="sha256-other_digest"),
])
def test_checkpoint_tensor_entry_bad_value_exit_two(workdir, capsys, field, value):
    """A tensor entry is its blob's sha256 hex digest; anything else (no
    string, or the digest of other bytes) fails the digest check."""
    build_pipeline(workdir, capsys)
    _edit_index(lambda ix: ix["tensors"].update({"proj_image.weight": value}))
    err = assert_exit_two_without_traceback(workdir, capsys,
                                            "model/checkpoint/proj_image.weight.bin",
                                            "embed-gallery", "--model", "model/checkpoint",
                                            "--data", "data/data.jsonl")
    assert f"{field} does not match model/checkpoint/index.json" in err, err


def _artifacts(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_cli_artifacts_do_not_depend_on_output_root(workdir, capsys):
    """Every artifact, resolved-config.json included, is byte-identical
    when the same chain runs under two output roots."""
    for root in ("first", "second/nested"):
        def out(name):
            return os.path.join(root, name)

        steps = [
            ("gen-synth", "--out", out("data"), "--n", 12, "--clusters", 3),
            ("init-model", "--out", out("model"), "--variant", "C"),
            ("embed-gallery", "--out", out("gal"), "--model", out("model/checkpoint"),
             "--data", out("data/data.jsonl")),
            ("rank", "--out", out("ranked"), "--model", out("model/checkpoint"),
             "--gallery", out("gal/gallery"), "--bench", out("data/benchmark.json")),
            ("rerank", "--out", out("reranked"), "--model", out("model/checkpoint"),
             "--data", out("data/data.jsonl"), "--bench", out("data/benchmark.json"),
             "--rankings", out("ranked/rankings.json"), "--k", 4),
            ("eval", "--out", out("metrics"), "--rankings", out("reranked/rankings.json"),
             "--bench", out("data/benchmark.json")),
            ("curve", "--out", out("curve"), "--rankings", out("reranked/rankings.json"),
             "--bench", out("data/benchmark.json"), "--kind", "precision_recall"),
        ]
        for argv in steps:
            assert run(workdir, *argv, "--config", "config.json") == 0, argv
    capsys.readouterr()
    first, second = _artifacts("first"), _artifacts("second/nested")
    assert "curve/curve.csv" in first and "model/checkpoint/index.json" in first
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name


@pytest.mark.parametrize("bad_index", [12, -1])
def test_train_plan_index_outside_dataset_exit_two(workdir, capsys, bad_index):
    build_pipeline(workdir, capsys)
    with open("plan/plan.json", "w") as fh:
        json.dump({"batches": [[0, 1, 2], [3, bad_index, 5]], "source_seed": 7}, fh)
    assert_exit_two_without_traceback(
        workdir, capsys, "outside dataset of 12 records", "train", "--model",
        "model/checkpoint", "--data", "data/data.jsonl", "--plan", "plan/plan.json",
        "--steps", 1)
    assert_exit_two_without_traceback(
        workdir, capsys, "outside dataset of 12 records", "curate-select", "--model",
        "model/checkpoint", "--data", "data/data.jsonl", "--plan", "plan/plan.json")


@pytest.mark.parametrize("flags", [[], ["--jest-fraction", 0.5]], ids=["plain", "jest"])
def test_train_empty_plan_exit_two(workdir, capsys, flags):
    """An empty plan is a damaged input whether or not JEST selects from
    it: it used to exit 1 without JEST and 2 with it."""
    build_pipeline(workdir, capsys)
    with open("plan/plan.json", "w") as fh:
        json.dump({"batches": [], "source_seed": 7}, fh)
    assert_exit_two_without_traceback(
        workdir, capsys, "cannot train on an empty plan", *READERS["plan/plan.json"], *flags)
    assert not os.path.exists("bad")


MODEL_AND_DATA_COMMANDS = {
    "embed-gallery": ("embed-gallery", "--model", "model/checkpoint", "--data", "data/data.jsonl"),
    "rerank": ("rerank", "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--bench", "data/benchmark.json", "--rankings", "ranked/rankings.json",
               "--k", 4),
}


@pytest.mark.parametrize("command", sorted(MODEL_AND_DATA_COMMANDS))
def test_manifest_patch_shape_mismatch_exit_two(workdir, capsys, command):
    build_pipeline(workdir, capsys)
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked",
               "--model", "model/checkpoint", "--gallery", "gal/gallery",
               "--bench", "data/benchmark.json") == 0
    capsys.readouterr()
    with open("data/data.jsonl") as fh:
        lines = fh.read().splitlines()
    doc = json.loads(lines[0])
    doc["patches"]["rows"] = TINY.P - 1
    lines[0] = json.dumps(doc)
    with open("data/data.jsonl", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    err = assert_exit_two_without_traceback(
        workdir, capsys, "data/data.jsonl", *MODEL_AND_DATA_COMMANDS[command])
    assert repr(doc["id"]) in err and "(3, 5)" in err


def test_degenerate_embedding_exit_three(workdir, capsys):
    import numpy as np

    from elip.storage import load_checkpoint, save_checkpoint

    build_pipeline(workdir, capsys)
    # a valid checkpoint (digests match) whose image projection is zero
    model = load_checkpoint("model/checkpoint")
    model.proj_image.tensors["weight"] = np.zeros_like(model.proj_image.tensors["weight"])
    save_checkpoint("model/checkpoint", model)
    code = run(workdir, "embed-gallery", "--config", "config.json", "--out", "g3",
               "--model", "model/checkpoint", "--data", "data/data.jsonl")
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_train_rejects_bad_fraction_exit_one(workdir, capsys):
    build_pipeline(workdir, capsys)
    code = run(workdir, "train", "--config", "config.json", "--out", "t2",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 1, "--subset-fraction", 1.5)
    assert code == 1


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "nan", "lr"),
    ("--lr", "inf", "lr"),
    ("--ckpt-interval", -1, "ckpt_interval"),
])
def test_train_rejects_bad_setting_exit_one(workdir, capsys, flag, value, field):
    build_pipeline(workdir, capsys)
    code = run(workdir, "train", "--config", "config.json", "--out", "t2",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 2, flag, value)
    assert code == 1
    assert f"error: {field}=" in capsys.readouterr().err
    assert not os.path.exists("t2")  # no step ran, no checkpoint was saved


@pytest.mark.parametrize("grad_clip", [float("nan"), float("inf")])
def test_train_rejects_nonfinite_grad_clip_exit_one(workdir, capsys, grad_clip):
    build_pipeline(workdir, capsys)
    with open("clip.json", "w") as fh:
        json.dump({**TINY_CONFIG, "train": {"grad_clip": grad_clip}}, fh)
    code = run(workdir, "train", "--config", "clip.json", "--out", "t2",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 2)
    assert code == 1
    assert "error: grad_clip=" in capsys.readouterr().err
    assert not os.path.exists("t2")


@pytest.mark.parametrize("strength", ["nan", "inf"])
def test_gen_synth_rejects_nonfinite_signal_strength_exit_one(workdir, capsys, strength):
    code = run(workdir, "gen-synth", "--config", "config.json", "--out", "data",
               "--n", 12, "--clusters", 3, "--signal-strength", strength)
    assert code == 1
    assert "error: signal_strength=" in capsys.readouterr().err
    assert not os.path.exists(os.path.join("data", "data.jsonl"))


def test_variant_b_pipeline_with_itm_modes(workdir, capsys):
    build_pipeline(workdir, capsys, variant="B")
    assert run(workdir, "train", "--config", "config.json", "--out", "tb",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 1, "--finetune-itm",
               "--jest-fraction", 0.5) == 0
    assert run(workdir, "rank", "--config", "config.json", "--out", "rb",
               "--model", "tb/checkpoint", "--gallery", "gal/gallery",
               "--bench", "data/benchmark.json") == 0
    assert run(workdir, "rerank", "--config", "config.json", "--out", "rrb",
               "--model", "tb/checkpoint", "--data", "data/data.jsonl",
               "--bench", "data/benchmark.json", "--rankings", "rb/rankings.json",
               "--k", 3, "--itm-sigmoid") == 0
    capsys.readouterr()
    doc = json.loads(open("rrb/rankings.json").read())
    assert doc["rankings"][0]["k_reranked"] == 3


# ---------------------------------------------------------------------------
# golden bytes of the rank -> rerank -> eval -> curve chain
# ---------------------------------------------------------------------------

# sha256 of every rankings, metrics and curve file the chain writes from
# seed 7 on TINY dims, for a trained C model and a trained B model (re-ranked
# with raw and with sigmoid-squashed ITM logits), per OpenBLAS core
# (conftest.core_table); Katmai's re-ranked files were re-recorded when the
# insert block's prompt rows came to run their pre-attention as a group of
# their own. resolved-config.json is not pinned here: it is the same on
# every core, and the output-root and replay tests compare its bytes.
CHAIN_GOLDEN = {
    ("SkylakeX",): {
        "B/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/ranked/rankings.json":
            "60b5ef9d583d923d67acbcb1e60b9cb57515b638e83564bc57fcac61a285d18b",
        "B/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked--itm-sigmoid/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/reranked--itm-sigmoid/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked--itm-sigmoid/rankings.json":
            "9e2ae08f7983be816f37ba51d2f90b0c9583a1a43f9f9ec32981d8a6b6b3457c",
        "B/reranked--itm-sigmoid/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked/eval/metrics.csv":
            "6f22a8cc22f355020390bfbb14990f430d3eb4884a1ab774cb80445d6f37f40c",
        "B/reranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked/rankings.json":
            "fc8847f003cc7f095cbcacc5f3e54c60b2d3adf5ff9c38abc0a1db269144818d",
        "B/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "C/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "C/ranked/rankings.json":
            "807657117cd742559ffb8cdb1dd576f6413bf4474ade2a487621af55d7db959a",
        "C/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/reranked/eval/metrics.csv":
            "38d650ea80e004a7625042c1ee213c7b8aa3117fd220b9e1f7e2487f0267c2fe",
        "C/reranked/precision_recall/curve.csv":
            "f0761a916a3d87d4294ca46695b3af04f871112a69e86278be097e83be4c9a57",
        "C/reranked/rankings.json":
            "f4b55adaaac144f24f17840d68f29817b686e4b1dd33c528ccc1a42dfa57d8ff",
        "C/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
    },
    ("Haswell",): {
        "B/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/ranked/rankings.json":
            "b967fcce0c87db1c7a8d502018b12e424640f118c7cda7b05efaf3838058cb6a",
        "B/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked--itm-sigmoid/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/reranked--itm-sigmoid/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked--itm-sigmoid/rankings.json":
            "41a990f3d01c94d32e58a83ecfa6f656574910542518218ff71c829188686101",
        "B/reranked--itm-sigmoid/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked/eval/metrics.csv":
            "6f22a8cc22f355020390bfbb14990f430d3eb4884a1ab774cb80445d6f37f40c",
        "B/reranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked/rankings.json":
            "4a1856f9ec31a7159814a68c85d6701176f5ca216db771bfdb7e8f439fe60ffa",
        "B/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "C/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "C/ranked/rankings.json":
            "beda75389b5c96722d5bfa9fd469c7ccf3d7ea012ecd5202817ce356ed176b49",
        "C/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/reranked/eval/metrics.csv":
            "38d650ea80e004a7625042c1ee213c7b8aa3117fd220b9e1f7e2487f0267c2fe",
        "C/reranked/precision_recall/curve.csv":
            "f0761a916a3d87d4294ca46695b3af04f871112a69e86278be097e83be4c9a57",
        "C/reranked/rankings.json":
            "605fc328e9d62764e9684ba087093336323190188e815085045fc1dbefc1efd5",
        "C/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
    },
    ("Sandybridge",): {
        "B/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/ranked/rankings.json":
            "cd6265bf1bf3f64a8e276d39c45a42a9735da11a6bbfd892acf3dc78bb25676e",
        "B/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked--itm-sigmoid/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/reranked--itm-sigmoid/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked--itm-sigmoid/rankings.json":
            "3caea9bfe2d078bec62b348d699a424948d8d5d03d26b7b3031ecc3841f07880",
        "B/reranked--itm-sigmoid/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked/eval/metrics.csv":
            "6f22a8cc22f355020390bfbb14990f430d3eb4884a1ab774cb80445d6f37f40c",
        "B/reranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked/rankings.json":
            "0664660828056c0283f48c34263e37d11d17dbbc7f62deacb245cc6ca31201eb",
        "B/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "C/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "C/ranked/rankings.json":
            "7e508a2be5b1d59b0096b1e68158a2b8d0238c8e77a7becec40201b11ab776c8",
        "C/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/reranked/eval/metrics.csv":
            "38d650ea80e004a7625042c1ee213c7b8aa3117fd220b9e1f7e2487f0267c2fe",
        "C/reranked/precision_recall/curve.csv":
            "f0761a916a3d87d4294ca46695b3af04f871112a69e86278be097e83be4c9a57",
        "C/reranked/rankings.json":
            "03e487b0198ade1a46e875f7a4db2a9b9e5169b6005449069e920304cedd659a",
        "C/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
    },
    ("Katmai",): {
        "B/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/ranked/rankings.json":
            "fa0b2bbe2e5d64f4d93351395dfc4a28810d5d5acd3f640b8b5469b9c89560c3",
        "B/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked--itm-sigmoid/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "B/reranked--itm-sigmoid/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked--itm-sigmoid/rankings.json":
            "153809b5b7bd78cc1b8c59587bd1af80a917529a4e3c1997a55549ed9e5554e4",
        "B/reranked--itm-sigmoid/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "B/reranked/eval/metrics.csv":
            "6f22a8cc22f355020390bfbb14990f430d3eb4884a1ab774cb80445d6f37f40c",
        "B/reranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "B/reranked/rankings.json":
            "a7defbaec03515f8f5a377c98a0c8a779d16c804798e075535a44b9cb1373581",
        "B/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/ranked/eval/metrics.csv":
            "3e0e4c42020ad6310fa808fb3f8fec6dd5d9ed8c3486efc7889ac9a5c6d4a77c",
        "C/ranked/precision_recall/curve.csv":
            "81d32e063e44af66ebddde65575cb4da59bba34727f2ab28f2211af87f69b665",
        "C/ranked/rankings.json":
            "b064b461aa8093c53863ee557f63f555a098a1bad7dfa7ba5f0a5a4617dc5c53",
        "C/ranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
        "C/reranked/eval/metrics.csv":
            "38d650ea80e004a7625042c1ee213c7b8aa3117fd220b9e1f7e2487f0267c2fe",
        "C/reranked/precision_recall/curve.csv":
            "f0761a916a3d87d4294ca46695b3af04f871112a69e86278be097e83be4c9a57",
        "C/reranked/rankings.json":
            "7982e7622a9547c0d19ce57efdf0f0b14777cb7babc997c0a970a82bafaab5e5",
        "C/reranked/recall_topk/curve.csv":
            "46b555a64f510130458835e80d1d7bd7a4a2e63f265b694684d3eeeadd7f7cad",
    },
}


def chain_digests(workdir) -> dict:
    """{path: sha256} of every rankings.json, metrics.csv and curve.csv the
    chain writes in workdir, the current directory holding config.json."""
    def ok(command, out, *argv):
        assert run(workdir, command, "--config", "config.json", "--out", out, *argv) == 0
        return out

    ok("gen-synth", "data", "--n", 16, "--clusters", 4)
    data, bench = ("--data", "data/data.jsonl"), ("--bench", "data/benchmark.json")
    ranked = []
    for variant, flags in (("C", [[]]), ("B", [[], ["--itm-sigmoid"]])):
        model = ok("init-model", f"{variant}/model", "--variant", variant)
        gal = ok("embed-gallery", f"{variant}/gal", "--model", f"{model}/checkpoint", *data)
        plan = ok("curate-mine", f"{variant}/plan", "--model", f"{model}/checkpoint", *data,
                  "--batch-size", 4)
        trained = ok("train", f"{variant}/trained", "--model", f"{model}/checkpoint", *data,
                     "--plan", f"{plan}/plan.json", "--steps", 2,
                     *(["--finetune-itm"] if variant == "B" else []))
        stage1 = ok("rank", f"{variant}/ranked", "--model", f"{trained}/checkpoint",
                    "--gallery", f"{gal}/gallery", *bench)
        ranked.append(stage1)
        for extra in flags:
            ranked.append(ok("rerank", f"{variant}/reranked{''.join(extra)}",
                             "--model", f"{trained}/checkpoint", *data, *bench,
                             "--rankings", f"{stage1}/rankings.json", "--k", 5, *extra))
    for out in ranked:
        rankings = ("--rankings", f"{out}/rankings.json", *bench)
        ok("eval", f"{out}/eval", *rankings)
        for kind in ("recall_topk", "precision_recall"):
            ok("curve", f"{out}/{kind}", *rankings, "--kind", kind)
    digests = {}
    for root, _, files in os.walk("."):
        for name in files:
            if name in ("rankings.json", "metrics.csv", "curve.csv"):
                path = os.path.relpath(os.path.join(root, name))
                digests[path] = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    return digests


def test_cli_chain_matches_golden_digests(workdir):
    assert chain_digests(workdir) == core_table(CHAIN_GOLDEN)


def test_checkpoint_interval_writes_intermediates(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, "train", "--config", "config.json", "--out", "ti",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 4, "--ckpt-interval", 2) == 0
    capsys.readouterr()
    assert os.path.exists("ti/checkpoint-step2/index.json")
    assert os.path.exists("ti/checkpoint/index.json")


def test_train_saves_each_checkpoint_once(workdir, capsys, monkeypatch):
    build_pipeline(workdir, capsys)
    saved = []
    save = storage.save_checkpoint

    def spy(ckpt_dir, model):
        saved.append(ckpt_dir)
        save(ckpt_dir, model)

    monkeypatch.setattr(storage, "save_checkpoint", spy)
    assert run(workdir, "train", "--config", "config.json", "--out", "ti",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 4, "--ckpt-interval", 2) == 0
    capsys.readouterr()
    assert saved == [os.path.join("ti", "checkpoint-step2"), os.path.join("ti", "checkpoint")]


def test_unique_category_mining_flag(workdir, capsys):
    # gen-synth records carry their cluster word as category; 3 clusters so
    # category-unique batches of size 3 are exactly one record per cluster
    assert run(workdir, "gen-synth", "--config", "config.json", "--out", "data",
               "--n", 12, "--clusters", 3) == 0
    assert run(workdir, "init-model", "--config", "config.json", "--out", "model") == 0
    assert run(workdir, "curate-mine", "--config", "config.json", "--out", "ucat",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--batch-size", 3, "--unique-category") == 0
    capsys.readouterr()
    doc = json.loads(open("ucat/plan.json").read())
    for batch in doc["batches"]:
        clusters = {i % 3 for i in batch}
        assert len(clusters) == 3


def test_gen_synth_vocab_overflow_exit_one(workdir, capsys):
    # 40 clusters needs 40 cluster words + signal words + pad > vocab of 32
    code = run(workdir, "gen-synth", "--config", "config.json", "--out", "ov",
               "--n", 80, "--clusters", 40)
    assert code == 1
    assert "vocab" in capsys.readouterr().err


def test_init_model_bad_dims_exit_one(workdir, capsys):
    code = run(workdir, "init-model", "--config", "config.json", "--out", "bad",
               "--n-prompts", -1)
    assert code == 1
    capsys.readouterr()


# run_command in a child whose address space is capped at 2 GiB, so an
# allocation the config asks for fails there and never touches the machine
CAPPED_CHILD = """
import resource, sys
from elip.cli import run_command
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(run_command(sys.argv[1:]))
"""


def test_memory_error_exits_two_without_traceback(workdir):
    """A config whose weights cannot be allocated (d_v = 65536 asks for a
    32 GiB matrix) exits 2 with one status line and leaves no --out."""
    (workdir / "huge.json").write_text(json.dumps({"dims": {"d_v": 65536, "H": 4}}))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD, "init-model", "--config", "huge.json",
         "--out", "model"],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 2, child.stderr[-2000:]
    lines = child.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["status"] == "error"
    assert child.stderr.startswith("error: ") and "Traceback" not in child.stderr
    assert not os.path.exists("model")


def test_init_model_dense_mean_round_trips(workdir, capsys):
    from elip.storage import load_checkpoint

    assert run(workdir, "init-model", "--config", "config.json", "--out", "dm",
               "--mapper-input", "dense_mean") == 0
    capsys.readouterr()
    model = load_checkpoint("dm/checkpoint")
    assert model.mapper_cfg.input_mode == "dense_mean"


def test_run_config_round_trip(tmp_path):
    cfg = RunConfig.from_dict(TINY_CONFIG)
    path = str(tmp_path / "config.json")
    storage.write_json(path, asdict(cfg))
    assert storage.read_config(path) == cfg


# (command, config document, exit code, text the error must name); each
# command runs on real pipeline artifacts, so only the config is at fault
BAD_CONFIGS = {
    "bad-json": ("init-model", "{bad", 2, "bad.json"),
    "not-an-object": ("init-model", "[1]", 2, "bad.json"),
    "seed-string": ("gen-synth", {"seed": "x"}, 1, "seed"),
    "dims-field-string": ("init-model", {"dims": {"d_v": "32"}}, 1, "dims.d_v"),
    "dims-not-an-object": ("init-model", {"dims": 5}, 1, "dims"),
    "dims-zero-heads": ("init-model", {"dims": {**TINY_CONFIG["dims"], "H": 0}}, 1, "H"),
    "train-lr-string": ("train", {"train": {"lr": "a"}}, 1, "train.lr"),
    "rerank-k-string": ("rerank", {"rerank_k": "3"}, 1, "rerank_k"),
    "unknown-top-level-key": ("init-model", {"rerank_K": 5}, 1, "rerank_K"),
    "mapper-n": ("init-model", {"mapper": {"n": 2}}, 1, "MapperConfig fields: ['n']"),
    "out-dir": ("init-model", {"out_dir": "mine"}, 1, "RunConfig fields: ['out_dir']"),
}

COMMAND_ARGS = {
    "gen-synth": ["--n", 12, "--clusters", 3],
    "init-model": [],
    "train": ["--model", "model/checkpoint", "--data", "data/data.jsonl",
              "--plan", "plan/plan.json", "--steps", 1],
    "rerank": ["--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--bench", "data/benchmark.json", "--rankings", "ranked/rankings.json"],
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_malformed_config_exits_cleanly(workdir, capsys, case):
    command, doc, code, named = BAD_CONFIGS[case]
    build_pipeline(workdir, capsys)
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked",
               "--model", "model/checkpoint", "--gallery", "gal/gallery",
               "--bench", "data/benchmark.json") == 0
    capsys.readouterr()
    text = doc if isinstance(doc, str) else json.dumps({**TINY_CONFIG, **doc})
    (workdir / "bad.json").write_text(text)
    assert run(workdir, command, "--config", "bad.json", "--out", "out",
               *COMMAND_ARGS[command]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err


def test_resolved_config_replays_through_the_checked_reader(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, "init-model", "--config", "model/resolved-config.json",
               "--out", "again") == 0
    capsys.readouterr()
    first = json.loads(open("model/resolved-config.json").read())
    assert json.loads(open("again/resolved-config.json").read()) == first


def test_default_mining_batch_size_echoes_paper_default(workdir, capsys):
    from elip.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["curate-mine", "--model", "m", "--data", "d"])
    assert args.batch_size == 40


# ---------------------------------------------------------------------------
# fuzzed artifacts: truncated and byte-mutated copies through run_command
# ---------------------------------------------------------------------------


FUZZED = {
    **READERS,
    "data/vocab.json": ("bench-occluded", "--data", "data/data.jsonl"),
    "data/data.jsonl": ("embed-gallery", "--model", "model/checkpoint",
                        "--data", "data/data.jsonl"),
    "ranked/queries.json": ("rerank", "--model", "model/checkpoint", "--data", "data/data.jsonl",
                            "--bench", "data/benchmark.json",
                            "--rankings", "ranked/rankings.json", "--k", 3),
}


def _byte_damage(data):
    truncated = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    edits = st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)

    def mutate(changes):
        out = bytearray(data)
        for at, value in changes:
            out[at] = value
        return bytes(out)

    return st.one_of(truncated, edits.map(mutate))


def _rankings_damage(data):
    """Field-level damage to a rankings file: base64 text with characters
    swapped (inside or outside the alphabet) and order arrays with arbitrary
    int32 indices, negative and past the id list included."""
    doc = json.loads(data)
    queries = st.integers(0, len(doc["rankings"]) - 1)

    def encode(edit):
        return (json.dumps(edit(json.loads(data)), sort_keys=True) + "\n").encode()

    def garble(q, key, at, char):
        def edit(d):
            text = d["rankings"][q][key]
            at_ = at % (len(text) + 1)
            d["rankings"][q][key] = text[:at_] + char + text[at_ + 1:]
            return d
        return encode(edit)

    def reorder(q, indices):
        def edit(d):
            d["rankings"][q]["order"] = _packed_order(*indices)
            return d
        return encode(edit)

    n = len(doc["ids"])
    garbled = st.builds(garble, queries, st.sampled_from(["order", "scores"]),
                        st.integers(0, 1 << 16),
                        st.sampled_from(list("A/+=*-_ \n") + ["", "==", "é"]))
    reordered = st.builds(reorder, queries, st.lists(
        st.one_of(st.integers(-(1 << 31), (1 << 31) - 1), st.integers(-2, n + 1)),
        min_size=n, max_size=n))
    return st.one_of(garbled, reordered)


# one value per JSON type; integers stay small, so no edit asks for a large
# allocation
JSON_VALUES = {
    int: st.integers(-2, 2),
    float: st.floats(-4, 4),
    str: st.text(max_size=3),
    bool: st.booleans(),
    type(None): st.none(),
    list: st.lists(st.integers(0, 2), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
}


def _field_damage(data, lines):
    """Field-level damage to a JSON artifact (one document per line when
    lines): one leaf (a scalar or an empty list or object) swapped to a
    value of another JSON type, one key deleted, or one unknown key added."""
    doc = [json.loads(line) for line in data.splitlines()] if lines else json.loads(data)
    leaves, keys, objects = [], [], []

    def walk(node, path):
        children = list(node.items() if isinstance(node, dict)
                        else enumerate(node) if isinstance(node, list) else ())
        if isinstance(node, dict):
            objects.append(path)
            keys.extend((*path, key) for key, _ in children)
        if not children:
            leaves.append(path)
        for key, child in children:
            walk(child, (*path, key))

    walk(doc, ())

    def at(node, path):
        for key in path:
            node = node[key]
        return node

    def edited(edit):
        def apply(args):
            d = json.loads(json.dumps(doc))
            edit(d, *args)
            text = "".join(json.dumps(x) + "\n" for x in d) if lines else json.dumps(d)
            return text.encode()
        return apply

    def swap(d, path, value):
        at(d, path[:-1])[path[-1]] = value

    def delete(d, path):
        del at(d, path[:-1])[path[-1]]

    def add(d, path, value):
        at(d, path)["fuzz_unknown"] = value

    swapped = st.sampled_from(leaves).flatmap(lambda path: st.sampled_from(
        [kind for kind in JSON_VALUES if kind is not type(at(doc, path))]
    ).flatmap(lambda kind: st.tuples(st.just(path), JSON_VALUES[kind])))
    value = st.one_of(*JSON_VALUES.values())
    return st.one_of(swapped.map(edited(swap)),
                     st.tuples(st.sampled_from(keys)).map(edited(delete)),
                     st.tuples(st.sampled_from(objects), value).map(edited(add)))


@pytest.mark.parametrize("path", sorted(FUZZED))
def test_fuzzed_artifact_exits_cleanly(workdir, capsys, path):
    """A damaged artifact either still reads (exit 0) or exits 1 or 2 with
    one error status line, an `error:` message and no --out left behind;
    run_command never raises."""
    build_pipeline(workdir, capsys)
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked",
               "--model", "model/checkpoint", "--gallery", "gal/gallery",
               "--bench", "data/benchmark.json") == 0
    capsys.readouterr()
    with open(path, "rb") as fh:
        original = fh.read()
    damage = st.one_of(_byte_damage(original),
                       _field_damage(original.decode(), path.endswith(".jsonl")))
    if path.endswith("rankings.json"):
        damage = st.one_of(damage, _rankings_damage(original))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(damaged=damage)
    def check(damaged):
        with open(path, "wb") as fh:
            fh.write(damaged)
        try:
            code = run(workdir, *FUZZED[path], "--config", "config.json", "--out", "fuzz")
            left = os.path.exists("fuzz")
        finally:
            with open(path, "wb") as fh:
                fh.write(original)
            shutil.rmtree("fuzz", ignore_errors=True)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        assert status_line_of(out)["status"] == ("error" if code else "ok")
        if code:
            assert err.startswith("error: ") and not left

    check()


RANK_ARGS = ("rank", "--model", "model/checkpoint", "--gallery", "gal/gallery",
             "--bench", "data/benchmark.json")


def test_rank_store_width_mismatch_exit_two(workdir, capsys):
    """A store embedded by a model with another d_e names the store."""
    build_pipeline(workdir, capsys)
    wide = dict(TINY_CONFIG, dims=dict(TINY_CONFIG["dims"], d_e=16))
    (workdir / "wide.json").write_text(json.dumps(wide))
    assert run(workdir, "init-model", "--config", "wide.json", "--out", "wide") == 0
    assert run(workdir, "embed-gallery", "--config", "wide.json", "--out", "gal",
               "--model", "wide/checkpoint", "--data", "data/data.jsonl") == 0
    capsys.readouterr()
    err = assert_exit_two_without_traceback(workdir, capsys, "gal/gallery", *RANK_ARGS)
    assert "width 16" in err and "d_e=8" in err


@pytest.mark.parametrize("shape", [(), (12,)], ids=["rank0", "rank1"])
def test_rank_store_not_a_matrix_exit_two(workdir, capsys, shape):
    build_pipeline(workdir, capsys)
    storage.write_tensor_blob("gal/gallery/embeddings.bin", np.ones(shape, dtype=np.float32))
    err = assert_exit_two_without_traceback(
        workdir, capsys, "gal/gallery/embeddings.bin", *RANK_ARGS)
    assert f"rank {len(shape)}" in err


def test_rank_store_overflowing_dims_exit_two(workdir, capsys):
    """Dims (2**32, 2**32) wrap an int64 element count to 0, which an empty
    payload used to match."""
    build_pipeline(workdir, capsys)
    header = storage.tensor_to_blob(np.ones((1, 1), dtype=np.float32))[:8]
    with open("gal/gallery/embeddings.bin", "wb") as fh:
        fh.write(header + struct.pack("<QQ", 2**32, 2**32))
    err = assert_exit_two_without_traceback(
        workdir, capsys, "gal/gallery/embeddings.bin", *RANK_ARGS)
    assert "payload length 0" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rank_store_non_finite_row_exit_two(workdir, capsys, bad):
    """A NaN row used to pass the unit-norm check, and stage 1 then ordered
    the gallery by Python's sort on NaN keys."""
    build_pipeline(workdir, capsys)
    matrix = storage.read_tensor_blob("gal/gallery/embeddings.bin").copy()
    matrix[1] = bad
    storage.write_tensor_blob("gal/gallery/embeddings.bin", matrix)
    err = assert_exit_two_without_traceback(workdir, capsys, "gal/gallery", *RANK_ARGS)
    assert "not finite" in err
    assert not os.path.exists("bad/rankings.json")


def test_rank_store_non_string_id_exit_two(workdir, capsys):
    build_pipeline(workdir, capsys)
    doc = json.loads(open("gal/gallery/ids.json").read())
    doc["ids"][2] = 7
    (workdir / "gal/gallery/ids.json").write_text(json.dumps(doc))
    err = assert_exit_two_without_traceback(workdir, capsys, "gal/gallery/ids.json", *RANK_ARGS)
    assert "image id 7 is not a string" in err


@pytest.mark.parametrize("seed", ["abc", 1.5, True, None])
def test_rank_store_non_integer_seed_exit_two(workdir, capsys, seed):
    build_pipeline(workdir, capsys)
    doc = json.loads(open("gal/gallery/ids.json").read())
    doc["seed"] = seed
    (workdir / "gal/gallery/ids.json").write_text(json.dumps(doc))
    err = assert_exit_two_without_traceback(workdir, capsys, "gal/gallery/ids.json", *RANK_ARGS)
    assert f"seed {seed!r} is not an integer" in err


def _edit_manifest_line(lineno, edit):
    lines = open("data/data.jsonl").read().splitlines()
    doc = json.loads(lines[lineno - 1])
    edit(doc)
    lines[lineno - 1] = json.dumps(doc)
    with open("data/data.jsonl", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _set_first_vocab_id(doc):
    doc[sorted(doc)[0]] = 2.5


EMBED_ARGS = ("embed-gallery", "--model", "model/checkpoint", "--data", "data/data.jsonl")

# one float or bool per integer field that a reader used to cast with int():
# (file, edit, consuming command, message)
INTEGER_FIELDS = {
    "plan_batch_index": (
        "plan/plan.json",
        lambda: _edit_json("plan/plan.json", lambda d: d["batches"][0].__setitem__(1, 1.9)),
        READERS["plan/plan.json"], "batch 0 index 1.9 is not an integer"),
    "plan_source_seed": (
        "plan/plan.json",
        lambda: _edit_json("plan/plan.json", lambda d: d.update(source_seed=True)),
        READERS["plan/plan.json"], "source_seed True is not an integer"),
    "manifest_row": (
        "data/data.jsonl",
        lambda: _edit_manifest_line(2, lambda d: d["patches"].update(row=4.7)),
        EMBED_ARGS, "line 2: patches row 4.7 is not an integer"),
    "manifest_rows": (
        "data/data.jsonl",
        lambda: _edit_manifest_line(3, lambda d: d["patches"].update(rows=True)),
        EMBED_ARGS, "line 3: patches rows True is not an integer"),
    "manifest_token": (
        "data/data.jsonl",
        lambda: _edit_manifest_line(1, lambda d: d["tokens"].__setitem__(0, 1.0)),
        EMBED_ARGS, "line 1: token 1.0 is not an integer"),
    "vocab_id": (
        "own-vocab.json",
        lambda: (shutil.copy("data/vocab.json", "own-vocab.json"),
                 _edit_json("own-vocab.json", _set_first_vocab_id)),
        ("bench-occluded", "--data", "data/data.jsonl", "--vocab", "own-vocab.json"),
        "2.5 is not an integer"),
    "benchmark_text_token": (
        "data/benchmark.json",
        lambda: _edit_json("data/benchmark.json",
                           lambda d: d["queries"][1]["text_tokens"].__setitem__(0, True)),
        READERS["data/benchmark.json"], "query 1: text token True is not an integer"),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_non_integer_artifact_field_exit_two(workdir, capsys, field):
    """A float or a bool in an integer field is a damaged artifact, not a
    number to truncate: a plan batch [0, 1.9, true] used to train on
    records [0, 1, 1], and a manifest row 4.7 to read the patches at row 4."""
    build_pipeline(workdir, capsys)
    path, damage, argv, expected = INTEGER_FIELDS[field]
    damage()
    err = assert_exit_two_without_traceback(workdir, capsys, path, *argv)
    assert expected in err, err


# one value per kind of bad learnability in the pipeline's plan of 12
# batches: not a list, a string or bool entry, a score count off by one
BAD_LEARNABILITY = {
    "string": "abc",
    "object": {"a": 1},
    "string_entry": [1] * 11 + ["x"],
    "bool_entry": [True] + [0.5] * 11,
    "short_list": [0.5] * 11,
    "single_score": [0.5],
}


@pytest.mark.parametrize("case", sorted(BAD_LEARNABILITY))
def test_bad_plan_learnability_exit_two(workdir, capsys, case):
    """learnability is null or one number per batch: any other JSON value
    used to load, and train --plan exited 0."""
    build_pipeline(workdir, capsys)
    value = BAD_LEARNABILITY[case]
    _edit_json("plan/plan.json", lambda d: d.update(learnability=value))
    err = assert_exit_two_without_traceback(workdir, capsys, "plan/plan.json",
                                            *READERS["plan/plan.json"])
    assert f"learnability {value!r} is neither null nor a list of 12 numbers" in err, err


OCCLUDED_ARGS = ("bench-occluded", "--data", "data/data.jsonl")

# one wrongly typed value per string or list-of-strings field: a string used
# to load as the set of its characters, a number as the caption itself
# (file, edit, consuming command, message)
STRING_FIELDS = {
    "manifest_categories": (
        "data/data.jsonl",
        lambda: _edit_manifest_line(2, lambda d: d.update(categories="dog")),
        OCCLUDED_ARGS, "line 2: categories 'dog' is not a list of strings"),
    "manifest_occluded_categories": (
        "data/data.jsonl",
        lambda: _edit_manifest_line(3, lambda d: d.update(occluded_categories=["cat", 3])),
        OCCLUDED_ARGS, "line 3: occluded_categories 3 is not a string"),
    "manifest_caption": (
        "data/data.jsonl",
        lambda: _edit_manifest_line(1, lambda d: d.update(caption=17)),
        EMBED_ARGS, "line 1: caption 17 is not a string"),
    "benchmark_positives": (
        "data/benchmark.json",
        lambda: _edit_json("data/benchmark.json",
                           lambda d: d["queries"][0].update(positives="img0")),
        READERS["data/benchmark.json"], "query 0: positives 'img0' is not a list of strings"),
}


@pytest.mark.parametrize("field", sorted(STRING_FIELDS))
def test_non_string_artifact_field_exit_two(workdir, capsys, field):
    """A string where a list of strings belongs used to load as a set of
    characters: bench-occluded exited 0 on categories "dog", and positives
    "img0" failed as positives ['0', 'g', 'i', 'm'] of no named file."""
    build_pipeline(workdir, capsys)
    path, damage, argv, expected = STRING_FIELDS[field]
    damage()
    err = assert_exit_two_without_traceback(workdir, capsys, path, *argv)
    assert expected in err, err


# one input fault per error path of its own: (ELIP_SEED, damage, argv, exit
# code, message)
INPUT_FAULTS = {
    "env_seed_not_an_integer": ("abc", None, ("flops",), 1,
                                "ELIP_SEED must be an integer, got 'abc'"),
    "occluded_without_vocab": (None, lambda: os.remove("data/vocab.json"), OCCLUDED_ARGS, 2,
                               "no tokenizer table: pass --vocab or ship vocab.json"),
    "attn_query_index_past_queries": (
        None, None, ("attn", "--model", "model/checkpoint", "--data", "data/data.jsonl",
                     "--record", "img0000", "--bench", "data/benchmark.json",
                     "--query-index", 99), 1, "query index 99 out of range"),
    "store_ids_repeat": (
        None, lambda: _edit_json("gal/gallery/ids.json",
                                 lambda d: d["ids"].__setitem__(1, d["ids"][0])),
        RANK_ARGS, 2, "gal/gallery: store ids are not unique"),
    "manifest_row_past_blob": (
        None, lambda: _edit_manifest_line(2, lambda d: d["patches"].update(row=1000000)),
        EMBED_ARGS, 2, "data/data.jsonl:2: rows [1000000, 1000004) outside blob of 48 rows"),
}


@pytest.mark.parametrize("case", sorted(INPUT_FAULTS))
def test_input_fault_exits_with_its_code_and_message(workdir, capsys, monkeypatch, case):
    env_seed, damage, argv, code, expected = INPUT_FAULTS[case]
    build_pipeline(workdir, capsys)
    if damage:
        damage()
    if env_seed is not None:
        monkeypatch.setenv("ELIP_SEED", env_seed)
    assert run(workdir, *argv, "--config", "config.json", "--out", "bad") == code
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "error"
    assert err.startswith("error: ") and expected in err and "Traceback" not in err, err
    assert not os.path.exists("bad")


def test_eval_rejects_repeated_ranking_entries_exit_two(workdir, capsys):
    """One positive listed 20 times used to give a mean AP above 1."""
    build_pipeline(workdir, capsys)
    assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked") == 0
    capsys.readouterr()
    doc = json.loads(open("ranked/rankings.json").read())
    for r in doc["rankings"]:
        order = np.frombuffer(base64.b64decode(r["order"]), dtype="<i4")
        scores = np.frombuffer(base64.b64decode(r["scores"]), dtype="<f8")
        r["order"] = _packed_order(*([int(order[0])] * 20))
        r["scores"] = base64.b64encode(np.repeat(scores[:1], 20).tobytes()).decode("ascii")
    (workdir / "ranked/rankings.json").write_text(json.dumps(doc, sort_keys=True))
    err = assert_exit_two_without_traceback(
        workdir, capsys, "ranked/rankings.json", "eval", "--rankings", "ranked/rankings.json",
        "--bench", "data/benchmark.json")
    assert "order repeats an image" in err


@pytest.mark.parametrize("damage, expected", [
    (lambda doc: doc["ids"].__setitem__(1, doc["ids"][0]), "ids repeat an image id"),
    (lambda doc: doc["rankings"][1].__setitem__("query_id", doc["rankings"][0]["query_id"]),
     "query 'q0000' is ranked twice"),
], ids=["image_id", "query_id"])
def test_eval_rejects_repeated_ids_exit_two(workdir, capsys, damage, expected):
    """A repeated image id used to exit 2 only by accident, blaming the
    benchmark's positives; a repeated query id was kept silently."""
    build_pipeline(workdir, capsys)
    assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked") == 0
    capsys.readouterr()
    doc = json.loads(open("ranked/rankings.json").read())
    damage(doc)
    (workdir / "ranked/rankings.json").write_text(json.dumps(doc, sort_keys=True))
    err = assert_exit_two_without_traceback(
        workdir, capsys, "ranked/rankings.json", "eval", "--rankings", "ranked/rankings.json",
        "--bench", "data/benchmark.json")
    assert expected in err, err


# the JSON type of each rankings field, and values of every other type
RANKINGS_FIELD_TYPES = {"version": int, "ids": list, "rankings": list, "query_id": str,
                        "stage": str, "k_reranked": int, "order": str, "scores": str}
WRONG_TYPED = {int: [None, True, False, 2.0, 2.5, "2", [], {}],
               str: [None, True, 0, 2.5, [], {}],
               list: [None, True, 0, 2.5, "x", {}]}


@st.composite
def _rankings_mutation(draw, data):
    """One damaged field or byte of a valid v2 rankings file, as (bytes,
    still valid). Only an extra key leaves the file valid."""
    doc = json.loads(data)
    n = len(doc["ids"])
    r = draw(st.sampled_from(doc["rankings"]))
    order = np.frombuffer(base64.b64decode(r["order"]), dtype="<i4").copy()

    def two(count):
        return draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))

    kind = draw(st.sampled_from([
        "type_swap", "id_type_swap", "truncated_base64", "non_strict_base64", "odd_bytes",
        "order_out_of_range", "order_repeat", "deleted_key", "extra_key", "version",
        "repeated_id", "repeated_query_id", "truncated_file", "bad_byte"]))
    if kind == "type_swap":
        key = draw(st.sampled_from(sorted(RANKINGS_FIELD_TYPES)))
        (doc if key in doc else r)[key] = draw(
            st.sampled_from(WRONG_TYPED[RANKINGS_FIELD_TYPES[key]]))
    elif kind == "id_type_swap":
        doc["ids"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(WRONG_TYPED[str]))
    elif kind == "truncated_base64":
        key = draw(st.sampled_from(["order", "scores"]))
        r[key] = r[key][:draw(st.integers(0, len(r[key]) - 1))]
    elif kind == "non_strict_base64":
        key = draw(st.sampled_from(["order", "scores"]))
        at = draw(st.integers(0, len(r[key])))
        r[key] = r[key][:at] + draw(st.sampled_from(list("*-_. \n") + ["é"])) + r[key][at:]
    elif kind == "odd_bytes":
        key, itemsize = draw(st.sampled_from([("order", 4), ("scores", 8)]))
        size = draw(st.integers(1, 3 * itemsize).filter(lambda size: size % itemsize))
        r[key] = base64.b64encode(bytes(range(size))).decode("ascii")
    elif kind == "order_out_of_range":
        order[draw(st.integers(0, len(order) - 1))] = draw(
            st.one_of(st.integers(-(1 << 31), -1), st.integers(n, (1 << 31) - 1)))
        r["order"] = _packed_order(*order)
    elif kind == "order_repeat":
        i, j = two(len(order))
        order[j] = order[i]
        r["order"] = _packed_order(*order)
    elif kind == "deleted_key":
        owner = draw(st.sampled_from([doc, r]))
        del owner[draw(st.sampled_from(sorted(owner)))]
    elif kind == "extra_key":
        draw(st.sampled_from([doc, r]))["extra"] = draw(st.sampled_from([None, 1, "x", [1]]))
    elif kind == "version":
        doc["version"] = draw(st.integers(-3, 5).filter(lambda v: v != 2))
    elif kind == "repeated_id":
        i, j = two(n)
        doc["ids"][j] = doc["ids"][i]
    elif kind == "repeated_query_id":
        i, j = two(len(doc["rankings"]))
        doc["rankings"][j]["query_id"] = doc["rankings"][i]["query_id"]
    if kind == "truncated_file":  # the last byte is the newline after the JSON
        return data[:draw(st.integers(0, len(data) - 2))], False
    if kind == "bad_byte":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + b"\xff" + data[at + 1:], False
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"), kind == "extra_key"


def test_mutated_rankings_exit_two_or_read_unchanged(workdir, capsys):
    """eval over a rankings file with one mutated field or byte exits 2 with
    one error status line naming the file, no traceback and no --out left
    behind; a mutation that keeps the file valid gives the original bytes."""
    build_pipeline(workdir, capsys)
    assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked") == 0
    path = "ranked/rankings.json"
    eval_args = ("eval", "--rankings", path, "--bench", "data/benchmark.json",
                 "--config", "config.json", "--out", "fuzz")
    assert run(workdir, *eval_args) == 0
    capsys.readouterr()
    with open("fuzz/metrics.csv", "rb") as fh:
        metrics = fh.read()
    shutil.rmtree("fuzz")
    with open(path, "rb") as fh:
        original = fh.read()
    assert len(json.loads(original)["rankings"]) >= 2

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(mutation=_rankings_mutation(original))
    def check(mutation):
        damaged, valid = mutation
        with open(path, "wb") as fh:
            fh.write(damaged)
        try:
            code = run(workdir, *eval_args)
            if valid:
                assert code == 0, capsys.readouterr().err
                with open("fuzz/metrics.csv", "rb") as fh:
                    assert fh.read() == metrics
            else:
                assert_exit_two_naming(capsys, code, path)
                assert not os.path.exists("fuzz")
        finally:
            with open(path, "wb") as fh:
                fh.write(original)
            shutil.rmtree("fuzz", ignore_errors=True)
            capsys.readouterr()

    check()


def test_curve_rejects_k_below_one_exit_one(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked") == 0
    capsys.readouterr()
    code = run(workdir, "curve", "--config", "config.json", "--out", "cv",
               "--rankings", "ranked/rankings.json", "--bench", "data/benchmark.json",
               "--kind", "recall_topk", "--ks=-5,0,3")
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["status"] == "error"
    assert "k >= 1" in err
    assert not os.path.exists("cv/curve.csv")


def test_rerank_empty_rankings_exit_two(workdir, capsys):
    build_pipeline(workdir, capsys)
    storage.write_rankings("empty.json", [])
    err = assert_exit_two_without_traceback(
        workdir, capsys, "empty.json", "rerank", "--model", "model/checkpoint",
        "--data", "data/data.jsonl", "--bench", "data/benchmark.json",
        "--rankings", "empty.json", "--k", 4)
    assert "no rankings in empty.json" in err


# ---------------------------------------------------------------------------
# rank keeps its query encodings; rerank reuses them when they match
# ---------------------------------------------------------------------------


@pytest.fixture
def encode_calls(monkeypatch):
    """Counts retrieval's encode_text calls, the calls encode_queries makes."""
    calls = []
    real = retrieval.encode_text

    def spy(model, tokens):
        calls.append(list(tokens))
        return real(model, tokens)

    monkeypatch.setattr(retrieval, "encode_text", spy)
    return calls


def _rerank_bytes(workdir, capsys, encode_calls, out, rankings_dir, bench):
    """rerank's rankings.json bytes and the encode_text calls it made."""
    encode_calls.clear()
    assert run(workdir, "rerank", "--config", "config.json", "--out", out,
               "--model", "model/checkpoint", "--data", "data/data.jsonl", "--bench", bench,
               "--rankings", f"{rankings_dir}/rankings.json", "--k", 3) == 0
    capsys.readouterr()
    return pathlib.Path(out, "rankings.json").read_bytes(), len(encode_calls)


def _edited_bench():
    """data/benchmark.json with query 0's first token changed, as edited.json."""
    doc = json.loads(open("data/benchmark.json").read())
    tokens = doc["queries"][0]["text_tokens"]
    tokens[0] = tokens[0] % (TINY_CONFIG["dims"]["vocab"] - 1) + 1
    pathlib.Path("edited.json").write_text(json.dumps(doc))
    return "edited.json"


@pytest.mark.parametrize("variant", ["C", "B"])
@pytest.mark.parametrize("case", ["present", "deleted", "other_backbone", "edited_tokens"])
def test_rerank_reuses_rank_encodings_only_when_they_match(workdir, capsys, encode_calls,
                                                           variant, case):
    """rerank's bytes equal those of encoding every query afresh, whether
    rank's queries.json/queries.bin are present, deleted, or written for
    another backbone or other query tokens; only a match skips the encodes."""
    build_pipeline(workdir, capsys, variant)
    assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked") == 0
    assert sorted(os.listdir("ranked")) == ["queries.bin", "queries.json", "rankings.json",
                                            "resolved-config.json"]
    queries = len(json.loads(open("data/benchmark.json").read())["queries"])
    bench = _edited_bench() if case == "edited_tokens" else "data/benchmark.json"
    if case == "deleted":
        os.remove("ranked/queries.json")
        os.remove("ranked/queries.bin")
    if case == "other_backbone":
        assert run(workdir, "init-model", "--config", "config.json", "--out", "model8",
                   "--variant", variant, "--seed", 8) == 0
        assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked8",
                   "--model", "model8/checkpoint") == 0
        for name in ("queries.bin", "queries.json"):
            shutil.copy(f"ranked8/{name}", f"ranked/{name}")
    os.mkdir("fresh")
    shutil.copy("ranked/rankings.json", "fresh/rankings.json")
    capsys.readouterr()

    expected, fresh_calls = _rerank_bytes(workdir, capsys, encode_calls, "rr-fresh", "fresh", bench)
    got, calls = _rerank_bytes(workdir, capsys, encode_calls, "rr", "ranked", bench)
    assert fresh_calls == queries
    assert got == expected
    assert calls == (0 if case == "present" else queries)
    if case == "other_backbone":
        # read under this model's key, the other backbone's encodings move bytes
        key = storage.load_checkpoint("model/checkpoint").backbone_key
        _edit_json("ranked/queries.json", lambda doc: doc.update(backbone_key=key))
        forged, calls = _rerank_bytes(workdir, capsys, encode_calls, "rr-forged", "ranked", bench)
        assert calls == 0 and forged != expected


def _rewrite_queries_blob(edit):
    rows = storage.read_tensor_blob("ranked/queries.bin")
    storage.write_tensor_blob("ranked/queries.bin", edit(rows))


def _set_nan(rows):
    rows[1, 2] = np.nan
    return rows


QUERIES_DAMAGE = {
    "truncated_blob": ("ranked/queries.bin", lambda: pathlib.Path("ranked/queries.bin").write_bytes(
        pathlib.Path("ranked/queries.bin").read_bytes()[:-4])),
    "row_too_narrow": ("ranked/queries.bin", lambda: _rewrite_queries_blob(lambda r: r[:, :-1])),
    "row_too_wide": ("ranked/queries.bin", lambda: _rewrite_queries_blob(
        lambda r: np.concatenate([r, r[:, :1]], axis=1))),
    "row_missing": ("ranked/queries.bin", lambda: _rewrite_queries_blob(lambda r: r[1:])),
    "float64_rows": ("ranked/queries.bin", lambda: _rewrite_queries_blob(
        lambda r: r.astype(np.float64))),
    "nan": ("ranked/queries.bin", lambda: _rewrite_queries_blob(_set_nan)),
    "blob_missing": ("ranked/queries.bin", lambda: os.remove("ranked/queries.bin")),
    "key_not_a_string": ("ranked/queries.json", lambda: _edit_json(
        "ranked/queries.json", lambda doc: doc.update(backbone_key=7))),
    "key_missing": ("ranked/queries.json", lambda: _edit_json(
        "ranked/queries.json", lambda doc: doc.pop("backbone_key"))),
    "tokens_not_a_list": ("ranked/queries.json", lambda: _edit_json(
        "ranked/queries.json", lambda doc: doc.update(text_tokens={}))),
    "query_tokens_not_a_list": ("ranked/queries.json", lambda: _edit_json(
        "ranked/queries.json", lambda doc: doc["text_tokens"].__setitem__(0, "1,2"))),
    "token_a_float": ("ranked/queries.json", lambda: _edit_json(
        "ranked/queries.json", lambda doc: doc["text_tokens"][0].__setitem__(0, 1.0))),
    "not_json": ("ranked/queries.json", lambda: pathlib.Path("ranked/queries.json").write_text(
        "{\"backbone_key\": ")),
}


@pytest.mark.parametrize("damage", sorted(QUERIES_DAMAGE))
def test_damaged_query_encodings_exit_two(workdir, capsys, damage):
    """A queries.json that is present but malformed, or a queries.bin that
    does not hold one finite row of the model's dtype and width per query,
    exits 2 naming the file, with no traceback and no --out left behind."""
    build_pipeline(workdir, capsys)
    assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked") == 0
    capsys.readouterr()
    path, damage_it = QUERIES_DAMAGE[damage]
    damage_it()
    assert_exit_two_without_traceback(
        workdir, capsys, path, "rerank", "--model", "model/checkpoint",
        "--data", "data/data.jsonl", "--bench", "data/benchmark.json",
        "--rankings", "ranked/rankings.json", "--k", 3)
    assert not os.path.exists("bad")


@pytest.mark.parametrize("earlier", [False, True])
def test_failed_queries_json_write_leaves_none(workdir, capsys, encode_calls, monkeypatch,
                                               earlier):
    """rank whose queries.json write fails exits 2 and leaves no queries.json,
    fresh or from an earlier rank into the same --out; rerank then encodes."""
    build_pipeline(workdir, capsys)
    if earlier:
        assert run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked") == 0
        assert os.path.exists("ranked/queries.json")
    real = storage.atomic_write_bytes

    def failing(path, data):
        if os.path.basename(path) == "queries.json":
            raise OSError(28, "No space left on device", path)
        real(path, data)

    monkeypatch.setattr(storage, "atomic_write_bytes", failing)
    capsys.readouterr()
    code = run(workdir, *RANK_ARGS, "--config", "config.json", "--out", "ranked")
    assert_exit_two_naming(capsys, code, "queries.json")
    assert os.path.exists("ranked/queries.bin") and not os.path.exists("ranked/queries.json")
    assert not os.path.exists("ranked/queries.json.tmp")
    monkeypatch.setattr(storage, "atomic_write_bytes", real)
    queries = len(json.loads(open("data/benchmark.json").read())["queries"])
    _, calls = _rerank_bytes(workdir, capsys, encode_calls, "rr", "ranked", "data/benchmark.json")
    assert calls == queries


# ---------------------------------------------------------------------------
# the contract run_command keeps for every subcommand
# ---------------------------------------------------------------------------


# a successful argv per subcommand over build_pipeline's artifacts plus a
# stage-1 ranking, every optional input flag included
COMMAND_ARGV = {
    "gen-synth": ["--n", 12, "--clusters", 3],
    "init-model": [],
    "embed-gallery": ["--model", "model/checkpoint", "--data", "data/data.jsonl"],
    "curate-mine": ["--model", "model/checkpoint", "--data", "data/data.jsonl",
                    "--batch-size", 3],
    "curate-select": ["--model", "model/checkpoint", "--data", "data/data.jsonl",
                      "--plan", "plan/plan.json", "--fraction", 0.5],
    "train": ["--model", "model/checkpoint", "--data", "data/data.jsonl",
              "--plan", "plan/plan.json", "--steps", 1],
    "rank": ["--model", "model/checkpoint", "--gallery", "gal/gallery",
             "--bench", "data/benchmark.json"],
    "rerank": ["--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--bench", "data/benchmark.json", "--rankings", "ranked/rankings.json",
               "--k", 2],
    "eval": ["--rankings", "ranked/rankings.json", "--bench", "data/benchmark.json"],
    "curve": ["--rankings", "ranked/rankings.json", "--bench", "data/benchmark.json"],
    "attn": ["--model", "model/checkpoint", "--data", "data/data.jsonl",
             "--record", "img0000", "--bench", "data/benchmark.json"],
    "flops": ["--model", "model/checkpoint"],
    "bench-occluded": ["--data", "data/data.jsonl", "--vocab", "data/vocab.json"],
}

# the flags that name an input; --model and --gallery name directories, so
# the file read under them (index.json, ids.json) is the one made unreadable
INPUT_FILES = {"--config": "", "--model": "index.json", "--data": "", "--gallery": "ids.json",
               "--bench": "", "--rankings": "", "--plan": "", "--vocab": ""}


def _subcommands():
    """{name: subparser} of every subcommand build_parser declares."""
    action = next(a for a in build_parser()._actions if a.dest == "command")
    return action.choices


def _input_flags():
    return [(name, flag) for name, sub in sorted(_subcommands().items())
            for action in sub._actions for flag in action.option_strings
            if flag in INPUT_FILES]


def build_all_inputs(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked", *RANK_ARGS[1:]) == 0
    capsys.readouterr()


def test_every_subcommand_has_a_contract_argv():
    assert set(COMMAND_ARGV) == set(_subcommands())
    flags = {flag for _, flag in _input_flags()}
    assert flags == set(INPUT_FILES)


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_success_prints_one_ok_line_and_writes_resolved_config(workdir, capsys, command):
    build_all_inputs(workdir, capsys)
    assert run(workdir, command, "--config", "config.json", "--out", "out",
               *COMMAND_ARGV[command]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    line = json.loads(lines[0])
    assert (line["command"], line["status"], line["seed"]) == (command, "ok", 7)
    assert "out_dir" not in json.loads(open("out/resolved-config.json").read())


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_failure_prints_one_error_line_and_no_resolved_config(workdir, capsys, monkeypatch,
                                                              command):
    """A command that fails after writing its artifacts leaves no
    resolved-config.json behind."""
    build_all_inputs(workdir, capsys)
    name = _subcommands()[command].get_default("func").__name__
    real = getattr(cli, name)

    def fail_after(args, cfg):
        real(args, cfg)
        raise DataError("failed after its artifacts")

    monkeypatch.setattr(cli, name, fail_after)
    assert run(workdir, command, "--config", "config.json", "--out", "out",
               *COMMAND_ARGV[command]) == 2
    out, err = capsys.readouterr()
    assert [json.loads(line)["status"] for line in out.splitlines()] == ["error"]
    assert err == "error: failed after its artifacts\n"
    assert os.path.isdir("out") and not os.path.exists("out/resolved-config.json")


@pytest.mark.parametrize("command, flag", _input_flags())
def test_unreadable_input_exit_two(workdir, capsys, command, flag):
    """Any input flag naming a directory where a file is read exits 2 with
    one error line naming that path. It removes the --out directories it
    made and keeps the empty one that was there before."""
    build_all_inputs(workdir, capsys)
    argv = ["--config", "config.json", *COMMAND_ARGV[command]]
    inner = INPUT_FILES[flag]
    if inner:
        value = f"unreadable-{flag[2:]}"
        shutil.copytree(argv[argv.index(flag) + 1], value)
        os.remove(os.path.join(value, inner))
        os.mkdir(os.path.join(value, inner))
        named = os.path.join(value, inner)
    else:
        value = named = "unreadable-dir"
        os.mkdir(value)
    argv[argv.index(flag) + 1] = value
    os.mkdir("kept")
    assert_exit_two_naming(capsys, run(workdir, command, *argv, "--out", "kept/out/nested"),
                           named)
    assert os.listdir("kept") == []


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_out_naming_an_existing_file_exit_two(workdir, capsys, command):
    build_all_inputs(workdir, capsys)
    (workdir / "taken").write_text("a file, not a directory\n")
    code = run(workdir, command, "--config", "config.json", "--out", "taken",
               *COMMAND_ARGV[command])
    assert_exit_two_naming(capsys, code, "taken")
    assert (workdir / "taken").read_text() == "a file, not a directory\n"


def _names_in(tree, node_test) -> list:
    """Names of the top-level functions whose bodies hold a node passing
    node_test, docstrings left out; '<module>' for one outside any function."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        found += [owner for node in ast.walk(top)
                  if id(node) not in docstrings and node_test(node)]
    return found


def test_one_owner_for_status_output_and_file_existence():
    """In cli.py only run_command loads the config, writes to stdout or names
    resolved-config.json; in storage.py os.path.exists appears only where a
    missing file is no error (the target of a directory publish, the optional
    vocab, the optional query encodings beside a rankings file)."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "elip"
    cli_tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))

    def bookkeeping(node):
        if isinstance(node, ast.Attribute) and node.attr == "stdout":
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return "resolved-config.json" in node.value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("print", "_load_config")
        return False

    assert set(_names_in(cli_tree, bookkeeping)) == {"run_command"}
    storage_tree = ast.parse((src / "storage.py").read_text(encoding="utf-8"))
    exists = _names_in(storage_tree, lambda node: isinstance(node, ast.Attribute)
                       and node.attr == "exists")
    assert sorted(exists) == ["_publish_dir", "read_dataset", "read_queries"]


def test_every_config_field_is_used_outside_config():
    """Each field of the config dataclasses is read or assigned as an
    attribute somewhere in the package outside config.py, or set by a flag:
    a field nothing uses is a knob that does nothing."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "elip"
    used = {node.attr for path in src.glob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    # a flag sets the config field its dest names (cli._load_config)
    used |= {dest.split(".")[-1] for _, dest in _config_dests()}
    unused = [f"{cls.__name__}.{f.name}"
              for cls in (DimsConfig, MapperConfig, TrainConfig, RunConfig)
              for f in fields(cls) if f.name not in used]
    assert unused == []


def test_every_function_is_used_by_the_package_or_the_benchmark():
    """Each top-level function and method in src/elip is named somewhere in
    src/ or perfbench/, or exported by elip/__init__.py (a method through its
    exported class): code only the tests run belongs with the tests."""
    root = pathlib.Path(__file__).resolve().parent.parent
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((root / "src" / "elip").glob("*.py"))}
    benchmark = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted((root / "perfbench").glob("*.py"))]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in [*modules.values(), *benchmark] for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    exported = {alias.asname or alias.name
                for node in modules[root / "src" / "elip" / "__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path, tree in modules.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name not in used | exported:
                unused.append(f"{path.stem}.{top.name}")
            if isinstance(top, ast.ClassDef) and top.name not in exported:
                unused += [f"{path.stem}.{top.name}.{node.name}" for node in top.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("__") and node.name not in used]
    assert unused == []


def test_every_defaulted_parameter_is_set_by_some_caller():
    """Each defaulted parameter of a function in src/elip is set, by keyword,
    by position or through a * or ** argument, by some call in src/ or
    perfbench/: a default no caller overrides is a constant. A1 draws its
    gradient-check models at float64, and A6 checks sigmoid_pairwise's log 2
    identity at zero t_scale and bias; only those tests set them."""
    root = pathlib.Path(__file__).resolve().parent.parent
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((root / "src" / "elip").glob("*.py"))}
    benchmark = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted((root / "perfbench").glob("*.py"))]
    calls = {}
    for tree in [*modules.values(), *benchmark]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)

    def sets(call, name, index):
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        return index is not None and (len(call.args) > index or any(
            isinstance(arg, ast.Starred) for arg in call.args))

    unset = []
    for path, tree in modules.items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            params = [*func.args.posonlyargs, *func.args.args]
            bound = int(bool(params) and params[0].arg in ("self", "cls"))
            defaulted = [(p.arg, i - bound) for i, p in enumerate(params)
                         if i >= len(params) - len(func.args.defaults)]
            defaulted += [(p.arg, None) for p, d in zip(func.args.kwonlyargs,
                                                        func.args.kw_defaults) if d is not None]
            unset += [f"{path.stem}.{func.name}.{name}" for name, index in defaulted
                      if not any(sets(call, name, index) for call in calls.get(func.name, []))]
    assert sorted(unset) == ["encoders.init_frozen_model.dtype",
                             "objectives.sigmoid_pairwise.bias",
                             "objectives.sigmoid_pairwise.t_scale"]


# the dests of the flags that set no config field: each command's own inputs
COMMAND_ONLY_DESTS = {"config", "out_dir", "model", "data", "plan", "gallery", "bench",
                      "rankings", "vocab", "batch_size", "unique_category", "fraction",
                      "conditioning", "itm_sigmoid", "kind", "ks", "record", "mode", "tokens",
                      "query_index"}


def _flag_actions():
    """(command, argparse action) of every flag but --help."""
    return [(name, action) for name, sub in sorted(_subcommands().items())
            for action in sub._actions if action.option_strings and action.dest != "help"]


def _config_dests():
    """(command, dest) of every flag whose dest names a RunConfig field."""
    config_fields = {f.name for f in fields(RunConfig)}
    return [(name, action.dest) for name, action in _flag_actions()
            if action.dest.split(".")[0] in config_fields]


def _sample_value(action):
    """A value of the flag's own type: what a given flag would carry."""
    if action.nargs == 0:
        return action.const
    return action.choices[0] if action.choices else (action.type or str)("1")


def test_every_flag_dest_is_a_config_field_or_command_only():
    """A flag whose dest names a config field sets it: a config document
    holding the flag's value at the dest's path reads back with the value
    there, so a misspelt dest fails here rather than doing nothing. Every
    other dest is listed as command-only. A config-field flag defaults to
    None, so only a given flag overrides the config, and no command reads
    one from args."""
    config_dests = set(_config_dests())
    command_only = set()
    for command, action in _flag_actions():
        if (command, action.dest) not in config_dests:
            command_only.add(action.dest)
            continue
        value = doc = _sample_value(action)
        path = action.dest.split(".")
        for name in reversed(path):
            doc = {name: doc}
        node = RunConfig.from_dict(doc)
        for name in path:
            node = node[name] if isinstance(node, dict) else getattr(node, name)
        assert node == value and type(node) is type(value), (command, action.dest)
    assert command_only == COMMAND_ONLY_DESTS
    assert all(action.default is None for command, action in _flag_actions()
               if (command, action.dest) in config_dests)
    # commands read those settings from cfg, never from args
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "elip"
    read = {node.attr for node in ast.walk(ast.parse((src / "cli.py").read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    assert read & {dest for _, dest in config_dests} == set()


def test_every_choice_list_is_a_named_constant():
    """A closed choice list is spelled once, beside the validator that reads
    it: every choices= in cli.py names it rather than listing literals."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "elip" / "cli.py"
    values = [node.value for node in ast.walk(ast.parse(src.read_text(encoding="utf-8")))
              if isinstance(node, ast.keyword) and node.arg == "choices"]
    assert len(values) >= 6
    assert all(isinstance(value, ast.Name) for value in values), [ast.unparse(v) for v in values]


# ---------------------------------------------------------------------------
# resolved-config.json replays its run
# ---------------------------------------------------------------------------

# per subcommand over build_pipeline(variant="B") artifacts plus a stage-1
# ranking: every config-field flag it takes but --seed, then the
# command-only flags a replay passes again
REPLAY_FLAGS = {
    "gen-synth": (["--n", 10, "--clusters", 2, "--signal-strength", 0.8], []),
    "init-model": (["--variant", "B", "--n-prompts", 3, "--insert-layer", 1,
                    "--mapper-input", "dense_mean"], []),
    "embed-gallery": ([], ["--model", "model/checkpoint", "--data", "data/data.jsonl"]),
    "curate-mine": ([], ["--model", "model/checkpoint", "--data", "data/data.jsonl",
                         "--batch-size", 3, "--unique-category"]),
    "curate-select": ([], ["--model", "model/checkpoint", "--data", "data/data.jsonl",
                           "--plan", "plan/plan.json", "--fraction", 0.5,
                           "--conditioning", "diagonal"]),
    "train": (["--steps", 2, "--lr", 1e-3, "--conditioning", "diagonal", "--finetune-itm",
               "--jest-fraction", 0.5, "--subset-fraction", 0.75, "--ckpt-interval", 1],
              ["--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json"]),
    "rank": ([], ["--model", "model/checkpoint", "--gallery", "gal/gallery",
                  "--bench", "data/benchmark.json"]),
    "rerank": (["--k", 3], ["--model", "model/checkpoint", "--data", "data/data.jsonl",
                            "--bench", "data/benchmark.json",
                            "--rankings", "ranked/rankings.json", "--itm-sigmoid"]),
    "eval": ([], ["--rankings", "ranked/rankings.json", "--bench", "data/benchmark.json"]),
    "curve": ([], ["--rankings", "ranked/rankings.json", "--bench", "data/benchmark.json",
                   "--kind", "precision_recall", "--ks", "1,2"]),
    "attn": ([], ["--model", "model/checkpoint", "--data", "data/data.jsonl",
                  "--record", "img0001", "--mode", "itm_query", "--tokens", "1,2"]),
    "flops": ([], []),
    "bench-occluded": ([], ["--data", "data/data.jsonl", "--vocab", "data/vocab.json"]),
}


def test_replay_flags_cover_every_config_field_flag():
    assert set(REPLAY_FLAGS) == set(_subcommands())
    dests = set(_config_dests())
    for command, (config_flags, command_flags) in REPLAY_FLAGS.items():
        flags = {f for f in config_flags if isinstance(f, str) and f.startswith("--")}
        taken = {flag for name, action in _flag_actions() if name == command
                 and (name, action.dest) in dests for flag in action.option_strings}
        assert flags | {"--seed"} == taken, command
        assert not taken & set(command_flags), command


def test_resolved_config_replays_every_command(workdir, capsys):
    """Each command run with every config-field flag it takes, then again
    from its resolved-config.json with only its command-only flags, writes
    the same bytes, resolved-config.json included."""
    build_pipeline(workdir, capsys, variant="B")
    assert run(workdir, "rank", "--config", "config.json", "--out", "ranked",
               *REPLAY_FLAGS["rank"][1]) == 0
    for command, (config_flags, command_flags) in sorted(REPLAY_FLAGS.items()):
        first, again = f"first-{command}", f"again-{command}"
        assert run(workdir, command, "--config", "config.json", "--out", first,
                   "--seed", 5, *config_flags, *command_flags) == 0, command
        assert run(workdir, command, "--config", f"{first}/resolved-config.json",
                   "--out", again, *command_flags) == 0, command
        resolved = [json.loads(open(f"{out}/resolved-config.json").read())
                    for out in (first, again)]
        # each flag of the first run is in its resolved config
        given = vars(build_parser().parse_args(
            [command, "--seed", "5", *map(str, config_flags), *map(str, command_flags)]))
        for name, dest in _config_dests():
            if name == command:
                node = resolved[0]
                for key in dest.split("."):
                    node = node[key]
                assert node == given[dest], (command, dest)
        assert resolved[1] == resolved[0], command
        assert _artifacts(first) == _artifacts(again), command
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_empty_out_exit_one_naming_out(workdir, capsys, command):
    assert run(workdir, command, "--config", "config.json", "--out", "",
               *COMMAND_ARGV[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--out" in err
    assert sorted(os.listdir()) == ["config.json"]


# a config synth value gen-synth refuses, and the field the error names
BAD_SYNTH = {
    "N-string": ({"N": "8"}, "synth.N"),
    "clusters-float": ({"clusters": 2.0}, "synth.clusters"),
    "signal-bool": ({"signal_strength": True}, "synth.signal_strength"),
    "unknown-key": ({"n": 8}, "synth.n"),
    "P": ({"P": 4}, "synth.P"),
    "d_in": ({"d_in": 5}, "synth.d_in"),
    "m": ({"m": 3}, "synth.m"),
    "not-an-object": ([8], "synth"),
}


@pytest.mark.parametrize("case", sorted(BAD_SYNTH))
def test_bad_synth_config_exit_one(workdir, capsys, case):
    synth, named = BAD_SYNTH[case]
    (workdir / "bad.json").write_text(json.dumps({**TINY_CONFIG, "synth": synth}))
    assert run(workdir, "gen-synth", "--config", "bad.json", "--out", "data",
               "--n", 12, "--clusters", 3) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert not os.path.exists("data")


def test_commands_other_than_gen_synth_ignore_synth(workdir, capsys):
    """A config synth section moves no byte any other command writes; its
    resolved-config.json carries the section through."""
    build_all_inputs(workdir, capsys)
    synth = {"N": 8, "clusters": 2, "signal_strength": 0.9}
    (workdir / "synth.json").write_text(json.dumps({**TINY_CONFIG, "synth": synth}))
    for command in sorted(set(COMMAND_ARGV) - {"gen-synth"}):
        outs = [f"{command}-{name}" for name in ("plain", "synth")]
        for config, out in zip(("config.json", "synth.json"), outs):
            assert run(workdir, command, "--config", config, "--out", out,
                       *COMMAND_ARGV[command]) == 0, command
        resolved = [json.loads(open(f"{out}/resolved-config.json").read()) for out in outs]
        assert resolved[1] == {**resolved[0], "synth": synth}, command
        plain, with_synth = (_artifacts(out) for out in outs)
        del plain["resolved-config.json"], with_synth["resolved-config.json"]
        assert plain == with_synth, command
    capsys.readouterr()

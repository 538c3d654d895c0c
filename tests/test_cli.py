import json
import os

import numpy as np
import pytest

from elip.cli import run_command
from elip.config import RunConfig

from conftest import TINY

TINY_CONFIG = {
    "seed": 7,
    "dims": {
        "d_t": 6, "d_v": 8, "d_e": 8, "P": 4, "m": 3, "L_t": 2, "L_v": 2,
        "H": 2, "n": 2, "insert_layer": 0, "d_in": 5, "vocab": 32,
    },
    "mapper": {"input_mode": "cls", "n": 2, "hidden": 8},
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
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1, f"expected one status line, got {out!r}"
    return json.loads(out[0])


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
    rankings = workdir / "rankings.json"
    rankings.write_text(json.dumps({"rankings": [
        {"query_id": "q0000", "stage": "stage1", "k_reranked": 0,
         "entries": [["a", 1.0]]}
    ]}))
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


def assert_exit_two_without_traceback(workdir, capsys, path, *argv):
    code = run(workdir, *argv, "--config", "config.json", "--out", "bad")
    out, err = capsys.readouterr()
    assert code == 2, err
    assert json.loads(out)["status"] == "error"
    assert err.startswith("error: ") and path in err


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


@pytest.mark.parametrize("flag", [False, True])
def test_truncated_vocab_exit_two(workdir, capsys, flag):
    build_pipeline(workdir, capsys)
    text = open("data/vocab.json").read()
    path = "own-vocab.json" if flag else "data/vocab.json"
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    argv = ["bench-occluded", "--data", "data/data.jsonl"] + (["--vocab", path] if flag else [])
    assert_exit_two_without_traceback(workdir, capsys, path, *argv)


@pytest.mark.parametrize("field, value", [("file", 5), ("width", "wide")])
def test_checkpoint_index_bad_value_exit_two(workdir, capsys, field, value):
    build_pipeline(workdir, capsys)
    path = "model/checkpoint/index.json"
    index = json.loads(open(path).read())
    if field == "file":
        index["tensors"]["proj_image.weight"]["file"] = value
    else:
        index["dims"]["P"] = value
    with open(path, "w") as fh:
        json.dump(index, fh)
    assert_exit_two_without_traceback(workdir, capsys, "model/checkpoint",
                                      "flops", "--model", "model/checkpoint")


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


def test_degenerate_embedding_exit_three(workdir, capsys):
    import numpy as np

    from elip.storage import read_tensor_blob, write_tensor_blob

    build_pipeline(workdir, capsys)
    target = "model/checkpoint/proj_image.weight.bin"
    write_tensor_blob(target, np.zeros_like(read_tensor_blob(target)))
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


def test_checkpoint_interval_writes_intermediates(workdir, capsys):
    build_pipeline(workdir, capsys)
    assert run(workdir, "train", "--config", "config.json", "--out", "ti",
               "--model", "model/checkpoint", "--data", "data/data.jsonl",
               "--plan", "plan/plan.json", "--steps", 4, "--ckpt-interval", 2) == 0
    capsys.readouterr()
    assert os.path.exists("ti/checkpoint-step2/index.json")
    assert os.path.exists("ti/checkpoint/index.json")


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


def test_init_model_dense_mean_round_trips(workdir, capsys):
    from elip.storage import load_checkpoint

    assert run(workdir, "init-model", "--config", "config.json", "--out", "dm",
               "--mapper-input", "dense_mean") == 0
    capsys.readouterr()
    model = load_checkpoint("dm/checkpoint")
    assert model.mapper_cfg.input_mode == "dense_mean"


def test_run_config_round_trip():
    cfg = RunConfig.from_dict(TINY_CONFIG)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


def test_default_mining_batch_size_echoes_paper_default(workdir, capsys):
    from elip.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["curate-mine", "--model", "m", "--data", "d"])
    assert args.batch_size == 40

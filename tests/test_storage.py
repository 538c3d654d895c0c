import errno
import hashlib
import json
import os
import struct

import numpy as np
import pytest

from elip.config import DimsConfig, MapperConfig
from elip.curation import Benchmark, BenchmarkQuery, CurationPlan, SynthSpec, gen_synthetic_dataset
from elip.encoders import bundles_equal, init_frozen_model
from elip.errors import ConfigError, DataError, FormatError
from elip.retrieval import EmbeddingStore
from elip.rng import Rng
from elip import storage

from conftest import TINY, ranking_from_entries


# ---------------------------------------------------------------------------
# tensor blobs
# ---------------------------------------------------------------------------


def test_blob_round_trip_f32(tmp_path):
    arr = Rng(71).gaussian_matrix(2, 3).astype(np.float32)
    path = str(tmp_path / "t.bin")
    storage.write_tensor_blob(path, arr)
    back = storage.read_tensor_blob(path)
    assert back.dtype == np.float32
    assert back.shape == (2, 3)
    assert np.array_equal(back, arr)
    assert back.tobytes() == arr.tobytes()


def test_blob_round_trip_f64_and_rank1(tmp_path):
    arr = Rng(72).gaussian_matrix(1, 5)[0]
    path = str(tmp_path / "t.bin")
    storage.write_tensor_blob(path, arr)
    back = storage.read_tensor_blob(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_blob_rank0_round_trip(tmp_path):
    arr = np.array(2.5, dtype=np.float64)
    path = str(tmp_path / "scalar.bin")
    storage.write_tensor_blob(path, arr)
    back = storage.read_tensor_blob(path)
    assert back.shape == ()
    assert float(back) == 2.5


def test_blob_header_layout():
    arr = np.zeros((2, 3), dtype=np.float32)
    blob = storage.tensor_to_blob(arr)
    # rank-2 header: 4 magic + 4 meta + 2*8 dims = 24 bytes before payload
    assert blob[:4] == b"ELIP"
    assert blob[4] == 1  # version
    assert blob[5] == 1  # f32
    assert blob[6] == 2  # rank
    assert blob[7] == 0  # pad
    assert len(blob) == 24 + arr.size * 4
    assert int.from_bytes(blob[8:16], "little") == 2
    assert int.from_bytes(blob[16:24], "little") == 3


def test_blob_corrupt_magic_offset_zero(tmp_path):
    path = str(tmp_path / "t.bin")
    storage.write_tensor_blob(path, np.zeros((2, 2), dtype=np.float32))
    with open(path, "r+b") as fh:
        fh.write(b"NOPE")
    with pytest.raises(FormatError, match="offset 0"):
        storage.read_tensor_blob(path)


def test_blob_bad_fields_name_offsets():
    good = storage.tensor_to_blob(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(FormatError, match="offset 4"):
        storage.blob_to_tensor(good[:4] + bytes([9]) + good[5:])
    with pytest.raises(FormatError, match="offset 5"):
        storage.blob_to_tensor(good[:5] + bytes([7]) + good[6:])
    with pytest.raises(FormatError, match="offset 6"):
        storage.blob_to_tensor(good[:6] + bytes([3]) + good[7:])
    with pytest.raises(FormatError, match="offset 7"):
        storage.blob_to_tensor(good[:7] + bytes([1]) + good[8:])
    with pytest.raises(FormatError, match="truncated"):
        storage.blob_to_tensor(good[:10])
    with pytest.raises(FormatError, match="offset 24"):
        storage.blob_to_tensor(good[:-1])
    # dims whose element count wraps int64 to 0 still need a payload
    with pytest.raises(FormatError, match="payload length 0 != 73786976294838206464 at offset 24"):
        storage.blob_to_tensor(good[:8] + struct.pack("<QQ", 2**32, 2**32))


def test_blob_rejects_unsupported_arrays(tmp_path):
    with pytest.raises(ConfigError):
        storage.tensor_to_blob(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ConfigError):
        storage.tensor_to_blob(np.zeros(3, dtype=np.int32))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_default_dims(tmp_path):
    model = init_frozen_model(7, DimsConfig(), "C")
    ckpt = str(tmp_path / "ckpt")
    storage.save_checkpoint(ckpt, model)
    back = storage.load_checkpoint(ckpt)
    assert bundles_equal(model, back)


def test_checkpoint_round_trip_variant_b(tmp_path):
    model = init_frozen_model(11, TINY, "B", MapperConfig(hidden=8))
    ckpt = str(tmp_path / "ckpt")
    storage.save_checkpoint(ckpt, model)
    back = storage.load_checkpoint(ckpt)
    assert bundles_equal(model, back)
    assert back.variant == "B"
    assert back.itm_head is not None


def test_checkpoint_mapper_tensor_names(tmp_path):
    model = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))
    ckpt = str(tmp_path / "ckpt")
    storage.save_checkpoint(ckpt, model)
    with open(os.path.join(ckpt, "index.json")) as fh:
        index = json.load(fh)
    for name in (
        "mapper.l1.weight", "mapper.l1.bias", "mapper.l2.weight",
        "mapper.l2.bias", "mapper.l3.weight", "mapper.l3.bias",
    ):
        with open(os.path.join(ckpt, f"{name}.bin"), "rb") as fh:
            assert index["tensors"][name] == hashlib.sha256(fh.read()).hexdigest()


def test_checkpoint_save_is_byte_stable(tmp_path):
    model = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    storage.save_checkpoint(a, model)
    storage.save_checkpoint(b, model)
    for name in sorted(os.listdir(a)):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def dir_bytes(path):
    return {name: open(os.path.join(path, name), "rb").read() for name in os.listdir(path)}


def test_checkpoint_save_replaces_existing_and_leaves_no_siblings(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    storage.save_checkpoint(ckpt, init_frozen_model(7, TINY, "B", MapperConfig(hidden=8)))
    new = init_frozen_model(8, TINY, "C", MapperConfig(hidden=8))
    storage.save_checkpoint(ckpt, new)
    assert os.listdir(tmp_path) == ["ckpt"]
    # no blob of the replaced B checkpoint's ITM head is left behind
    assert sorted(os.listdir(ckpt)) == sorted(
        [f"{name}.bin" for name, _, _ in new.iter_tensors()] + ["index.json"])
    assert bundles_equal(storage.load_checkpoint(ckpt), new)


class FullDisk:
    """A file handle that writes half of what it is given, then raises
    ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("old", [b"old bytes\n", None])
def test_atomic_write_failing_mid_write_leaves_no_temp_file(tmp_path, monkeypatch, old):
    """A write that runs out of space half way raises its OSError; the
    temporary file is gone and a file already at the path keeps its bytes."""
    path = tmp_path / "data.jsonl"
    if old is not None:
        path.write_bytes(old)
    real_open = open
    monkeypatch.setattr(storage, "open", lambda *a, **kw: FullDisk(real_open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError) as failure:
        storage.atomic_write_bytes(str(path), b"new bytes, twice as long\n")
    assert failure.value.errno == errno.ENOSPC
    assert os.listdir(tmp_path) == ([] if old is None else ["data.jsonl"])
    if old is not None:
        assert path.read_bytes() == old


def test_checkpoint_save_failing_part_way_keeps_old_checkpoint(tmp_path, monkeypatch):
    old = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))
    ckpt = str(tmp_path / "ckpt")
    storage.save_checkpoint(ckpt, old)
    before = dir_bytes(ckpt)
    real_write = storage.write_tensor_blob
    written = []

    def failing_write(path, arr):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(path)
        return real_write(path, arr)

    monkeypatch.setattr(storage, "write_tensor_blob", failing_write)
    with pytest.raises(OSError, match="disk full"):
        storage.save_checkpoint(ckpt, init_frozen_model(9, TINY, "C", MapperConfig(hidden=8)))
    assert len(written) == 3
    assert os.listdir(tmp_path) == ["ckpt"]
    assert dir_bytes(ckpt) == before
    assert bundles_equal(storage.load_checkpoint(ckpt), old)


@pytest.mark.parametrize("variant", ["C", "S", "B"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch, variant, dtype):
    model = init_frozen_model(7, TINY, variant, MapperConfig(hidden=8), dtype=dtype)
    ckpt = str(tmp_path / "ckpt")
    storage.save_checkpoint(ckpt, model)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random number")

    monkeypatch.setattr(Rng, "gaussian_matrix", no_draws)
    monkeypatch.setattr(Rng, "next_u64", no_draws)
    back = storage.load_checkpoint(ckpt)
    assert bundles_equal(model, back)
    assert back.dtype == np.dtype(dtype)


def test_init_frozen_model_draws_are_pinned():
    """init_frozen_model's draw order is part of the determinism contract;
    these digests of its tensors were taken before the weight source was
    factored out of it and must never change."""
    pinned = {
        np.float32: "e8e058230d1d42eed792fc28fbb560e15b19334ba39630674a4a7f4b8c3bfea4",
        np.float64: "1a90d60ba2404925f3153fbc8930ff10828009c44209829408b1fa9fbea52549",
    }
    for dtype, digest in pinned.items():
        model = init_frozen_model(7, TINY, "B", MapperConfig(hidden=8), dtype=dtype)
        h = hashlib.sha256()
        for name, arr, _ in model.iter_tensors():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest, dtype


def test_checkpoint_missing_index_is_data_error(tmp_path):
    with pytest.raises(DataError, match="index.json"):
        storage.load_checkpoint(str(tmp_path / "nothing"))


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------


def test_manifest_round_trip_synthetic(tmp_path):
    ds, _ = gen_synthetic_dataset(7, SynthSpec(N=12, clusters=3, P=4, d_in=6, m=4))
    manifest = storage.write_dataset(str(tmp_path / "data"), ds)
    back = storage.read_dataset(manifest)
    assert back.N == ds.N
    assert back.vocab == ds.vocab
    for ra, rb in zip(ds.records, back.records):
        assert ra.id == rb.id
        assert np.array_equal(ra.patches, rb.patches)
        assert ra.tokens == rb.tokens
        assert ra.caption == rb.caption
        assert ra.categories == rb.categories
        assert ra.occluded_categories == rb.occluded_categories


def test_dataset_write_failing_at_any_file_leaves_no_manifest_of_a_partial_dataset(
        tmp_path, monkeypatch):
    """write_dataset writes the manifest last: when its i-th file write runs
    out of space half way, for every i, the write raises ENOSPC and leaves
    no data.jsonl, and with no fault the dataset reads back whole."""
    ds, _ = gen_synthetic_dataset(7, SynthSpec(N=12, clusters=3, P=4, d_in=6, m=4))
    real_write, real_open = storage.atomic_write_bytes, open
    written = []

    def write_failing_at(fail):
        def write(path, data):
            written.append(os.path.basename(path))
            if len(written) - 1 != fail:
                return real_write(path, data)
            with monkeypatch.context() as full:
                full.setattr(storage, "open", lambda *a, **kw: FullDisk(real_open(*a, **kw)),
                             raising=False)
                return real_write(path, data)
        return write

    fail = 0
    while True:
        out = tmp_path / f"fail{fail}"
        written.clear()
        monkeypatch.setattr(storage, "atomic_write_bytes", write_failing_at(fail))
        try:
            manifest = storage.write_dataset(str(out), ds)
        except OSError as failure:
            assert failure.errno == errno.ENOSPC
            assert sorted(os.listdir(out)) == sorted(written[:fail])
            assert "data.jsonl" not in os.listdir(out), written
            fail += 1
            continue
        break
    assert written == ["patches.bin", "vocab.json", "data.jsonl"] and fail == len(written)
    back = storage.read_dataset(manifest)
    assert [r.id for r in back.records] == [r.id for r in ds.records]
    assert back.vocab == ds.vocab


def test_manifest_two_valid_lines(tmp_path):
    blob = str(tmp_path / "patches.bin")
    storage.write_tensor_blob(blob, np.arange(8, dtype=np.float32).reshape(4, 2))
    lines = [
        json.dumps({"id": "a", "patches": {"file": "patches.bin", "row": 0, "rows": 2},
                    "tokens": [1], "caption": "a", "categories": [],
                    "occluded_categories": []}),
        json.dumps({"id": "b", "patches": {"file": "patches.bin", "row": 2, "rows": 2},
                    "tokens": [2], "caption": "b", "categories": [],
                    "occluded_categories": []}),
    ]
    manifest = str(tmp_path / "data.jsonl")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    ds = storage.read_dataset(manifest)
    assert ds.N == 2
    assert np.array_equal(ds.records[1].patches, [[4.0, 5.0], [6.0, 7.0]])


def test_manifest_duplicate_id_names_id(tmp_path):
    blob = str(tmp_path / "patches.bin")
    storage.write_tensor_blob(blob, np.zeros((4, 2), dtype=np.float32))
    line = json.dumps({"id": "dup", "patches": {"file": "patches.bin", "row": 0, "rows": 2},
                       "tokens": [1], "caption": "x", "categories": [],
                       "occluded_categories": []})
    manifest = str(tmp_path / "data.jsonl")
    with open(manifest, "w") as fh:
        fh.write(line + "\n" + line + "\n")
    with pytest.raises(DataError, match="dup"):
        storage.read_dataset(manifest)


def test_manifest_malformed_line_number(tmp_path):
    blob = str(tmp_path / "patches.bin")
    storage.write_tensor_blob(blob, np.zeros((2, 2), dtype=np.float32))
    good = json.dumps({"id": "a", "patches": {"file": "patches.bin", "row": 0, "rows": 2},
                       "tokens": [1], "caption": "a", "categories": [],
                       "occluded_categories": []})
    manifest = str(tmp_path / "data.jsonl")
    with open(manifest, "w") as fh:
        fh.write(good + "\n{{{\n")
    with pytest.raises(DataError, match=":2:"):
        storage.read_dataset(manifest)
    with open(manifest, "w") as fh:
        fh.write('{"id": "a"}\n')
    with pytest.raises(DataError, match=":1:"):
        storage.read_dataset(manifest)


# ---------------------------------------------------------------------------
# benchmark / plan / store / rankings
# ---------------------------------------------------------------------------


def test_benchmark_round_trip(tmp_path):
    bench = Benchmark(
        queries=[BenchmarkQuery(text_tokens=[1, 2], positives={"b", "a"})],
        gallery_ids=["a", "b", "c"],
    )
    path = str(tmp_path / "bench.json")
    storage.write_benchmark(path, bench)
    with open(path) as fh:
        doc = json.load(fh)
    assert set(doc) == {"queries"}
    assert set(doc["queries"][0]) == {"text_tokens", "positives"}
    back = storage.read_benchmark(path, ["a", "b", "c"])
    assert back.queries[0].positives == {"a", "b"}
    assert back.queries[0].text_tokens == [1, 2]


def test_benchmark_missing_file_names_path(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(DataError, match="nope.json"):
        storage.read_benchmark(missing, [])


def test_plan_round_trip(tmp_path):
    plan = CurationPlan(batches=[[0, 1], [2, 3]], learnability=[0.5, -0.25], source_seed=9)
    path = str(tmp_path / "plan.json")
    storage.write_plan(path, plan)
    back = storage.read_plan(path)
    assert back.batches == plan.batches
    assert back.learnability == plan.learnability
    assert back.source_seed == 9


def test_store_round_trip_and_stability(tmp_path):
    mat = Rng(73).gaussian_matrix(4, 3).astype(np.float32)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    store = EmbeddingStore(ids=["a", "b", "c", "d"], matrix=mat, provenance_seed=7)
    d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    storage.write_store(d1, store)
    storage.write_store(d2, store)
    for name in os.listdir(d1):
        with open(os.path.join(d1, name), "rb") as fa, open(os.path.join(d2, name), "rb") as fb:
            assert fa.read() == fb.read()
    back = storage.read_store(d1)
    assert back.ids == store.ids
    assert np.array_equal(back.matrix, store.matrix)
    assert back.provenance_seed == 7


def test_store_write_failing_at_ids_keeps_old_store(tmp_path, monkeypatch):
    """A second write_store whose ids.json write fails used to leave the new
    embeddings.bin under the old ids and seed, and read_store accepted the
    pair; the store is now replaced whole or not at all."""
    old = EmbeddingStore(ids=["a", "b", "c"], matrix=np.eye(3, dtype=np.float32),
                         provenance_seed=7)
    store_dir = str(tmp_path / "gallery")
    storage.write_store(store_dir, old)
    real = storage.atomic_write_bytes

    def failing(path, data):
        if os.path.basename(path) == "ids.json":
            raise OSError(28, "No space left on device", path)
        real(path, data)

    monkeypatch.setattr(storage, "atomic_write_bytes", failing)
    new = EmbeddingStore(ids=["x", "y", "z"], matrix=np.eye(3, dtype=np.float32)[::-1].copy(),
                         provenance_seed=9)
    with pytest.raises(OSError, match="No space left"):
        storage.write_store(store_dir, new)
    back = storage.read_store(store_dir)
    assert (back.ids, back.provenance_seed) == (old.ids, 7)
    assert back.matrix.tobytes() == old.matrix.tobytes()
    assert os.listdir(tmp_path) == ["gallery"]


def test_rankings_round_trip(tmp_path):
    rankings = [ranking_from_entries(
        query_id="q0000",
        entries=[("b", 0.5), ("a", 0.25)],
        stage="reranked",
        k_reranked=2,
    )]
    path = str(tmp_path / "rankings.json")
    storage.write_rankings(path, rankings)
    back = storage.read_rankings(path)
    assert back[0].query_id == "q0000"
    assert back[0].entries == [("b", 0.5), ("a", 0.25)]
    assert back[0].stage == "reranked"
    assert back[0].k_reranked == 2


def test_rankings_round_trip_floats_bit_for_bit(tmp_path):
    values = [1e-300, -0.0, 0.0, 0.1 + 0.2, 5e-324, 1.7976931348623157e308,
              -2.5, 1.0 / 3.0, *Rng(74).gaussian_matrix(1, 20)[0]]
    rankings = [ranking_from_entries(
        query_id="q0000",
        entries=[(f"img{i:04d}", float(v)) for i, v in enumerate(values)],
        stage="stage1",
        k_reranked=0,
    )]
    path = str(tmp_path / "rankings.json")
    storage.write_rankings(path, rankings)
    back = storage.read_rankings(path)[0].entries
    assert [image_id for image_id, _ in back] == [f"img{i:04d}" for i in range(len(values))]
    assert [struct.pack("<d", score) for _, score in back] == \
        [struct.pack("<d", v) for v in values]


def test_rankings_write_is_byte_stable(tmp_path):
    def rankings():
        scores = Rng(75).gaussian_matrix(3, 5)
        return [ranking_from_entries(
            query_id=f"q{q:04d}",
            entries=sorted(((f"img{(i * 7 + q) % 5:04d}", float(s)) for i, s in enumerate(row)),
                           key=lambda e: -e[1]),
            stage="stage1",
            k_reranked=0,
        ) for q, row in enumerate(scores)]

    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    storage.write_rankings(first, rankings())
    storage.write_rankings(second, rankings())
    with open(first, "rb") as fa, open(second, "rb") as fb:
        data = fa.read()
        assert data == fb.read()
    assert data.count(b"\n") == 1 and data.endswith(b"\n")
    doc = json.loads(data)
    assert doc["version"] == 2
    assert doc["ids"] == [image_id for image_id, _ in rankings()[0].entries]
    assert storage.read_rankings(first) == rankings()


def test_rankings_version_1_refused(tmp_path, monkeypatch, capsys):
    """The per-entry [id, score] layout, indented or compact, exits 2 with
    an error naming the file and its version."""
    from elip.cli import run_command

    monkeypatch.chdir(tmp_path)
    doc = {"rankings": [{"query_id": "q0000", "stage": "reranked", "k_reranked": 2,
                         "entries": [["b", 0.5], ["a", -0.0]]}]}
    for indent in (None, 2):
        with open("rankings.json", "w") as fh:
            fh.write(json.dumps(doc, indent=indent, sort_keys=True) + "\n")
        code = run_command(["eval", "--rankings", "rankings.json",
                            "--bench", "bench.json", "--out", "m"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["status"] == "error"
        assert err.startswith("error: rankings.json: rankings format version 1 is not 2")
        assert "re-run `elip rank`" in err


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------


def test_trace_csv_schema(tmp_path):
    path = str(tmp_path / "trace.csv")
    storage.write_trace_csv(path, [0.5, 0.25])
    lines = open(path).read().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.25"


def test_attn_csv_schema(tmp_path):
    path = str(tmp_path / "attn.csv")
    storage.write_attn_csv(path, np.array([[0.25, 0.75]]))
    lines = open(path).read().splitlines()
    assert lines[0] == "row,col,weight"
    assert lines[1] == "0,0,0.25"
    assert lines[2] == "0,1,0.75"

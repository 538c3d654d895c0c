import ast
import errno
import hashlib
import json
import os
import pathlib
import struct

import numpy as np
import pytest

from elip.config import DimsConfig, MapperConfig
from elip.curation import Benchmark, BenchmarkQuery, CurationPlan, SynthSpec, gen_synthetic_dataset
from elip.encoders import bundles_equal, init_frozen_model
from elip.errors import ConfigError, DataError, FormatError
from elip.retrieval import EmbeddingStore, encode_queries
from elip.rng import Rng
from elip import storage

from conftest import TINY, ranking_from_entries, rewrite_tensor


# ---------------------------------------------------------------------------
# tensor blobs
# ---------------------------------------------------------------------------


def write_blob(path, arr):
    storage.atomic_write_bytes(path, storage.tensor_to_blob(arr))


def write_and_read_blob(path, arr):
    write_blob(path, arr)
    return storage.blob_to_tensor(pathlib.Path(path).read_bytes(), path)


def test_blob_round_trip_f32(tmp_path):
    arr = Rng(71).gaussian_matrix(2, 3).astype(np.float32)
    path = str(tmp_path / "t.bin")
    back = write_and_read_blob(path, arr)
    assert back.dtype == np.float32
    assert back.shape == (2, 3)
    assert np.array_equal(back, arr)
    assert back.tobytes() == arr.tobytes()


def test_blob_round_trip_f64_and_rank1(tmp_path):
    arr = Rng(72).gaussian_matrix(1, 5)[0]
    path = str(tmp_path / "t.bin")
    back = write_and_read_blob(path, arr)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_blob_rank0_round_trip(tmp_path):
    arr = np.array(2.5, dtype=np.float64)
    path = str(tmp_path / "scalar.bin")
    back = write_and_read_blob(path, arr)
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
    write_blob(path, np.zeros((2, 2), dtype=np.float32))
    with open(path, "r+b") as fh:
        fh.write(b"NOPE")
    with pytest.raises(FormatError, match="t.bin: bad magic at offset 0"):
        storage.blob_to_tensor(pathlib.Path(path).read_bytes(), path)


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


BLOB_FUNCTIONS = {"tensor_to_blob", "blob_to_tensor"}


def test_only_the_container_and_the_manifest_touch_blobs():
    """The blob functions are named, in src/elip, only by the tensor
    container's writer and reader (a dataset's patches are a container
    too), so no module grows a tensor format of its own beside it."""
    uses = set()
    for path in sorted(pathlib.Path(storage.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in BLOB_FUNCTIONS:
                    uses.add((path.name, owner, name))
    assert uses == {
        ("storage.py", "write_tensors", "tensor_to_blob"),
        ("storage.py", "read_tensors", "blob_to_tensor"),
    }


# ---------------------------------------------------------------------------
# tensor containers
# ---------------------------------------------------------------------------


CONTAINER = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
             "b": np.arange(4, dtype=np.float64),
             "c": np.array(2.5, dtype=np.float32)}
CONTAINER_LAYOUT = {name: (arr.dtype, arr.shape) for name, arr in CONTAINER.items()}


def container(tmp_path):
    """CONTAINER written as (index.json, tensors.bin) under tmp_path."""
    json_path, bin_path = str(tmp_path / "index.json"), str(tmp_path / "tensors.bin")
    storage.write_tensors(json_path, bin_path, {"note": "kept"}, CONTAINER)
    return json_path, bin_path


def read_container(json_path, bin_path, layout=CONTAINER_LAYOUT):
    return storage.read_tensors(json_path, bin_path, lambda doc: doc["note"], lambda meta: layout)


def test_tensors_round_trip_and_layout(tmp_path):
    """The blobs lie end to end in write order; the index is one compact
    line of the doc plus [offset, length, sha256] per name."""
    json_path, bin_path = container(tmp_path)
    data = open(bin_path, "rb").read()
    blobs = [storage.tensor_to_blob(arr) for arr in CONTAINER.values()]
    assert data == b"".join(blobs)
    text = open(json_path).read()
    assert text.count("\n") == 1 and text.endswith("\n")
    ends = np.cumsum([len(blob) for blob in blobs]).tolist()
    assert json.loads(text) == {"note": "kept", "tensors": {
        name: [end - len(blob), len(blob), hashlib.sha256(blob).hexdigest()]
        for name, blob, end in zip(CONTAINER, blobs, ends)}}
    meta, tensors = read_container(json_path, bin_path)
    assert meta == "kept" and list(tensors) == ["a", "b", "c"]
    for name, arr in CONTAINER.items():
        assert tensors[name].dtype == arr.dtype and np.array_equal(tensors[name], arr)
    # a None dtype or dimension matches any
    _, tensors = read_container(json_path, bin_path, {"a": (None, (2, None)), "b": (None, (None,)),
                                                      "c": (np.dtype(np.float32), ())})
    assert np.array_equal(tensors["a"], CONTAINER["a"])


def test_tensors_layout_none_leaves_the_blob_file_unread(tmp_path):
    json_path, bin_path = container(tmp_path)
    os.remove(bin_path)
    assert read_container(json_path, bin_path, None) == ("kept", None)
    with pytest.raises(DataError, match="cannot read .*tensors.bin"):
        read_container(json_path, bin_path)


def _shift(name, offset=0, length=0):
    def edit(index, data):
        entry = index["tensors"][name]
        entry[0] += offset
        entry[1] += length
        return data
    return edit


TENSORS_DAMAGE = {
    "gap": (_shift("b", offset=1), "tensors.bin: tensor 'b' starts at offset 49 per "
                                   "{dir}/index.json; the slice before ends at 48"),
    "overlap": (_shift("b", offset=-1), "tensors.bin: tensor 'b' starts at offset 47 per "
                                        "{dir}/index.json; the slice before ends at 48"),
    "past_end": (_shift("c", length=1), "tensors.bin: tensor 'c' ends at offset 109 per "
                                        "{dir}/index.json, past the file's 108 bytes"),
    "trailing_bytes": (lambda index, data: data + b"\0",
                       "tensors.bin: 1 trailing bytes after offset 108"),
    "flipped_byte": (lambda index, data: data[:-1] + bytes([data[-1] ^ 1]),
                     "tensors.bin: tensor 'c': sha256 does not match"),
    "digest_not_a_string": (lambda index, data: index["tensors"]["a"].__setitem__(2, 5) or data,
                            "index.json: tensor 'a' entry is not [offset, length, sha256]"),
    "offset_a_float": (lambda index, data: index["tensors"]["a"].__setitem__(0, 0.0) or data,
                       "index.json: tensor 'a' entry is not [offset, length, sha256]"),
    "entry_too_short": (lambda index, data: index["tensors"]["a"].pop() and data,
                        "index.json: malformed"),
    "missing": (lambda index, data: index["tensors"].pop("b") and data,
                "index.json: missing tensors ['b'], unexpected tensors []"),
    "unexpected": (lambda index, data: index["tensors"].update(d=[108, 0, "0" * 64]) or data,
                   "index.json: missing tensors [], unexpected tensors ['d']"),
}


@pytest.mark.parametrize("damage", sorted(TENSORS_DAMAGE))
def test_tensors_damage_names_the_file(tmp_path, damage):
    json_path, bin_path = container(tmp_path)
    edit, expected = TENSORS_DAMAGE[damage]
    index = json.loads(open(json_path).read())
    data = edit(index, open(bin_path, "rb").read())
    open(json_path, "w").write(json.dumps(index))
    open(bin_path, "wb").write(data)
    with pytest.raises(FormatError) as failure:
        read_container(json_path, bin_path)
    assert expected.format(dir=tmp_path) in str(failure.value), failure.value


@pytest.mark.parametrize("name, blob, expected", [
    ("a", storage.tensor_to_blob(np.zeros((3, 2), dtype=np.float32)),
     "tensor 'a' is f32 (3, 2); {json} needs f32 (2, 3)"),
    ("a", storage.tensor_to_blob(np.zeros((2, 3), dtype=np.float64)),
     "tensor 'a' is f64 (2, 3); {json} needs f32 (2, 3)"),
    ("b", storage.tensor_to_blob(np.zeros(4, dtype=np.float32)),
     "tensor 'b' is f32 (4); {json} needs f64 (4)"),
    ("a", storage.tensor_to_blob(np.zeros(6, dtype=np.float32)),
     "tensor 'a' is f32 (6); {json} needs f32 (2, 3)"),
    ("a", b"ELIQ" + storage.tensor_to_blob(CONTAINER["a"])[4:],
     "tensor 'a': bad magic at offset 0"),
    ("a", storage.tensor_to_blob(CONTAINER["a"])[:5], "tensor 'a': truncated header at offset 5"),
], ids=["shape", "dtype", "f32_for_f64", "rank", "magic", "truncated_header"])
def test_tensors_slice_with_a_good_digest_is_still_checked(tmp_path, name, blob, expected):
    """A slice whose sha256 matches must still hold one blob of its layout."""
    json_path, bin_path = container(tmp_path)
    rewrite_tensor(json_path, bin_path, name, blob)
    with pytest.raises(FormatError) as failure:
        read_container(json_path, bin_path)
    assert f"{bin_path}: " + expected.format(json=json_path) in str(failure.value)


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
    with open(os.path.join(ckpt, "tensors.bin"), "rb") as fh:
        data = fh.read()
    for name in (
        "mapper.l1.weight", "mapper.l1.bias", "mapper.l2.weight",
        "mapper.l2.bias", "mapper.l3.weight", "mapper.l3.bias",
    ):
        offset, length, digest = index["tensors"][name]
        blob = data[offset:offset + length]
        assert digest == hashlib.sha256(blob).hexdigest()
        assert np.array_equal(storage.blob_to_tensor(blob), model.mapper.tensors[name[7:]])


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
    # nothing of the replaced B checkpoint's ITM head is left behind
    assert sorted(os.listdir(ckpt)) == ["index.json", "tensors.bin"]
    assert list(json.loads(open(os.path.join(ckpt, "index.json")).read())["tensors"]) == \
        sorted(name for name, _, _ in new.iter_tensors())
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
    real_write = storage.atomic_write_bytes
    written = []

    def failing_write(path, data):
        if os.path.basename(path) == "index.json":
            raise OSError("disk full")
        written.append(os.path.basename(path))
        return real_write(path, data)

    monkeypatch.setattr(storage, "atomic_write_bytes", failing_write)
    with pytest.raises(OSError, match="disk full"):
        storage.save_checkpoint(ckpt, init_frozen_model(9, TINY, "C", MapperConfig(hidden=8)))
    assert written == ["tensors.bin"]
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


def test_query_stacks_hold_the_model_dtype(tmp_path):
    """An f64 model's query encodings read back as f64 stacks only: f32
    stacks under a good digest are refused, naming the file and tensor."""
    model = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8), dtype=np.float64)
    bench = Benchmark(queries=[BenchmarkQuery(text_tokens=[1, 2], positives={"a"}),
                               BenchmarkQuery(text_tokens=[3], positives={"a"})],
                      gallery_ids=["a"])
    queries = encode_queries(model, bench)
    storage.write_queries(str(tmp_path), model, bench, queries)
    back = storage.read_queries(str(tmp_path), model, bench)
    for got, want in zip(back, queries):
        for field in ("dense", "t_cls", "t_joint"):
            assert getattr(got, field).dtype == np.float64
            assert np.array_equal(getattr(got, field), getattr(want, field))
    json_path, bin_path = str(tmp_path / "queries.json"), str(tmp_path / "queries.bin")
    t_cls = np.stack([q.t_cls for q in queries]).astype(np.float32)
    rewrite_tensor(json_path, bin_path, "t_cls", storage.tensor_to_blob(t_cls))
    with pytest.raises(FormatError) as failure:
        storage.read_queries(str(tmp_path), model, bench)
    assert (f"{bin_path}: tensor 't_cls' is f32 (2, {TINY.d_t}); {json_path} needs "
            f"f64 (2, {TINY.d_t})") in str(failure.value)


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
    no data.jsonl, into an empty directory and over a dataset of the same
    ids from another seed alike (an old manifest used to stay over the new
    patches and read back without error). With no fault the dataset reads
    back whole."""
    old, _ = gen_synthetic_dataset(8, SynthSpec(N=12, clusters=3, P=4, d_in=6, m=4))
    ds, _ = gen_synthetic_dataset(7, SynthSpec(N=12, clusters=3, P=4, d_in=6, m=4))
    assert [r.id for r in old.records] == [r.id for r in ds.records]
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

    for over_old in (False, True):
        fail = 0
        while True:
            out = tmp_path / f"{'over' if over_old else 'new'}{fail}"
            if over_old:
                storage.write_dataset(str(out), old)
            written.clear()
            monkeypatch.setattr(storage, "atomic_write_bytes", write_failing_at(fail))
            try:
                manifest = storage.write_dataset(str(out), ds)
            except OSError as failure:
                assert failure.errno == errno.ENOSPC
                assert "data.jsonl" not in os.listdir(out), written
                if not over_old:
                    assert sorted(os.listdir(out)) == sorted(written[:fail])
                fail += 1
                continue
            finally:
                monkeypatch.setattr(storage, "atomic_write_bytes", real_write)
            break
        assert written == ["patches.bin", "patches.json", "vocab.json", "data.jsonl"]
        assert fail == len(written)
        back = storage.read_dataset(manifest)
        assert [r.id for r in back.records] == [r.id for r in ds.records]
        assert all(np.array_equal(a.patches, b.patches) for a, b in zip(back.records, ds.records))
        assert back.vocab == ds.vocab


def write_manifest(tmp_path, docs, patches):
    """data.jsonl of the record docs (no patches key) over a patches.json
    container of patches ({record id: array}); returns the manifest path."""
    storage.write_tensors(str(tmp_path / "patches.json"), str(tmp_path / "patches.bin"),
                          {}, patches)
    manifest = tmp_path / "data.jsonl"
    manifest.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return str(manifest)


def record_doc(rec_id, token):
    return {"id": rec_id, "tokens": [token], "caption": rec_id, "categories": [],
            "occluded_categories": []}


def test_manifest_two_valid_lines(tmp_path):
    patches = np.arange(8, dtype=np.float32).reshape(4, 2)
    manifest = write_manifest(tmp_path, [record_doc("a", 1), record_doc("b", 2)],
                              {"a": patches[:2], "b": patches[2:]})
    ds = storage.read_dataset(manifest)
    assert ds.N == 2
    assert np.array_equal(ds.records[1].patches, [[4.0, 5.0], [6.0, 7.0]])
    assert ds.records[1].patches.dtype == np.float32


def test_manifest_duplicate_id_names_id(tmp_path):
    manifest = write_manifest(tmp_path, [record_doc("dup", 1), record_doc("dup", 1)],
                              {"dup": np.zeros((2, 2), dtype=np.float32)})
    with pytest.raises(DataError, match="data.jsonl: line 2: record id 'dup' repeats"):
        storage.read_dataset(manifest)


def test_manifest_malformed_line_number(tmp_path):
    manifest = write_manifest(tmp_path, [record_doc("a", 1)],
                              {"a": np.zeros((2, 2), dtype=np.float32)})
    with open(manifest, "a") as fh:
        fh.write("{{{\n")
    with pytest.raises(DataError, match=":2:"):
        storage.read_dataset(manifest)
    with open(manifest, "w") as fh:
        fh.write('{"id": "a"}\n')
    with pytest.raises(DataError, match=":1:"):
        storage.read_dataset(manifest)


@pytest.mark.parametrize("name", ["patches.json", "patches.bin"])
def test_dataset_any_flipped_bit_of_the_patch_container_is_named(tmp_path, name):
    """One bit flipped in any byte of either container file is a FormatError
    naming that file: a flipped bit of the old patches.bin read as data."""
    ds, _ = gen_synthetic_dataset(7, SynthSpec(N=3, clusters=2, P=2, d_in=2, m=4))
    manifest = storage.write_dataset(str(tmp_path), ds)
    path = tmp_path / name
    good = path.read_bytes()
    for at in range(len(good)):
        damaged = bytearray(good)
        damaged[at] ^= 1 << at % 8
        path.write_bytes(bytes(damaged))
        with pytest.raises(DataError, match=str(path)):
            storage.read_dataset(manifest)
    path.write_bytes(good)
    assert storage.read_dataset(manifest).N == 3


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

"""Persistent formats: tensor containers (checkpoints, gallery stores, query
encodings), dataset manifests, benchmarks, plans, rankings and CSV reports.
All writes are atomic (temp file + rename, a checkpoint or gallery store as
one directory) and byte-stable for identical inputs.

Tensor blob layout: magic 'ELIP', u8 version=1, u8 dtype (1=f32, 2=f64),
u8 rank (<=2), u8 zero pad, rank x u64 little-endian dims, then the payload
little-endian row-major. A tensor container is a JSON index over one file of
blobs end to end; its "tensors" maps each name to its blob's [offset,
length, sha256]. Every tensor on disk is a slice of a container.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import os
import shutil
import struct
from dataclasses import asdict
from typing import get_args

import numpy as np

from .config import DimsConfig, MapperConfig, RunConfig, _conforms, _from_doc
from .curation import (
    Benchmark,
    BenchmarkQuery,
    CurationPlan,
    PairDataset,
    PairRecord,
)
from .encoders import ModelBundle, TextEncoding, _assemble_model
from .errors import ConfigError, DataError, FormatError
from .retrieval import CurveData, EmbeddingStore, MetricReport, RankingResult

MAGIC = b"ELIP"
BLOB_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write data to <path>.tmp and rename it over path. A write or rename
    that fails removes the temporary file and re-raises, so path keeps its
    old bytes (or stays absent) and nothing else is left behind."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str, doc) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _publish_dir(out_dir: str, write) -> None:
    """write(tmp) fills the sibling directory `.<name>.tmp`, which is then
    renamed into place, so out_dir never holds a half-written or mixed set
    of files: a write that fails leaves the previous out_dir as it was.
    POSIX cannot swap two directories in one rename, so an existing out_dir
    is first renamed to `.<name>.old`, which is deleted once the new one is
    in place."""
    target = os.path.normpath(out_dir)
    parent, base = os.path.split(target)
    tmp = os.path.join(parent, f".{base}.tmp")
    aside = os.path.join(parent, f".{base}.old")
    shutil.rmtree(tmp, ignore_errors=True)  # left by an interrupted publish
    os.makedirs(tmp)
    try:
        write(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if os.path.exists(target):
        shutil.rmtree(aside, ignore_errors=True)
        os.replace(target, aside)
    os.replace(tmp, target)
    shutil.rmtree(aside, ignore_errors=True)


def _open(path: str, text: bool = False):
    """path opened for reading, as UTF-8 text or as bytes; a file that is
    missing, a directory or unreadable is a DataError naming the path."""
    try:
        return open(path, "r" if text else "rb", encoding="utf-8" if text else None)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@contextlib.contextmanager
def _malformed(where: str):
    """Bad JSON, a missing key or a wrongly typed value inside is one
    FormatError at where; a DataError raised inside passes through."""
    try:
        yield
    except DataError:
        raise
    except _MALFORMED as exc:
        raise FormatError(f"{where}: malformed ({type(exc).__name__}: {exc})") from exc


def _parse_json(path: str, parse):
    """parse(doc) of the JSON file at path, any fault _malformed at path."""
    with _open(path, text=True) as fh, _malformed(path):
        return parse(json.load(fh))


_KINDS = {int: "an integer", str: "a string", list: "a list",
          list[int]: "a list of integers", list[str]: "a list of strings"}


def _typed(path: str, value, hint, what: str):
    """value, when it has the JSON shape of hint (a key of _KINDS; an int is
    neither a float nor a bool). Otherwise a FormatError `<path>: <what>
    <value> is not <kind>`, naming a list's first wrong element, if it has
    one, rather than the list."""
    if _conforms(value, hint):
        return value
    if isinstance(value, list) and get_args(hint):
        hint = get_args(hint)[0]
        value = next(v for v in value if not _conforms(v, hint))
    raise FormatError(f"{path}: {what} {value!r} is not {_KINDS[hint]}")


# ---------------------------------------------------------------------------
# tensor blobs and containers
# ---------------------------------------------------------------------------


def tensor_to_blob(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    if arr.ndim > 2:
        raise ConfigError(f"blob rank {arr.ndim} exceeds 2")
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ConfigError(f"blob dtype {arr.dtype} not in (float32, float64)")
    header = MAGIC + struct.pack("<BBBB", BLOB_VERSION, code, arr.ndim, 0)
    header += b"".join(struct.pack("<Q", dim) for dim in arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes()
    return header + payload


def blob_to_tensor(data: bytes, source: str = "<bytes>") -> np.ndarray:
    if len(data) < 8:
        raise FormatError(f"{source}: truncated header at offset {len(data)}")
    if data[:4] != MAGIC:
        raise FormatError(f"{source}: bad magic at offset 0")
    version, code, rank, pad = struct.unpack("<BBBB", data[4:8])
    if version != BLOB_VERSION:
        raise FormatError(f"{source}: unsupported version {version} at offset 4")
    if code not in _CODE_DTYPES:
        raise FormatError(f"{source}: unknown dtype code {code} at offset 5")
    if rank > 2:
        raise FormatError(f"{source}: rank {rank} > 2 at offset 6")
    if pad != 0:
        raise FormatError(f"{source}: nonzero pad byte at offset 7")
    dims_end = 8 + 8 * rank
    if len(data) < dims_end:
        raise FormatError(f"{source}: truncated dims at offset {len(data)}")
    shape = tuple(
        struct.unpack("<Q", data[8 + 8 * i : 16 + 8 * i])[0] for i in range(rank)
    )
    dtype = _CODE_DTYPES[code]
    expected = math.prod(shape) * dtype.itemsize  # Python ints: no overflow
    if len(data) - dims_end != expected:
        raise FormatError(
            f"{source}: payload length {len(data) - dims_end} != {expected} "
            f"at offset {dims_end}"
        )
    flat = np.frombuffer(data[dims_end:], dtype=dtype)
    arr = flat.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
    return arr


_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def write_tensors(json_path: str, bin_path: str, doc: dict, tensors: dict) -> None:
    """Writes the blobs of tensors ({name: array}) end to end as bin_path,
    then doc plus "tensors": {name: [offset, length, sha256] of its blob} as
    json_path, one compact JSON line. An older json_path is removed first and
    the new one comes last, so a failed write leaves no index over other bytes."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(json_path)
    blobs = {name: tensor_to_blob(arr) for name, arr in tensors.items()}
    index, offset = {}, 0
    for name, blob in blobs.items():
        index[name] = [offset, len(blob), hashlib.sha256(blob).hexdigest()]
        offset += len(blob)
    atomic_write_bytes(bin_path, b"".join(blobs.values()))
    atomic_write_text(json_path, json.dumps({**doc, "tensors": index}, sort_keys=True) + "\n")


def read_tensors(json_path: str, bin_path: str, parse, layout) -> tuple:
    """(meta, tensors): meta = parse(doc) of the index at json_path, any fault
    _malformed there, and tensors {name: array}, or None with the index's
    entries and bin_path unread when layout(meta), the {name: (dtype, shape)}
    to hold (None matching any dtype or dimension), is None. A FormatError
    names the file and tensor when the names differ from the layout's, the
    slices do not tile bin_path (a gap, an overlap, a slice past the end,
    trailing bytes), or a slice fails its sha256, its blob header or its
    layout."""

    def parse_index(doc):
        meta = parse(doc)
        specs = layout(meta)
        if specs is None:
            return meta, None, {}
        entries = {name: tuple(entry) for name, entry in doc["tensors"].items()}
        for name, (offset, length, digest) in entries.items():
            if not (_conforms([offset, length], list[int]) and _conforms(digest, str)):
                raise FormatError(f"{json_path}: tensor {name!r} entry is not "
                                  "[offset, length, sha256]")
        return meta, specs, entries

    def describe(dtype, shape):  # a None dtype or dimension shown as '*'
        dims = ", ".join("*" if dim is None else str(dim) for dim in shape)
        return f"{_DTYPE_NAMES.get(dtype, '*')} ({dims})"

    meta, specs, entries = _parse_json(json_path, parse_index)
    if specs is None:
        return meta, None
    if entries.keys() != specs.keys():
        raise FormatError(f"{json_path}: missing tensors {sorted(specs.keys() - entries.keys())}, "
                          f"unexpected tensors {sorted(entries.keys() - specs.keys())}")
    with _open(bin_path) as fh:
        data = fh.read()
    tensors, end = {}, 0
    for name, (offset, length, digest) in sorted(entries.items(), key=lambda e: e[1][0]):
        where = f"{bin_path}: tensor {name!r}"
        if offset != end:
            raise FormatError(f"{where} starts at offset {offset} per {json_path}; "
                              f"the slice before ends at {end}")
        end = offset + length
        if end > len(data):
            raise FormatError(f"{where} ends at offset {end} per {json_path}, "
                              f"past the file's {len(data)} bytes")
        blob = data[offset:end]
        if hashlib.sha256(blob).hexdigest() != digest:
            raise FormatError(f"{where}: sha256 does not match {json_path}")
        arr = tensors[name] = blob_to_tensor(blob, where)
        dtype, shape = specs[name]
        if not ((dtype is None or dtype == arr.dtype) and len(shape) == arr.ndim
                and all(want is None or want == got for want, got in zip(shape, arr.shape))):
            raise FormatError(f"{where} is {describe(arr.dtype, arr.shape)}; "
                              f"{json_path} needs {describe(dtype, shape)}")
    if end != len(data):
        raise FormatError(f"{bin_path}: {len(data) - end} trailing bytes after offset {end}")
    return meta, tensors


# ---------------------------------------------------------------------------
# checkpoints, gallery stores and query encodings
# ---------------------------------------------------------------------------


CHECKPOINT_VERSION = 4


def save_checkpoint(ckpt_dir: str, model: ModelBundle) -> None:
    """Publishes index.json over tensors.bin as one directory."""
    doc = {"version": CHECKPOINT_VERSION, "variant": model.variant, "seed": model.seed,
           "dtype": _DTYPE_NAMES[np.dtype(model.dtype)], "dims": asdict(model.dims),
           "mapper": asdict(model.mapper_cfg)}
    _publish_dir(ckpt_dir, lambda out_dir: write_tensors(
        os.path.join(out_dir, "index.json"), os.path.join(out_dir, "tensors.bin"), doc,
        {name: arr for name, arr, _ in model.iter_tensors()}))


def load_checkpoint(ckpt_dir: str) -> ModelBundle:
    """Reads a version-4 checkpoint: the bundle's layout is rebuilt from
    index.json without drawing its weights, and read_tensors fills it from
    tensors.bin."""
    index_path = os.path.join(ckpt_dir, "index.json")

    def parse(doc):
        if doc["version"] != CHECKPOINT_VERSION:
            raise FormatError(f"{index_path}: checkpoint index version {doc['version']!r} is not "
                              f"{CHECKPOINT_VERSION}, so re-create the checkpoint")
        if doc["dtype"] not in ("f32", "f64"):
            raise FormatError(f"{index_path}: dtype {doc['dtype']!r} is not f32 or f64")
        dtype = np.dtype(np.float32 if doc["dtype"] == "f32" else np.float64)
        seed = _typed(index_path, doc["seed"], int, "seed")
        # dims and mapper read as RunConfig reads them; a layout the index
        # cannot describe (say insert_layer >= L_v) is a fault of the index
        try:
            dims = _from_doc(DimsConfig, doc["dims"], ("dims",))
            mapper_cfg = _from_doc(MapperConfig, doc["mapper"], ("mapper",))
            return _assemble_model(seed, dims, doc["variant"], mapper_cfg, dtype,
                                   lambda rows, cols, fan_in: np.empty((rows, cols), dtype))
        except ConfigError as exc:
            raise FormatError(f"{index_path}: {exc}") from exc

    model, tensors = read_tensors(
        index_path, os.path.join(ckpt_dir, "tensors.bin"), parse,
        lambda model: {name: (arr.dtype, arr.shape) for name, arr, _ in model.iter_tensors()})
    for layer in model.layers():
        for key in layer.tensors:
            layer.tensors[key] = tensors[f"{layer.name}.{key}"]
    return model


def write_store(store_dir: str, store: EmbeddingStore) -> None:
    """Publishes ids.json over embeddings.bin as one directory."""
    _publish_dir(store_dir, lambda out_dir: write_tensors(
        os.path.join(out_dir, "ids.json"), os.path.join(out_dir, "embeddings.bin"),
        {"ids": store.ids, "seed": store.provenance_seed}, {"embeddings": store.matrix}))


def read_store(store_dir: str) -> EmbeddingStore:
    """write_store's store: one (G, d_e) matrix, any float dtype, under G ids."""
    ids_path = os.path.join(store_dir, "ids.json")

    def parse(doc):
        if "tensors" not in doc:  # written before the tensor container
            raise FormatError(f"{ids_path}: no tensors index; re-run `elip embed-gallery`")
        return (_typed(ids_path, doc["ids"], list[str], "image id"),
                _typed(ids_path, doc["seed"], int, "seed"))

    (ids, seed), tensors = read_tensors(
        ids_path, os.path.join(store_dir, "embeddings.bin"), parse,
        lambda meta: {"embeddings": (None, (len(meta[0]), None))})
    try:
        return EmbeddingStore(ids=ids, matrix=tensors["embeddings"], provenance_seed=seed)
    except DataError as exc:
        raise DataError(f"{store_dir}: {exc}") from exc


def _query_layout(model: ModelBundle, count: int) -> dict:
    """queries.bin's (dtype, shape) for each TextEncoding field's stack."""
    d = model.dims
    return {name: (model.dtype, (count, width))
            for name, width in (("dense", d.m * d.d_t), ("t_cls", d.d_t), ("t_joint", d.d_e))}


def write_queries(out_dir: str, model: ModelBundle, bench: Benchmark, queries: list) -> None:
    """Writes encode_queries' list for bench as queries.json (model.backbone_key,
    each query's text_tokens) over queries.bin (one stack per TextEncoding field)."""
    doc = {"backbone_key": model.backbone_key,
           "text_tokens": [list(q.text_tokens) for q in bench.queries]}
    stacks = {name: np.array([getattr(q, name).reshape(-1) for q in queries], dtype).reshape(shape)
              for name, (dtype, shape) in _query_layout(model, len(queries)).items()}
    write_tensors(os.path.join(out_dir, "queries.json"), os.path.join(out_dir, "queries.bin"),
                  doc, stacks)


def read_queries(out_dir: str, model: ModelBundle, bench: Benchmark) -> list | None:
    """The query encodings write_queries left in out_dir, or None when there
    is no queries.json or it was written before the tensor container (it has
    no tensors index), for another backbone or for other query tokens than
    bench's. A faulty pair is a FormatError naming the file."""
    json_path = os.path.join(out_dir, "queries.json")
    if not os.path.exists(json_path):
        return None
    bin_path = os.path.join(out_dir, "queries.bin")
    tokens = [list(q.text_tokens) for q in bench.queries]
    _, stacks = read_tensors(
        json_path, bin_path,
        lambda doc: ("tensors" in doc,
                     _typed(json_path, doc["backbone_key"], str, "backbone_key"),
                     [_typed(json_path, q, list[int], f"query {n}: text_tokens") for n, q in
                      enumerate(_typed(json_path, doc["text_tokens"], list, "text_tokens"))]),
        lambda meta: (_query_layout(model, len(tokens))
                      if meta == (True, model.backbone_key, tokens) else None))
    if stacks is None:
        return None
    if not all(np.isfinite(stack).all() for stack in stacks.values()):
        raise FormatError(f"{bin_path}: non-finite query encoding")
    return [TextEncoding(dense=dense.reshape(model.dims.m, -1), t_cls=t_cls, t_joint=t_joint)
            for dense, t_cls, t_joint in zip(stacks["dense"], stacks["t_cls"], stacks["t_joint"])]


# ---------------------------------------------------------------------------
# datasets (JSON-Lines manifest + patch container)
# ---------------------------------------------------------------------------


def write_dataset(out_dir: str, ds: PairDataset) -> str:
    """Removes an older data.jsonl and vocab.json, then writes patches.json
    over patches.bin (one float32 tensor per record id), vocab.json if
    present, and data.jsonl last; returns the manifest path. A write that
    fails leaves no manifest, so none reads a partial dataset or the
    patches of another."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "data.jsonl")
    for path in (manifest, os.path.join(out_dir, "vocab.json")):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    write_tensors(os.path.join(out_dir, "patches.json"), os.path.join(out_dir, "patches.bin"),
                  {}, {rec.id: rec.patches.astype(np.float32) for rec in ds.records})
    if ds.vocab is not None:
        write_json(os.path.join(out_dir, "vocab.json"), ds.vocab)
    lines = [json.dumps({
        "id": rec.id,
        "tokens": list(rec.tokens),
        "caption": rec.caption,
        "categories": sorted(rec.categories),
        "occluded_categories": sorted(rec.occluded_categories),
    }, sort_keys=True) for rec in ds.records]
    atomic_write_text(manifest, "\n".join(lines) + "\n")
    return manifest


def read_dataset(manifest_path: str) -> PairDataset:
    """The records of a data.jsonl manifest, each with the float32 (rows,
    cols) tensor of its id in the patches.json container beside it. A fault
    of a line is a FormatError at file:line; the container names its own."""
    base = os.path.dirname(manifest_path)
    fields = {}
    with _open(manifest_path) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        with _malformed(f"{manifest_path}:{lineno}"):
            line = line.decode("utf-8").strip()
            if not line:
                continue
            doc = json.loads(line)
            rec_id = _typed(manifest_path, doc["id"], str, f"line {lineno}: record id")
            if rec_id in fields:
                raise FormatError(f"{manifest_path}: line {lineno}: record id {rec_id!r} repeats")
            fields[rec_id] = dict(
                tokens=_typed(manifest_path, doc["tokens"], list[int], f"line {lineno}: token"),
                caption=_typed(manifest_path, doc["caption"], str, f"line {lineno}: caption"),
                categories=set(_typed(manifest_path, doc.get("categories", []), list[str],
                                      f"line {lineno}: categories")),
                occluded_categories=set(_typed(manifest_path, doc.get("occluded_categories", []),
                                               list[str], f"line {lineno}: occluded_categories")),
            )
    if not fields:
        raise FormatError(f"{manifest_path}: no records")
    _, patches = read_tensors(
        os.path.join(base, "patches.json"), os.path.join(base, "patches.bin"), lambda doc: None,
        lambda _: dict.fromkeys(fields, (np.dtype(np.float32), (None, None))))
    vocab_path = os.path.join(base, "vocab.json")
    vocab = read_vocab(vocab_path) if os.path.exists(vocab_path) else None
    return PairDataset(records=[PairRecord(id=rec_id, patches=patches[rec_id], **f)
                                for rec_id, f in fields.items()], vocab=vocab)


def read_vocab(path: str) -> dict:
    """Tokenizer table: word -> token id."""
    return _parse_json(path, lambda doc: {
        word: _typed(path, tid, int, f"id of {word!r}") for word, tid in doc.items()
    })


# ---------------------------------------------------------------------------
# benchmarks, plans, rankings
# ---------------------------------------------------------------------------


def write_benchmark(path: str, bench: Benchmark) -> None:
    doc = {"queries": [
        {"text_tokens": list(q.text_tokens), "positives": sorted(q.positives)}
        for q in bench.queries
    ]}
    write_json(path, doc)


def read_benchmark(path: str, gallery_ids: list) -> Benchmark:
    queries = _parse_json(path, lambda doc: [
        BenchmarkQuery(
            text_tokens=_typed(path, q["text_tokens"], list[int], f"query {n}: text token"),
            positives=set(_typed(path, q["positives"], list[str], f"query {n}: positives")),
        )
        for n, q in enumerate(doc["queries"])
    ])
    return Benchmark(queries=queries, gallery_ids=list(gallery_ids))


def read_config(path: str) -> RunConfig:
    """The RunConfig of a JSON config file. Bad JSON or a document that is
    not an object is a FormatError naming the file; a bad field is the
    ConfigError of RunConfig.from_dict."""
    doc = _parse_json(path, lambda doc: doc)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config is not a JSON object")
    return RunConfig.from_dict(doc)


def write_plan(path: str, plan: CurationPlan) -> None:
    doc = {
        "batches": [list(b) for b in plan.batches],
        "learnability": plan.learnability,
        "source_seed": plan.source_seed,
    }
    write_json(path, doc)


def read_plan(path: str) -> CurationPlan:
    def parse(doc):
        batches = [_typed(path, b, list[int], f"batch {n} index")
                   for n, b in enumerate(doc["batches"])]
        for n, batch in enumerate(batches):
            if len(batch) < 2:
                raise FormatError(f"{path}: batch {n} holds {len(batch)} record(s); "
                                  "every batch needs >= 2")
        scores = doc.get("learnability")
        if not (scores is None or _conforms(scores, list[float]) and len(scores) == len(batches)):
            raise FormatError(f"{path}: learnability {scores!r} is neither null nor "
                              f"a list of {len(batches)} numbers, one per batch")
        return CurationPlan(batches=batches, learnability=scores,
                            source_seed=_typed(path, doc.get("source_seed", 0), int, "source_seed"))
    return _parse_json(path, parse)


RANKINGS_VERSION = 2


def write_rankings(path: str, rankings: list) -> None:
    """One compact JSON line: the distinct image ids in first-seen order,
    and per query the base64 of its order (<i4 indices into ids) and of its
    scores (<f8, every bit kept)."""
    slots: dict = {}
    gallery, slot_of = None, None  # slot_of[i]: slot of gallery[i], -1 before it is seen
    docs = []
    for r in rankings:
        if r.gallery is not gallery:
            gallery = r.gallery
            slot_of = np.array([slots.get(image_id, -1) for image_id in gallery], dtype=np.int64)
        unseen = r.order[slot_of[r.order] < 0]
        new_slots = range(len(slots), len(slots) + len(unseen))
        slot_of[unseen] = new_slots
        slots.update(zip(map(gallery.__getitem__, unseen.tolist()), new_slots))
        docs.append({
            "query_id": r.query_id,
            "stage": r.stage,
            "k_reranked": r.k_reranked,
            "order": _pack(slot_of[r.order], "<i4"),
            "scores": _pack(r.scores, "<f8"),
        })
    doc = {"version": RANKINGS_VERSION, "ids": list(slots), "rankings": docs}
    atomic_write_text(path, json.dumps(doc, sort_keys=True) + "\n")


def _pack(values: list, dtype: str) -> str:
    return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode("ascii")


def _unpack(path: str, qid: str, key: str, text, dtype: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: query {qid!r}: {key} is not strict base64 ({exc})") from exc
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise FormatError(
            f"{path}: query {qid!r}: {key} holds {len(raw)} bytes, "
            f"not a whole number of {itemsize}-byte values"
        )
    return np.frombuffer(raw, dtype=dtype)


def read_rankings(path: str) -> list:
    """Reads a version-2 rankings file; version 1 (per-entry [id, score]
    pairs) is refused."""

    def parse(doc):
        version = doc.get("version", 1)
        if not (_conforms(version, int) and version == RANKINGS_VERSION):
            raise FormatError(
                f"{path}: rankings format version {version!r} is not "
                f"{RANKINGS_VERSION}; re-run `elip rank` to rewrite it"
            )
        ids = _typed(path, doc["ids"], list[str], "image id")
        if len(set(ids)) != len(ids):
            raise FormatError(f"{path}: ids repeat an image id")
        results, qids = [], set()
        for r in doc["rankings"]:
            qid = _typed(path, r["query_id"], str, "query id")
            if qid in qids:
                raise FormatError(f"{path}: query {qid!r} is ranked twice")
            qids.add(qid)
            order = _unpack(path, qid, "order", r["order"], "<i4")
            scores = _unpack(path, qid, "scores", r["scores"], "<f8")
            if not np.isfinite(scores).all():
                raise FormatError(f"{path}: query {qid!r}: non-finite score")
            if len(order) != len(scores):
                raise FormatError(
                    f"{path}: query {qid!r}: {len(order)} order indices "
                    f"but {len(scores)} scores"
                )
            if len(order) and (order.min() < 0 or order.max() >= len(ids)):
                raise FormatError(
                    f"{path}: query {qid!r}: order index outside [0, {len(ids)})"
                )
            if len(order) and np.bincount(order).max() > 1:
                raise FormatError(f"{path}: query {qid!r}: order repeats an image")
            k_reranked = _typed(path, r["k_reranked"], int, f"query {qid!r}: k_reranked")
            if not 0 <= k_reranked <= len(order):
                raise FormatError(
                    f"{path}: query {qid!r}: k_reranked {k_reranked} outside [0, {len(order)}]"
                )
            results.append(RankingResult(
                query_id=qid,
                gallery=ids,
                order=order,
                scores=scores,
                stage=_typed(path, r["stage"], str, "stage"),
                k_reranked=k_reranked,
            ))
        return results

    return _parse_json(path, parse)


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def _csv(path: str, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_metrics_csv(path: str, report: MetricReport) -> None:
    rows = []
    for qid, values in report.per_query.items():
        for name in report.aggregate:
            rows.append((qid, name, repr(float(values[name]))))
    agg_name = {"ap": "map"}
    for name, value in report.aggregate.items():
        rows.append(("all", agg_name.get(name, name), repr(float(value))))
    _csv(path, "query_id,metric,value", rows)


def write_curve_csv(path: str, data: CurveData) -> None:
    _csv(path, "kind,x,y", ((data.kind, repr(float(x)), repr(float(y))) for x, y in data.points))


def write_trace_csv(path: str, trace: list) -> None:
    _csv(path, "step,loss", ((i + 1, repr(float(loss))) for i, loss in enumerate(trace)))


def write_attn_csv(path: str, grid: np.ndarray) -> None:
    rows = []
    for r in range(grid.shape[0]):
        for c in range(grid.shape[1]):
            rows.append((r, c, repr(float(grid[r, c]))))
    _csv(path, "row,col,weight", rows)

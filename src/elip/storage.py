"""Persistent formats: tensor blobs, checkpoints, manifests, benchmarks,
plans, rankings, query encodings and CSV reports. All writes are atomic
(temp file + rename, a checkpoint or gallery store as one directory) and
byte-stable for identical inputs.

Tensor blob layout: magic 'ELIP', u8 version=1, u8 dtype (1=f32, 2=f64),
u8 rank (<=2), u8 zero pad, rank x u64 little-endian dims, then the payload
little-endian row-major. A checkpoint is a directory of blobs `<name>.bin`
and an index.json that maps each tensor name to its blob's sha256; a blob's
dtype and shape are its header's alone.
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
# tensor blobs
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


def write_tensor_blob(path: str, arr: np.ndarray) -> str:
    """Writes the blob of arr; returns its sha256 hex digest."""
    data = tensor_to_blob(arr)
    atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


def read_tensor_blob(path: str) -> np.ndarray:
    with _open(path) as fh:
        return blob_to_tensor(fh.read(), source=path)


# ---------------------------------------------------------------------------
# checkpoints (directory of blobs + index.json)
# ---------------------------------------------------------------------------


CHECKPOINT_VERSION = 3
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def save_checkpoint(ckpt_dir: str, model: ModelBundle) -> None:
    """Publishes the checkpoint's blobs and index.json as one directory."""
    _publish_dir(ckpt_dir, lambda out_dir: _write_checkpoint_files(out_dir, model))


def _write_checkpoint_files(out_dir: str, model: ModelBundle) -> None:
    index = {
        "version": CHECKPOINT_VERSION,
        "variant": model.variant,
        "seed": model.seed,
        "dtype": _DTYPE_NAMES[np.dtype(model.dtype)],
        "dims": asdict(model.dims),
        "mapper": asdict(model.mapper_cfg),
        "tensors": {name: write_tensor_blob(os.path.join(out_dir, f"{name}.bin"), arr)
                    for name, arr, _ in model.iter_tensors()},
    }
    write_json(os.path.join(out_dir, "index.json"), index)


def load_checkpoint(ckpt_dir: str) -> ModelBundle:
    """Reads a version-3 checkpoint: index.json maps each tensor name to the
    sha256 of its blob `<name>.bin`. Every blob must match its digest, and
    its header's dtype and shape the layout of the bundle the index
    describes; any mismatch is a FormatError."""
    index_path = os.path.join(ckpt_dir, "index.json")

    def parse(doc):
        if doc["version"] != CHECKPOINT_VERSION:
            raise FormatError(
                f"{index_path}: checkpoint index version {doc['version']!r} is not "
                f"{CHECKPOINT_VERSION}, so re-create the checkpoint"
            )
        if doc["dtype"] not in ("f32", "f64"):
            raise FormatError(f"{index_path}: dtype {doc['dtype']!r} is not f32 or f64")
        return (
            _typed(index_path, doc["seed"], int, "seed"),
            doc["variant"],
            # read as RunConfig reads them; a ConfigError is a malformed index
            _from_doc(DimsConfig, doc["dims"], ("dims",)),
            _from_doc(MapperConfig, doc["mapper"], ("mapper",)),
            np.dtype(np.float32 if doc["dtype"] == "f32" else np.float64),
            dict(doc["tensors"].items()),
        )

    seed, variant, dims, mapper_cfg, dtype, digests = _parse_json(index_path, parse)
    # The bundle's layout without drawing its weights: every weight matrix
    # is overwritten from its blob below. A layout the index cannot describe
    # (say insert_layer >= L_v) is a fault of the index.
    try:
        model = _assemble_model(seed, dims, variant, mapper_cfg, dtype,
                                lambda rows, cols, fan_in: np.empty((rows, cols), dtype=dtype))
    except ConfigError as exc:
        raise FormatError(f"{index_path}: {exc}") from exc
    by_name = {}
    for layer in model.layers():
        for key in layer.tensors:
            by_name[f"{layer.name}.{key}"] = (layer, key)
    for name, digest in digests.items():
        if name not in by_name:
            raise FormatError(f"{index_path}: unexpected tensor {name!r}")
        layer, key = by_name[name]
        expected = layer.tensors[key]
        blob_path = os.path.join(ckpt_dir, f"{name}.bin")
        with _open(blob_path) as fh:
            data = fh.read()
        arr = blob_to_tensor(data, source=blob_path)
        if hashlib.sha256(data).hexdigest() != digest:
            raise FormatError(f"{blob_path}: sha256 does not match {index_path}")
        if (arr.dtype, arr.shape) != (expected.dtype, expected.shape):
            raise FormatError(
                f"{index_path}: tensor {name!r} in {blob_path} is "
                f"{_DTYPE_NAMES[arr.dtype]} {arr.shape}; the model needs "
                f"{_DTYPE_NAMES[expected.dtype]} {expected.shape}"
            )
        layer.tensors[key] = arr
    missing = set(by_name) - set(digests)
    if missing:
        raise FormatError(f"{index_path}: missing tensors {sorted(missing)}")
    return model


# ---------------------------------------------------------------------------
# dataset manifests (JSON-Lines + shared patch blob)
# ---------------------------------------------------------------------------


def write_dataset(out_dir: str, ds: PairDataset) -> str:
    """Writes patches.bin, (if present) vocab.json, then data.jsonl; returns
    the manifest path. The manifest comes last, so a write that fails
    leaves no manifest that reads a partial dataset."""
    os.makedirs(out_dir, exist_ok=True)
    stacked = np.concatenate([rec.patches for rec in ds.records], axis=0)
    write_tensor_blob(os.path.join(out_dir, "patches.bin"), stacked.astype(np.float32))
    if ds.vocab is not None:
        write_json(os.path.join(out_dir, "vocab.json"), ds.vocab)
    lines = []
    row = 0
    for rec in ds.records:
        lines.append(json.dumps({
            "id": rec.id,
            "patches": {"file": "patches.bin", "row": row, "rows": rec.patches.shape[0]},
            "tokens": list(rec.tokens),
            "caption": rec.caption,
            "categories": sorted(rec.categories),
            "occluded_categories": sorted(rec.occluded_categories),
        }, sort_keys=True))
        row += rec.patches.shape[0]
    manifest = os.path.join(out_dir, "data.jsonl")
    atomic_write_text(manifest, "\n".join(lines) + "\n")
    return manifest


def read_dataset(manifest_path: str) -> PairDataset:
    """The records of a data.jsonl manifest. A DataError (an unreadable
    blob, rows outside it) passes through; any other fault of a line is a
    FormatError at file:line."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    blobs: dict[str, np.ndarray] = {}
    records = []
    with _open(manifest_path) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        with _malformed(f"{manifest_path}:{lineno}"):
            line = line.decode("utf-8").strip()
            if not line:
                continue
            doc = json.loads(line)
            patches_ref = doc["patches"]
            fname = patches_ref["file"]
            row = _typed(manifest_path, patches_ref["row"], int, f"line {lineno}: patches row")
            rows = _typed(manifest_path, patches_ref["rows"], int, f"line {lineno}: patches rows")
            if fname not in blobs:
                blobs[fname] = read_tensor_blob(os.path.join(base, fname))
            blob = blobs[fname]
            if row < 0 or rows < 0 or row + rows > blob.shape[0]:
                raise DataError(
                    f"{manifest_path}:{lineno}: rows [{row}, {row + rows}) "
                    f"outside blob of {blob.shape[0]} rows"
                )
            records.append(PairRecord(
                id=_typed(manifest_path, doc["id"], str, f"line {lineno}: record id"),
                patches=np.array(blob[row : row + rows], dtype=np.float32),
                tokens=_typed(manifest_path, doc["tokens"], list[int], f"line {lineno}: token"),
                caption=_typed(manifest_path, doc["caption"], str, f"line {lineno}: caption"),
                categories=set(_typed(manifest_path, doc.get("categories", []), list[str],
                                      f"line {lineno}: categories")),
                occluded_categories=set(_typed(manifest_path, doc.get("occluded_categories", []),
                                               list[str], f"line {lineno}: occluded_categories")),
            ))
    if not records:
        raise FormatError(f"{manifest_path}: no records")
    vocab_path = os.path.join(base, "vocab.json")
    vocab = read_vocab(vocab_path) if os.path.exists(vocab_path) else None
    return PairDataset(records=records, vocab=vocab)


def read_vocab(path: str) -> dict:
    """Tokenizer table: word -> token id."""
    return _parse_json(path, lambda doc: {
        word: _typed(path, tid, int, f"id of {word!r}") for word, tid in doc.items()
    })


# ---------------------------------------------------------------------------
# benchmarks, plans, rankings, stores
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
        scores = doc.get("learnability")
        if not (scores is None or _conforms(scores, list[float]) and len(scores) == len(batches)):
            raise FormatError(f"{path}: learnability {scores!r} is neither null nor "
                              f"a list of {len(batches)} numbers, one per batch")
        return CurationPlan(batches=batches, learnability=scores,
                            source_seed=_typed(path, doc.get("source_seed", 0), int, "source_seed"))
    return _parse_json(path, parse)


def write_store(store_dir: str, store: EmbeddingStore) -> None:
    """Publishes embeddings.bin and ids.json as one directory."""
    def write(out_dir):
        write_tensor_blob(os.path.join(out_dir, "embeddings.bin"), store.matrix)
        write_json(os.path.join(out_dir, "ids.json"),
                   {"ids": store.ids, "seed": store.provenance_seed})
    _publish_dir(store_dir, write)


def read_store(store_dir: str) -> EmbeddingStore:
    ids_path = os.path.join(store_dir, "ids.json")
    ids, seed = _parse_json(ids_path, lambda doc: (
        _typed(ids_path, doc["ids"], list[str], "image id"),
        _typed(ids_path, doc["seed"], int, "seed"),
    ))
    matrix_path = os.path.join(store_dir, "embeddings.bin")
    matrix = read_tensor_blob(matrix_path)
    if matrix.ndim != 2:
        raise FormatError(f"{matrix_path}: rank {matrix.ndim} blob, expected a (G, d_e) matrix")
    try:
        return EmbeddingStore(ids=ids, matrix=matrix, provenance_seed=seed)
    except DataError as exc:
        raise DataError(f"{store_dir}: {exc}") from exc


def _query_fields(dims: DimsConfig) -> list:
    """(TextEncoding field, shape) of a queries.bin row, in row order."""
    return [("dense", (dims.m, dims.d_t)), ("t_cls", (dims.d_t,)), ("t_joint", (dims.d_e,))]


def write_queries(out_dir: str, model: ModelBundle, bench: Benchmark, queries: list) -> None:
    """Writes bench's query encodings under model (encode_queries' list) as
    queries.bin, one row per query of its dense, t_cls and t_joint in the
    model's dtype, then queries.json, one compact JSON line of
    model.backbone_key and each query's text_tokens. An older queries.json
    is removed first and the new one comes last, so a write that fails
    leaves no queries.json beside other bytes."""
    json_path = os.path.join(out_dir, "queries.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(json_path)
    fields = _query_fields(model.dims)
    rows = np.empty((len(queries), sum(math.prod(shape) for _, shape in fields)), model.dtype)
    for row, text_enc in zip(rows, queries):
        row[:] = np.concatenate([getattr(text_enc, name).reshape(-1) for name, _ in fields])
    write_tensor_blob(os.path.join(out_dir, "queries.bin"), rows)
    doc = {"backbone_key": model.backbone_key,
           "text_tokens": [list(q.text_tokens) for q in bench.queries]}
    atomic_write_text(json_path, json.dumps(doc, sort_keys=True) + "\n")


def read_queries(out_dir: str, model: ModelBundle, bench: Benchmark) -> list | None:
    """The query encodings write_queries left in out_dir, or None when there
    is no queries.json or it was written for another backbone or for other
    query tokens than bench's. A malformed queries.json, or a queries.bin
    that is not one finite row of the model's dtype and width per query, is
    a FormatError naming the file."""
    json_path = os.path.join(out_dir, "queries.json")
    if not os.path.exists(json_path):
        return None

    key, tokens = _parse_json(json_path, lambda doc: (
        _typed(json_path, doc["backbone_key"], str, "backbone_key"),
        [_typed(json_path, q, list[int], f"query {n}: text_tokens")
         for n, q in enumerate(_typed(json_path, doc["text_tokens"], list, "text_tokens"))],
    ))
    if key != model.backbone_key or tokens != [list(q.text_tokens) for q in bench.queries]:
        return None
    bin_path = os.path.join(out_dir, "queries.bin")
    rows = read_tensor_blob(bin_path)
    fields = _query_fields(model.dims)
    sizes = [math.prod(shape) for _, shape in fields]
    expected = (len(tokens), sum(sizes))
    if rows.dtype != model.dtype or rows.shape != expected:
        raise FormatError(
            f"{bin_path}: {_DTYPE_NAMES[rows.dtype]} {rows.shape} blob; {len(tokens)} "
            f"queries need {_DTYPE_NAMES[np.dtype(model.dtype)]} {expected}"
        )
    if not np.isfinite(rows).all():
        raise FormatError(f"{bin_path}: non-finite query encoding")
    offsets = np.cumsum([0, *sizes]).tolist()
    return [TextEncoding(**{name: row[a:b].reshape(shape)
                            for (name, shape), a, b in zip(fields, offsets, offsets[1:])})
            for row in rows]


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

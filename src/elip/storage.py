"""Persistent formats: tensor blobs, checkpoints, manifests, benchmarks,
plans, rankings and CSV reports. All writes are atomic (temp file + rename)
and byte-stable for identical inputs.

Tensor blob layout: magic 'ELIP', u8 version=1, u8 dtype (1=f32, 2=f64),
u8 rank (<=2), u8 zero pad, rank x u64 little-endian dims, then the payload
little-endian row-major.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .config import DimsConfig, MapperConfig
from .curation import (
    Benchmark,
    BenchmarkQuery,
    CurationPlan,
    PairDataset,
    PairRecord,
)
from .encoders import ModelBundle, init_frozen_model
from .errors import ConfigError, DataError, FormatError
from .retrieval import CurveData, EmbeddingStore, MetricReport, RankingResult

MAGIC = b"ELIP"
BLOB_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _parse_json(path: str, parse):
    """parse(doc) of the JSON file at path. Bad JSON, a missing key or a
    wrongly typed value anywhere in the parse is one FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc


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
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if rank else dtype.itemsize
    if len(data) - dims_end != expected:
        raise FormatError(
            f"{source}: payload length {len(data) - dims_end} != {expected} "
            f"at offset {dims_end}"
        )
    flat = np.frombuffer(data[dims_end:], dtype=dtype)
    arr = flat.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
    return arr


def write_tensor_blob(path: str, arr: np.ndarray) -> None:
    atomic_write_bytes(path, tensor_to_blob(arr))


def read_tensor_blob(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise DataError(f"tensor blob not found: {path}")
    with open(path, "rb") as fh:
        return blob_to_tensor(fh.read(), source=path)


# ---------------------------------------------------------------------------
# checkpoints (directory of blobs + index.json)
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt_dir: str, model: ModelBundle) -> None:
    os.makedirs(ckpt_dir, exist_ok=True)
    tensors = {}
    for name, arr, trainable in model.iter_tensors():
        fname = f"{name}.bin"
        write_tensor_blob(os.path.join(ckpt_dir, fname), arr)
        tensors[name] = {
            "file": fname,
            "dtype": "f32" if arr.dtype == np.float32 else "f64",
            "shape": list(arr.shape),
            "trainable": trainable,
        }
    index = {
        "version": 1,
        "variant": model.variant,
        "seed": model.seed,
        "dtype": "f32" if model.dtype == np.float32 else "f64",
        "dims": asdict(model.dims),
        "mapper": asdict(model.mapper_cfg),
        "tensors": tensors,
    }
    atomic_write_text(
        os.path.join(ckpt_dir, "index.json"),
        json.dumps(index, indent=2, sort_keys=True) + "\n",
    )


def load_checkpoint(ckpt_dir: str) -> ModelBundle:
    index_path = os.path.join(ckpt_dir, "index.json")
    if not os.path.exists(index_path):
        raise DataError(f"checkpoint index not found: {index_path}")
    seed, variant, dims, mapper_cfg, dtype, files = _parse_json(index_path, lambda doc: (
        doc["seed"],
        doc["variant"],
        DimsConfig(**{key: int(value) for key, value in doc["dims"].items()}),
        MapperConfig(**doc["mapper"]),
        np.float32 if doc["dtype"] == "f32" else np.float64,
        {name: str(meta["file"]) for name, meta in doc["tensors"].items()},
    ))
    model = init_frozen_model(seed, dims, variant, mapper_cfg, dtype=dtype)
    by_name = {}
    for layer in model.layers():
        for key in layer.tensors:
            by_name[f"{layer.name}.{key}"] = (layer, key)
    for name, fname in files.items():
        if name not in by_name:
            raise FormatError(f"{index_path}: unexpected tensor {name!r}")
        arr = read_tensor_blob(os.path.join(ckpt_dir, fname))
        layer, key = by_name[name]
        if tuple(arr.shape) != tuple(layer.tensors[key].shape):
            raise FormatError(
                f"{index_path}: tensor {name!r} shape {arr.shape} != "
                f"{layer.tensors[key].shape}"
            )
        layer.tensors[key] = arr.astype(dtype, copy=False)
        layer.grad[key] = np.zeros_like(layer.tensors[key])
    missing = set(by_name) - set(files)
    if missing:
        raise FormatError(f"{index_path}: missing tensors {sorted(missing)}")
    return model


# ---------------------------------------------------------------------------
# dataset manifests (JSON-Lines + shared patch blob)
# ---------------------------------------------------------------------------


def write_dataset(out_dir: str, ds: PairDataset) -> str:
    """Writes patches.bin, data.jsonl and (if present) vocab.json; returns
    the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    stacked = np.concatenate([rec.patches for rec in ds.records], axis=0)
    write_tensor_blob(os.path.join(out_dir, "patches.bin"), stacked.astype(np.float32))
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
    if ds.vocab is not None:
        atomic_write_text(
            os.path.join(out_dir, "vocab.json"),
            json.dumps(ds.vocab, indent=2, sort_keys=True) + "\n",
        )
    return manifest


def read_dataset(manifest_path: str) -> PairDataset:
    if not os.path.exists(manifest_path):
        raise DataError(f"manifest not found: {manifest_path}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    blobs: dict[str, np.ndarray] = {}
    records = []
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{manifest_path}:{lineno}: invalid JSON ({exc})") from exc
            try:
                patches_ref = doc["patches"]
                fname = patches_ref["file"]
                row = int(patches_ref["row"])
                rows = int(patches_ref["rows"])
                if fname not in blobs:
                    blobs[fname] = read_tensor_blob(os.path.join(base, fname))
                blob = blobs[fname]
                if row < 0 or row + rows > blob.shape[0]:
                    raise DataError(
                        f"{manifest_path}:{lineno}: rows [{row}, {row + rows}) "
                        f"outside blob of {blob.shape[0]} rows"
                    )
                records.append(PairRecord(
                    id=doc["id"],
                    patches=np.array(blob[row : row + rows], dtype=np.float32),
                    tokens=[int(t) for t in doc["tokens"]],
                    caption=doc["caption"],
                    categories=set(doc.get("categories", [])),
                    occluded_categories=set(doc.get("occluded_categories", [])),
                ))
            except KeyError as exc:
                raise DataError(
                    f"{manifest_path}:{lineno}: missing field {exc}"
                ) from exc
    vocab_path = os.path.join(base, "vocab.json")
    vocab = read_vocab(vocab_path) if os.path.exists(vocab_path) else None
    return PairDataset(records=records, vocab=vocab)


def read_vocab(path: str) -> dict:
    """Tokenizer table: word -> token id."""
    if not os.path.exists(path):
        raise DataError(f"vocab file not found: {path}")
    return _parse_json(path, lambda doc: {str(word): int(tid) for word, tid in doc.items()})


# ---------------------------------------------------------------------------
# benchmarks, plans, rankings, stores
# ---------------------------------------------------------------------------


def write_benchmark(path: str, bench: Benchmark) -> None:
    doc = {"queries": [
        {"text_tokens": list(q.text_tokens), "positives": sorted(q.positives)}
        for q in bench.queries
    ]}
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_benchmark(path: str, gallery_ids: list) -> Benchmark:
    if not os.path.exists(path):
        raise DataError(f"benchmark file not found: {path}")
    queries = _parse_json(path, lambda doc: [
        BenchmarkQuery(
            text_tokens=[int(t) for t in q["text_tokens"]],
            positives=set(q["positives"]),
        )
        for q in doc["queries"]
    ])
    return Benchmark(queries=queries, gallery_ids=list(gallery_ids))


def write_plan(path: str, plan: CurationPlan) -> None:
    doc = {
        "batches": [list(b) for b in plan.batches],
        "learnability": plan.learnability,
        "source_seed": plan.source_seed,
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_plan(path: str) -> CurationPlan:
    if not os.path.exists(path):
        raise DataError(f"plan file not found: {path}")
    return _parse_json(path, lambda doc: CurationPlan(
        batches=[list(map(int, b)) for b in doc["batches"]],
        learnability=doc.get("learnability"),
        source_seed=int(doc.get("source_seed", 0)),
    ))


def write_store(out_dir: str, store: EmbeddingStore) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_tensor_blob(os.path.join(out_dir, "embeddings.bin"), store.matrix)
    atomic_write_text(
        os.path.join(out_dir, "ids.json"),
        json.dumps({"ids": store.ids, "seed": store.provenance_seed},
                   indent=2, sort_keys=True) + "\n",
    )


def read_store(store_dir: str) -> EmbeddingStore:
    ids_path = os.path.join(store_dir, "ids.json")
    if not os.path.exists(ids_path):
        raise DataError(f"store ids not found: {ids_path}")
    ids, seed = _parse_json(ids_path, lambda doc: (list(doc["ids"]), doc["seed"]))
    matrix = read_tensor_blob(os.path.join(store_dir, "embeddings.bin"))
    return EmbeddingStore(ids=ids, matrix=matrix, provenance_seed=seed)


def write_rankings(path: str, rankings: list) -> None:
    doc = {"rankings": [
        {
            "query_id": r.query_id,
            "stage": r.stage,
            "k_reranked": r.k_reranked,
            "entries": [[image_id, score] for image_id, score in r.entries],
        }
        for r in rankings
    ]}
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_rankings(path: str) -> list:
    if not os.path.exists(path):
        raise DataError(f"rankings file not found: {path}")
    return _parse_json(path, lambda doc: [
        RankingResult(
            query_id=r["query_id"],
            entries=[(e[0], float(e[1])) for e in r["entries"]],
            stage=r["stage"],
            k_reranked=int(r["k_reranked"]),
        )
        for r in doc["rankings"]
    ])


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
    metric_names = [f"recall@{k}" for k in report.config_echo.get("ks", (1, 5, 10))]
    metric_names.append("ap")
    for qid, values in report.per_query.items():
        for name in metric_names:
            rows.append((qid, name, repr(float(values[name]))))
    agg_name = {"ap": "map"}
    for name in metric_names:
        rows.append(("all", agg_name.get(name, name), repr(float(report.aggregate[name]))))
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

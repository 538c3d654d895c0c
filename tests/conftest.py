import ctypes
import hashlib
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from elip.config import DimsConfig, MapperConfig
from elip.curation import PairDataset, PairRecord
from elip.encoders import image_forward, init_frozen_model, joint_embed
from elip.retrieval import RankingResult
from elip.rng import Rng

TINY = DimsConfig(
    d_t=6, d_v=8, d_e=8, P=4, m=3, L_t=2, L_v=2, H=2, n=2,
    insert_layer=0, d_in=5, vocab=16,
)


@pytest.fixture
def tiny_dims():
    return TINY


@pytest.fixture
def tiny_model():
    return init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))


@pytest.fixture
def tiny_model_f64():
    return init_frozen_model(7, TINY, "C", MapperConfig(hidden=8), dtype=np.float64)


@pytest.fixture
def tiny_model_b_f64():
    return init_frozen_model(7, TINY, "B", MapperConfig(hidden=8), dtype=np.float64)


def make_records(count, dims=TINY, seed=99, with_categories=False):
    rng = Rng(seed)
    records = []
    for i in range(count):
        cats = {f"cat{i % 3}"} if with_categories else set()
        occ = cats if (with_categories and i % 2 == 0) else set()
        records.append(PairRecord(
            id=f"rec{i:04d}",
            patches=rng.gaussian_matrix(dims.P, dims.d_in).astype(np.float32),
            tokens=[1 + (i % (dims.vocab - 1))] + [2, 3][: dims.m - 1],
            caption=f"record {i}",
            categories=cats,
            occluded_categories=occ,
        ))
    return records


@pytest.fixture
def tiny_dataset():
    return PairDataset(records=make_records(6))


def encode_one(model, patches, prompts=None, **kwargs):
    """image_forward of one image, then joint_embed over it as a 1-stack:
    the encoding (enc), its patch_states (None for C/S), its v_joint and
    the head_cache image_backward reads with [enc]."""
    enc = image_forward(model, patches, prompts, **kwargs)
    patch_states, v_joint, head_cache = joint_embed(model, enc.kept[None])
    return SimpleNamespace(enc=enc, patch_states=None if patch_states is None else patch_states[0],
                           v_joint=v_joint[0], head_cache=head_cache)


def randomize_mapper(model, seed=5, scale=0.3):
    """Give the zero-initialized final mapper layer non-zero weights so
    gradients flow through every mapper tensor."""
    rng = Rng(seed)
    w = model.mapper.tensors["l3.weight"]
    model.mapper.tensors["l3.weight"] = rng.gaussian_matrix(*w.shape, scale).astype(w.dtype)
    return model


def ranking_from_entries(query_id, entries, stage, k_reranked=0):
    """A RankingResult of (image_id, score) pairs, best first, over a gallery
    of exactly its own ids."""
    return RankingResult(
        query_id=query_id,
        gallery=[image_id for image_id, _ in entries],
        order=np.arange(len(entries)),
        scores=np.array([score for _, score in entries], dtype=np.float64),
        stage=stage,
        k_reranked=k_reranked,
    )


def rewrite_tensor(json_path, bin_path, name, data):
    """A write_tensors pair with tensor name's slice replaced by the bytes
    data (storage.tensor_to_blob(arr) for an array), every offset and that
    slice's sha256 updated, so data alone is the damage."""
    index = json.loads(pathlib.Path(json_path).read_text())
    old = pathlib.Path(bin_path).read_bytes()
    out = b""
    for key, (offset, length, _) in sorted(index["tensors"].items(), key=lambda e: e[1][0]):
        blob = data if key == name else old[offset:offset + length]
        index["tensors"][key] = [len(out), len(blob), hashlib.sha256(blob).hexdigest()]
        out += blob
    pathlib.Path(bin_path).write_bytes(out)
    pathlib.Path(json_path).write_text(json.dumps(index, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# golden digests: bytes pinned per OpenBLAS core
# ---------------------------------------------------------------------------

# The pinned sha256s hold for one numpy/BLAS build and the kernels its
# OpenBLAS selects at run time, so each table is keyed by the cores that give
# its digests. OPENBLAS_CORETYPE picks another core for one process.


def openblas_core() -> str:
    """Core name of numpy's bundled scipy-openblas (e.g. SkylakeX)."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes = []
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unknown"


def core_table(tables: dict, core: str | None = None) -> dict:
    """The digests that tables (keyed by tuples of core names) records for
    core, by default the one this process runs on. A core with no table
    fails with the command that records it."""
    core = core or openblas_core()
    for cores, table in tables.items():
        if core in cores:
            return table
    pytest.fail(f"no golden digests recorded for OpenBLAS core {core}: record them with "
                f"`OPENBLAS_CORETYPE={core} PYTHONPATH=src python tests/record_golden.py` "
                f"and add its tables under {core!r}")

"""Data machinery: hard-sample mining, learnability selection, benchmarks.

Also hosts the planted-structure synthetic dataset. Every operation is a
pure function of (inputs, seed); ties break by ascending index everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DimsConfig
from .encoders import ModelBundle, encode_image, encode_text
from .errors import ConfigError, DataError
from .numkit import Array
from .objectives import variant_batch_loss
from .rng import Rng


@dataclass
class PairRecord:
    id: str
    patches: Array  # (P, d_in) raw features
    tokens: list
    caption: str
    categories: set = field(default_factory=set)
    occluded_categories: set = field(default_factory=set)


@dataclass
class PairDataset:
    records: list
    vocab: dict | None = None

    def __post_init__(self):
        self._index = {}
        for rec in self.records:
            if rec.id in self._index:
                raise DataError(f"duplicate record id {rec.id!r}")
            self._index[rec.id] = rec

    @property
    def N(self) -> int:
        return len(self.records)

    def by_id(self, rec_id: str) -> PairRecord:
        rec = self._index.get(rec_id)
        if rec is None:
            raise DataError(f"record id {rec_id!r} not in dataset")
        return rec


@dataclass
class CurationPlan:
    batches: list  # list of index lists, each of length B
    learnability: list | None = None
    source_seed: int = 0

    def check_indices(self, n: int) -> None:
        bad = [k for batch in self.batches for k in batch if not 0 <= k < n]
        if bad:
            raise DataError(f"plan index {bad[0]} outside dataset of {n} records")


@dataclass
class BenchmarkQuery:
    text_tokens: list
    positives: set


@dataclass
class Benchmark:
    queries: list
    gallery_ids: list

    def __post_init__(self):
        gallery = set(self.gallery_ids)
        for q in self.queries:
            if not q.positives:
                raise DataError("benchmark query with empty positive set")
            missing = q.positives - gallery
            if missing:
                raise DataError(f"positives outside gallery: {sorted(missing)}")


def query_id(index: int) -> str:
    return f"q{index:04d}"


# ---------------------------------------------------------------------------
# frozen joint embeddings (stage-1 space, no prompts)
# ---------------------------------------------------------------------------


def frozen_embeddings(model: ModelBundle, ds: PairDataset) -> tuple[Array, Array]:
    """(text_matrix, image_matrix), one unit-norm row per record."""
    texts = np.stack([encode_text(model, r.tokens).t_joint for r in ds.records])
    images = np.stack([encode_image(model, r.patches).v_joint for r in ds.records])
    return texts, images


# ---------------------------------------------------------------------------
# global hard sample mining
# ---------------------------------------------------------------------------


def mine_hard_batches(
    ds: PairDataset,
    model_or_embeddings,
    B: int,
    unique_category: bool = False,
) -> CurationPlan:
    """One batch per reference pair: itself plus the B-1 images whose frozen
    embeddings score highest against the reference text, descending, ties by
    ascending record index."""
    n = ds.N
    if not 1 <= B <= n:
        raise ConfigError(f"batch size B={B} must lie in [1, N={n}]")
    if isinstance(model_or_embeddings, ModelBundle):
        text_mat, image_mat = frozen_embeddings(model_or_embeddings, ds)
        source_seed = model_or_embeddings.seed
    else:
        text_mat, image_mat = model_or_embeddings
        source_seed = 0
    batches = []
    for i in range(n):
        # per-row dots (not one GEMV) so scores match scalar recomputation
        sims = [float(np.dot(image_mat[j], text_mat[i])) for j in range(n)]
        order = sorted(range(n), key=lambda j: (-sims[j], j))
        selected = [i]
        used = set(ds.records[i].categories) if unique_category else None
        for j in order:
            if len(selected) == B:
                break
            if j == i:
                continue
            if unique_category:
                cats = ds.records[j].categories
                if cats & used:
                    continue
                used |= cats
            selected.append(j)
        if len(selected) < B:
            raise DataError(
                f"reference {ds.records[i].id!r}: category-unique mining found "
                f"only {len(selected)} of B={B} records"
            )
        batches.append(selected)
    return CurationPlan(batches=batches, learnability=None, source_seed=source_seed)


# ---------------------------------------------------------------------------
# learnability-based batch selection
# ---------------------------------------------------------------------------


def select_by_learnability(
    plan: CurationPlan,
    ds: PairDataset,
    learner: ModelBundle,
    reference: ModelBundle,
    fraction: float = 0.10,
    conditioning: str = "per_row",
) -> CurationPlan:
    """Keep the ceil(fraction * count) batches with highest
    loss(learner) - loss(reference); ties by ascending batch index, original
    relative order preserved."""
    if not plan.batches:
        raise DataError("cannot select from an empty plan")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction={fraction} must lie in (0, 1]")
    plan.check_indices(ds.N)
    scores = []
    for batch in plan.batches:
        records = [ds.records[k] for k in batch]
        scores.append(
            variant_batch_loss(learner, records, conditioning)
            - variant_batch_loss(reference, records, conditioning)
        )
    count = math.ceil(fraction * len(plan.batches))
    ranked = sorted(range(len(plan.batches)), key=lambda k: (-scores[k], k))
    keep = sorted(ranked[:count])
    return CurationPlan(
        batches=[plan.batches[k] for k in keep],
        learnability=[scores[k] for k in keep],
        source_seed=plan.source_seed,
    )


# ---------------------------------------------------------------------------
# occluded benchmark builder
# ---------------------------------------------------------------------------


def build_occluded_benchmark(
    ds: PairDataset, category_vocabulary: dict
) -> tuple[Benchmark, list]:
    """Category queries whose positives have every instance occluded.

    category_vocabulary maps category name -> token id list. The ingestion
    contract puts a category into occluded_categories only when all of its
    instances are occluded, so the builder is a pure set partition:
    positives have the category occluded; records carrying the category
    un-occluded stay in the gallery but count on neither side. Categories
    with zero positives are dropped and reported.
    """
    queries = []
    dropped = []
    gallery = [r.id for r in ds.records]
    for category, tokens in category_vocabulary.items():
        positives = {
            r.id
            for r in ds.records
            if category in r.categories and category in r.occluded_categories
        }
        if not positives:
            dropped.append(category)
            continue
        queries.append(BenchmarkQuery(text_tokens=list(tokens), positives=positives))
    return Benchmark(queries=queries, gallery_ids=gallery), dropped


# ---------------------------------------------------------------------------
# planted-structure synthetic dataset
# ---------------------------------------------------------------------------


@dataclass
class SynthSpec:
    N: int = 200
    clusters: int = 20
    signal_strength: float = 0.6
    P: int = DimsConfig.P
    d_in: int = DimsConfig.d_in
    m: int = DimsConfig.m

    def validate(self) -> "SynthSpec":
        if not self.N >= self.clusters >= 2:
            raise ConfigError(f"need N >= clusters >= 2, got N={self.N}, clusters={self.clusters}")
        if self.signal_strength <= 0:
            raise ConfigError("signal_strength must be positive")
        if self.P < 2 or self.d_in < 2:
            raise ConfigError("patch geometry too small to carve a signal region")
        return self


def cluster_word(c: int) -> str:
    return f"thing{c:02d}"


def signal_word(s: int) -> str:
    return f"style{s:02d}"


def build_vocab(clusters: int, signals: int) -> dict:
    """Token table; id 0 is the pad token."""
    vocab = {"<pad>": 0}
    for c in range(clusters):
        vocab[cluster_word(c)] = 1 + c
    for s in range(signals):
        vocab[signal_word(s)] = 1 + clusters + s
    return vocab


def tokenize(vocab: dict, text: str, m: int | None = None) -> list:
    ids = []
    for word in text.split():
        if word not in vocab:
            raise DataError(f"word {word!r} not in tokenizer table")
        ids.append(vocab[word])
    if m is not None:
        if len(ids) > m:
            raise DataError(f"query of {len(ids)} tokens exceeds m={m}")
        ids = ids + [0] * (m - len(ids))
    return ids


NOISE_SCALE = 0.05
OCCLUSION_RATE = 0.5


def gen_synthetic_dataset(seed: int, spec: SynthSpec) -> tuple[PairDataset, Benchmark]:
    """Planted image-text pairs where stage-1 conflates within clusters.

    Record i belongs to cluster c = i mod clusters and carries within-cluster
    signal s = i div clusters. The cluster base pattern fills all patches
    except a designated row/column region which is zeroed there; the signal
    pattern is written only into that region at amplitude signal_strength, so
    frozen CLS embeddings separate clusters but barely separate signals.
    Captions token-encode both words; the benchmark pairs each caption with
    its unique image.
    """
    spec = spec.validate()
    rng = Rng(seed)
    n_signals = math.ceil(spec.N / spec.clusters)
    sig_rows = max(1, spec.P // 4)
    sig_cols = max(1, spec.d_in // 3)
    row0, col0 = spec.P - sig_rows, spec.d_in - sig_cols

    bases = []
    for _ in range(spec.clusters):
        base = rng.gaussian_matrix(spec.P, spec.d_in)
        base[row0:, col0:] = 0.0
        bases.append(base)
    signals = [rng.gaussian_matrix(sig_rows, sig_cols) for _ in range(n_signals)]

    vocab = build_vocab(spec.clusters, n_signals)
    records = []
    queries = []
    for i in range(spec.N):
        c = i % spec.clusters
        s = i // spec.clusters
        patches = bases[c] + NOISE_SCALE * rng.gaussian_matrix(spec.P, spec.d_in)
        patches[row0:, col0:] += spec.signal_strength * signals[s]
        occluded = rng.uniform() < OCCLUSION_RATE
        caption = f"{cluster_word(c)} {signal_word(s)}"
        tokens = tokenize(vocab, caption, spec.m)
        rec_id = f"img{i:04d}"
        records.append(PairRecord(
            id=rec_id,
            patches=patches.astype(np.float32),
            tokens=tokens,
            caption=caption,
            categories={cluster_word(c)},
            occluded_categories={cluster_word(c)} if occluded else set(),
        ))
        queries.append(BenchmarkQuery(text_tokens=tokens, positives={rec_id}))
    ds = PairDataset(records=records, vocab=vocab)
    bench = Benchmark(queries=queries, gallery_ids=[r.id for r in records])
    return ds, bench

"""Deterministic desk-scale text-guided visual-prompt re-ranking pipeline."""

from .config import DimsConfig, MapperConfig, RunConfig, TrainConfig
from .curation import (
    Benchmark,
    BenchmarkQuery,
    CurationPlan,
    PairDataset,
    PairRecord,
    SynthSpec,
    build_occluded_benchmark,
    gen_synthetic_dataset,
    mine_hard_batches,
    select_by_learnability,
)
from .encoders import (
    FrozenImage,
    ImageEncoding,
    ModelBundle,
    TextEncoding,
    encode_text,
    frozen_image,
    frozen_text,
    image_forward,
    init_frozen_model,
    joint_embed,
)
from .objectives import (
    ScoreMatrix,
    bce,
    build_score_matrix_with_caches,
    info_nce,
    sigmoid_pairwise,
    variant_batch_loss,
)
from .prompt_mapper import pool_text_dense, prompts_for_text
from .retrieval import (
    CurveData,
    EmbeddingStore,
    MetricReport,
    RankingResult,
    attention_map,
    curve,
    embed_gallery,
    estimate_flops,
    evaluate,
    mean_average_precision,
    recall_at_k,
    rerank,
    stage1_rank,
)
from .rng import Rng
from .trainer import adam_step, train

__version__ = "0.1.0"

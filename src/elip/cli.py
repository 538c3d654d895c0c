"""Command-line surface.

Every command prints exactly one JSON status line to stdout, writes its
artifacts (plus resolved-config.json) under --out, and exits 0 on success,
1 on usage/config errors, 2 on data/format errors, 3 on numeric errors.
ELIP_SEED overrides the config seed; an explicit --seed flag wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import storage
from .config import MapperConfig, RunConfig
from .curation import (
    SynthSpec,
    build_occluded_benchmark,
    gen_synthetic_dataset,
    mine_hard_batches,
    select_by_learnability,
)
from .encoders import copy_without_prompts, encode_text, init_frozen_model
from .errors import ConfigError, DataError, NumericError
from .retrieval import (
    attention_map,
    curve,
    embed_gallery,
    estimate_flops,
    evaluate,
    rank_queries,
    rerank_queries,
)
from .trainer import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _status(command: str, cfg: RunConfig, **extra) -> None:
    line = {"command": command, "status": "ok", "seed": cfg.seed}
    line.update(extra)
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")


def _emit_config(out_dir: str, cfg: RunConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    storage.atomic_write_text(os.path.join(out_dir, "resolved-config.json"), cfg.to_json())


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        path = args.config
        if not os.path.exists(path):
            raise DataError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
    else:
        cfg = RunConfig()
    env_seed = os.environ.get("ELIP_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"ELIP_SEED must be an integer, got {env_seed!r}") from exc
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    cfg = _load_config(args)
    spec = SynthSpec(
        N=args.n, clusters=args.clusters, signal_strength=args.signal_strength,
        P=cfg.dims.P, d_in=cfg.dims.d_in, m=cfg.dims.m,
    )
    needed_vocab = 1 + spec.clusters + -(-spec.N // spec.clusters)
    if needed_vocab > cfg.dims.vocab:
        raise ConfigError(
            f"dataset needs {needed_vocab} token ids but dims.vocab is "
            f"{cfg.dims.vocab}; raise vocab or lower clusters/N"
        )
    cfg.synth = {"N": spec.N, "clusters": spec.clusters,
                 "signal_strength": spec.signal_strength}
    ds, bench = gen_synthetic_dataset(cfg.seed, spec)
    manifest = storage.write_dataset(cfg.out_dir, ds)
    bench_path = os.path.join(cfg.out_dir, "benchmark.json")
    storage.write_benchmark(bench_path, bench)
    _emit_config(cfg.out_dir, cfg)
    _status("gen-synth", cfg, records=ds.N, clusters=spec.clusters,
            manifest=manifest, benchmark=bench_path)
    return EXIT_OK


def cmd_init_model(args) -> int:
    cfg = _load_config(args)
    if args.variant:
        cfg.variant = args.variant
    dims = cfg.dims
    if args.n_prompts is not None:
        dims = replace(dims, n=args.n_prompts)
    if args.insert_layer is not None:
        dims = replace(dims, insert_layer=args.insert_layer)
    cfg.dims = dims
    mapper_cfg = MapperConfig(
        input_mode=args.mapper_input or cfg.mapper.input_mode,
        n=dims.n,
        hidden=cfg.mapper.hidden,
    )
    cfg.mapper = mapper_cfg
    model = init_frozen_model(cfg.seed, dims, cfg.variant, mapper_cfg)
    ckpt_dir = os.path.join(cfg.out_dir, "checkpoint")
    storage.save_checkpoint(ckpt_dir, model)
    _emit_config(cfg.out_dir, cfg)
    _status("init-model", cfg, variant=cfg.variant, checkpoint=ckpt_dir,
            tensors=len(list(model.iter_tensors())))
    return EXIT_OK


def cmd_embed_gallery(args) -> int:
    cfg = _load_config(args)
    model = storage.load_checkpoint(args.model)
    ds = storage.read_dataset(args.data)
    store = embed_gallery(model, ds)
    store_dir = os.path.join(cfg.out_dir, "gallery")
    storage.write_store(store_dir, store)
    _emit_config(cfg.out_dir, cfg)
    _status("embed-gallery", cfg, gallery=store_dir, size=len(store.ids))
    return EXIT_OK


def cmd_curate_mine(args) -> int:
    cfg = _load_config(args)
    model = storage.load_checkpoint(args.model)
    ds = storage.read_dataset(args.data)
    plan = mine_hard_batches(ds, model, args.batch_size, args.unique_category)
    plan_path = os.path.join(cfg.out_dir, "plan.json")
    storage.write_plan(plan_path, plan)
    _emit_config(cfg.out_dir, cfg)
    _status("curate-mine", cfg, plan=plan_path, batches=len(plan.batches),
            batch_size=args.batch_size)
    return EXIT_OK


def cmd_curate_select(args) -> int:
    cfg = _load_config(args)
    model = storage.load_checkpoint(args.model)
    ds = storage.read_dataset(args.data)
    plan = storage.read_plan(args.plan)
    reference = copy_without_prompts(model)
    selected = select_by_learnability(
        plan, ds, model, reference, args.fraction, args.conditioning
    )
    plan_path = os.path.join(cfg.out_dir, "plan.json")
    storage.write_plan(plan_path, selected)
    _emit_config(cfg.out_dir, cfg)
    _status("curate-select", cfg, plan=plan_path, kept=len(selected.batches),
            fraction=args.fraction)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    model = storage.load_checkpoint(args.model)
    ds = storage.read_dataset(args.data)
    plan = storage.read_plan(args.plan)
    tc = cfg.train
    tc = replace(
        tc,
        variant=model.variant,
        seed=cfg.seed,
        steps=args.steps if args.steps is not None else tc.steps,
        lr=args.lr if args.lr is not None else tc.lr,
        conditioning=args.conditioning or tc.conditioning,
        finetune_itm=args.finetune_itm or tc.finetune_itm,
        jest_fraction=args.jest_fraction if args.jest_fraction is not None else tc.jest_fraction,
        subset_fraction=args.subset_fraction if args.subset_fraction is not None else tc.subset_fraction,
        ckpt_interval=args.ckpt_interval if args.ckpt_interval is not None else tc.ckpt_interval,
    )
    cfg.train = tc
    cfg.variant = model.variant

    def hook(step, m):
        if step == tc.steps:
            storage.save_checkpoint(os.path.join(cfg.out_dir, "checkpoint"), m)
        else:
            storage.save_checkpoint(
                os.path.join(cfg.out_dir, f"checkpoint-step{step}"), m
            )

    model, trace = train(model, ds, plan, tc, checkpoint_hook=hook)
    storage.write_trace_csv(os.path.join(cfg.out_dir, "trace.csv"), trace)
    _emit_config(cfg.out_dir, cfg)
    _status("train", cfg, steps=tc.steps, lr=tc.resolved_lr(),
            final_loss=trace[-1], checkpoint=os.path.join(cfg.out_dir, "checkpoint"))
    return EXIT_OK


def cmd_rank(args) -> int:
    cfg = _load_config(args)
    model = storage.load_checkpoint(args.model)
    store = storage.read_store(args.gallery)
    bench = storage.read_benchmark(args.bench, store.ids)
    rankings = rank_queries(model, store, bench)
    path = os.path.join(cfg.out_dir, "rankings.json")
    storage.write_rankings(path, rankings)
    _emit_config(cfg.out_dir, cfg)
    _status("rank", cfg, rankings=path, queries=len(rankings))
    return EXIT_OK


def cmd_rerank(args) -> int:
    cfg = _load_config(args)
    model = storage.load_checkpoint(args.model)
    ds = storage.read_dataset(args.data)
    rankings = storage.read_rankings(args.rankings)
    gallery_ids = [image_id for image_id, _ in rankings[0].entries] if rankings else []
    bench = storage.read_benchmark(args.bench, gallery_ids)
    k = args.k if args.k is not None else cfg.rerank_k
    cfg.rerank_k = k
    reranked = rerank_queries(model, ds, rankings, bench, k, args.itm_sigmoid)
    path = os.path.join(cfg.out_dir, "rankings.json")
    storage.write_rankings(path, reranked)
    _emit_config(cfg.out_dir, cfg)
    _status("rerank", cfg, rankings=path, k=k, queries=len(reranked))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    rankings = storage.read_rankings(args.rankings)
    if not rankings:
        raise DataError(f"no rankings in {args.rankings}")
    gallery_ids = [image_id for image_id, _ in rankings[0].entries]
    bench = storage.read_benchmark(args.bench, gallery_ids)
    report = evaluate(rankings, bench)
    path = os.path.join(cfg.out_dir, "metrics.csv")
    storage.write_metrics_csv(path, report)
    _emit_config(cfg.out_dir, cfg)
    _status("eval", cfg, metrics=path, queries=report.query_count,
            **{k.replace("@", "_at_"): v for k, v in report.aggregate.items()})
    return EXIT_OK


def cmd_curve(args) -> int:
    cfg = _load_config(args)
    rankings = storage.read_rankings(args.rankings)
    if not rankings:
        raise DataError(f"no rankings in {args.rankings}")
    gallery_ids = [image_id for image_id, _ in rankings[0].entries]
    bench = storage.read_benchmark(args.bench, gallery_ids)
    ks = _parse_int_list(args.ks) if args.ks else None
    data = curve(rankings, bench, args.kind, ks)
    path = os.path.join(cfg.out_dir, "curve.csv")
    storage.write_curve_csv(path, data)
    _emit_config(cfg.out_dir, cfg)
    _status("curve", cfg, curve=path, kind=args.kind, points=len(data.points))
    return EXIT_OK


def cmd_attn(args) -> int:
    cfg = _load_config(args)
    model = storage.load_checkpoint(args.model)
    ds = storage.read_dataset(args.data)
    record = ds.by_id(args.record)
    text_enc = None
    if args.tokens:
        text_enc = encode_text(model, _parse_int_list(args.tokens))
    elif args.bench is not None:
        bench = storage.read_benchmark(args.bench, [r.id for r in ds.records])
        if not 0 <= args.query_index < len(bench.queries):
            raise ConfigError(f"query index {args.query_index} out of range")
        text_enc = encode_text(model, bench.queries[args.query_index].text_tokens)
    amap = attention_map(model, record, text_enc, args.mode)
    path = os.path.join(cfg.out_dir, "attn.csv")
    storage.write_attn_csv(path, amap.grid)
    _emit_config(cfg.out_dir, cfg)
    _status("attn", cfg, attn=path, mode=args.mode,
            rows=amap.grid.shape[0], cols=amap.grid.shape[1],
            patch_mass=amap.patch_mass)
    return EXIT_OK


def cmd_flops(args) -> int:
    cfg = _load_config(args)
    if args.model:
        model = storage.load_checkpoint(args.model)
        dims = model.dims
        hidden = model.mapper_cfg.hidden
    else:
        dims = cfg.dims
        hidden = cfg.mapper.hidden or 4 * dims.d_v
    with_prompts = estimate_flops(dims, True, hidden)
    without = estimate_flops(dims, False, hidden)
    doc = {
        "flops_with_prompts": with_prompts,
        "flops_without_prompts": without,
        "delta": with_prompts - without,
        "n": dims.n,
    }
    storage.atomic_write_text(
        os.path.join(cfg.out_dir, "flops.json"),
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )
    _emit_config(cfg.out_dir, cfg)
    _status("flops", cfg, **doc)
    return EXIT_OK


def cmd_bench_occluded(args) -> int:
    cfg = _load_config(args)
    ds = storage.read_dataset(args.data)
    if args.vocab:
        vocab = storage.read_vocab(args.vocab)
    elif ds.vocab is not None:
        vocab = ds.vocab
    else:
        raise DataError("no tokenizer table: pass --vocab or ship vocab.json with the data")
    category_vocabulary = {
        word: [token_id] for word, token_id in sorted(vocab.items()) if token_id != 0
    }
    bench, dropped = build_occluded_benchmark(ds, category_vocabulary)
    path = os.path.join(cfg.out_dir, "benchmark-occluded.json")
    storage.write_benchmark(path, bench)
    _emit_config(cfg.out_dir, cfg)
    _status("bench-occluded", cfg, benchmark=path, queries=len(bench.queries),
            dropped=len(dropped))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elip",
        description="Deterministic text-guided visual-prompt re-ranking pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="RunConfig JSON path")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("gen-synth", help="generate the planted synthetic dataset")
    common(p)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--clusters", type=int, default=20)
    p.add_argument("--signal-strength", type=float, default=SynthSpec.signal_strength)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("init-model", help="draw a frozen model bundle")
    common(p)
    p.add_argument("--variant", choices=("C", "S", "B"))
    p.add_argument("--n-prompts", type=int)
    p.add_argument("--insert-layer", type=int)
    p.add_argument("--mapper-input", choices=("cls", "dense_mean"))
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("embed-gallery", help="frozen image embeddings for stage 1")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_embed_gallery)

    p = sub.add_parser("curate-mine", help="global hard sample mining")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch-size", type=int, default=40)
    p.add_argument("--unique-category", action="store_true")
    p.set_defaults(func=cmd_curate_mine)

    p = sub.add_parser("curate-select", help="learnability-based batch selection")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--fraction", type=float, default=0.10)
    p.add_argument("--conditioning", choices=("per_row", "diagonal"), default="per_row")
    p.set_defaults(func=cmd_curate_select)

    p = sub.add_parser("train", help="train the mapping network")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--conditioning", choices=("per_row", "diagonal"))
    p.add_argument("--finetune-itm", action="store_true")
    p.add_argument("--jest-fraction", type=float)
    p.add_argument("--subset-fraction", type=float)
    p.add_argument("--ckpt-interval", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="stage-1 ranking for every benchmark query")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--bench", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("rerank", help="prompt-conditioned top-k re-ranking")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--rankings", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--itm-sigmoid", action="store_true")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="Recall@k and mAP over rankings")
    common(p)
    p.add_argument("--rankings", required=True)
    p.add_argument("--bench", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", help="recall-top-k or precision-recall curve")
    common(p)
    p.add_argument("--rankings", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--kind", choices=("recall_topk", "precision_recall"),
                   default="recall_topk")
    p.add_argument("--ks", help="comma-separated k sweep for recall_topk")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("attn", help="CLS->patch or ITM-query attention map")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--mode", choices=("cls", "itm_query"), default="cls")
    p.add_argument("--tokens", help="comma-separated query token ids")
    p.add_argument("--bench")
    p.add_argument("--query-index", type=int, default=0)
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser("flops", help="forward-FLOPs estimate with/without prompts")
    common(p)
    p.add_argument("--model")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bench-occluded", help="build the occluded-category benchmark")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab")
    p.set_defaults(func=cmd_bench_occluded)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the CLI contract says 1.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"command": args.command, "status": "error", "error": str(exc)},
            sort_keys=True) + "\n")
        return EXIT_USAGE
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"command": args.command, "status": "error", "error": str(exc)},
            sort_keys=True) + "\n")
        return EXIT_DATA
    except NumericError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"command": args.command, "status": "error", "error": str(exc)},
            sort_keys=True) + "\n")
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

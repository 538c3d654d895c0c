"""Command-line surface.

run_command owns every command's bookkeeping: it loads the run config and
calls `cmd_x(args, cfg)`, which writes its artifacts under --out and returns
its status fields. On success run_command writes resolved-config.json and
prints one JSON status line ("status": "ok", the seed and those fields), exit
0. On failure it prints one "status": "error" line and an `error:` message to
stderr, writes no resolved-config.json, removes the --out directories it made
that are still empty, and exits 1 on usage/config errors, 2 on data/format
errors (an input that cannot be read, an --out that cannot be created or
written, named by path, and inputs too large to allocate included), 3 on
numeric errors.

The run config is the --config file (RunConfig defaults without one), then
ELIP_SEED, then each flag that is not None: a flag sets the config field
its argparse dest names (`--steps` has dest `train.steps`). _load_config
alone applies that rule, so a command reads its settings from cfg and
resolved-config.json replays its run. Any other dest, --out (default "out")
included, is the command's own input, so no artifact records it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields, replace

from . import storage
from .config import CONDITIONINGS, MAPPER_INPUTS, VARIANTS, RunConfig, SynthSpec
from .curation import (
    build_occluded_benchmark,
    gen_synthetic_dataset,
    mine_hard_batches,
    select_by_learnability,
)
from .encoders import copy_without_prompts, encode_text, init_frozen_model
from .errors import ConfigError, DataError, NumericError
from .retrieval import (
    ATTENTION_MODES,
    CURVE_KINDS,
    attention_map,
    curve,
    embed_gallery,
    encode_queries,
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
_EXIT_CODES = {ConfigError: EXIT_USAGE, DataError: EXIT_DATA, OSError: EXIT_DATA,
               MemoryError: EXIT_DATA, NumericError: EXIT_NUMERIC}


def _load_config(args) -> RunConfig:
    cfg = storage.read_config(args.config) if args.config else RunConfig()
    env_seed = os.environ.get("ELIP_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"ELIP_SEED must be an integer, got {env_seed!r}") from exc
    config_fields = {f.name for f in fields(RunConfig)}
    for dest, value in vars(args).items():
        path = dest.split(".")
        if value is None or path[0] not in config_fields:
            continue
        node = cfg
        for name in path[:-1]:
            node = getattr(node, name)
        if isinstance(node, dict):
            node[path[-1]] = value
        else:
            setattr(node, path[-1], value)
    return cfg


def _load_model_and_data(args) -> tuple:
    """The --model checkpoint and the --data manifest, checked against each
    other: every record's patches must have the model's (P, d_in) shape."""
    model = storage.load_checkpoint(args.model)
    ds = storage.read_dataset(args.data)
    expected = (model.dims.P, model.dims.d_in)
    for rec in ds.records:
        if rec.patches.shape != expected:
            raise DataError(
                f"{args.data}: record {rec.id!r} has patches of shape "
                f"{rec.patches.shape}, the model at {args.model} expects {expected}"
            )
    return model, ds


def _load_rankings_and_bench(args) -> tuple:
    """The --rankings file, and the --bench file over the rankings' gallery."""
    rankings = storage.read_rankings(args.rankings)
    if not rankings:
        raise DataError(f"no rankings in {args.rankings}")
    return rankings, storage.read_benchmark(args.bench, rankings[0].ranked_ids())


def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_synth(args, cfg: RunConfig) -> dict:
    spec = SynthSpec(**cfg.synth, P=cfg.dims.P, d_in=cfg.dims.d_in, m=cfg.dims.m)
    needed_vocab = 1 + spec.clusters + -(-spec.N // spec.clusters)
    if needed_vocab > cfg.dims.vocab:
        raise ConfigError(
            f"dataset needs {needed_vocab} token ids but dims.vocab is "
            f"{cfg.dims.vocab}; raise vocab or lower clusters/N"
        )
    cfg.synth = {"N": spec.N, "clusters": spec.clusters,
                 "signal_strength": spec.signal_strength}
    ds, bench = gen_synthetic_dataset(cfg.seed, spec)
    manifest = storage.write_dataset(args.out_dir, ds)
    bench_path = os.path.join(args.out_dir, "benchmark.json")
    storage.write_benchmark(bench_path, bench)
    return dict(records=ds.N, clusters=spec.clusters, manifest=manifest,
                benchmark=bench_path)


def cmd_init_model(args, cfg: RunConfig) -> dict:
    model = init_frozen_model(cfg.seed, cfg.dims, cfg.variant, cfg.mapper)
    ckpt_dir = os.path.join(args.out_dir, "checkpoint")
    storage.save_checkpoint(ckpt_dir, model)
    return dict(variant=cfg.variant, checkpoint=ckpt_dir,
                tensors=len(list(model.iter_tensors())))


def cmd_embed_gallery(args, cfg: RunConfig) -> dict:
    model, ds = _load_model_and_data(args)
    store = embed_gallery(model, ds)
    store_dir = os.path.join(args.out_dir, "gallery")
    storage.write_store(store_dir, store)
    return dict(gallery=store_dir, size=len(store.ids))


def cmd_curate_mine(args, cfg: RunConfig) -> dict:
    model, ds = _load_model_and_data(args)
    plan = mine_hard_batches(ds, model, args.batch_size, args.unique_category)
    plan_path = os.path.join(args.out_dir, "plan.json")
    storage.write_plan(plan_path, plan)
    return dict(plan=plan_path, batches=len(plan.batches), batch_size=args.batch_size)


def cmd_curate_select(args, cfg: RunConfig) -> dict:
    model, ds = _load_model_and_data(args)
    plan = storage.read_plan(args.plan)
    reference = copy_without_prompts(model)
    selected = select_by_learnability(
        plan, ds, model, reference, args.fraction, args.conditioning
    )
    plan_path = os.path.join(args.out_dir, "plan.json")
    storage.write_plan(plan_path, selected)
    return dict(plan=plan_path, kept=len(selected.batches), fraction=args.fraction)


def cmd_train(args, cfg: RunConfig) -> dict:
    model, ds = _load_model_and_data(args)
    plan = storage.read_plan(args.plan)
    cfg.train = tc = replace(cfg.train, variant=model.variant, seed=cfg.seed)
    cfg.variant = model.variant

    def hook(step, m):
        if step == tc.steps:
            storage.save_checkpoint(os.path.join(args.out_dir, "checkpoint"), m)
        else:
            storage.save_checkpoint(
                os.path.join(args.out_dir, f"checkpoint-step{step}"), m
            )

    model, trace = train(model, ds, plan, tc, checkpoint_hook=hook)
    storage.write_trace_csv(os.path.join(args.out_dir, "trace.csv"), trace)
    return dict(steps=tc.steps, lr=tc.resolved_lr(), final_loss=trace[-1],
                checkpoint=os.path.join(args.out_dir, "checkpoint"))


def cmd_rank(args, cfg: RunConfig) -> dict:
    model = storage.load_checkpoint(args.model)
    store = storage.read_store(args.gallery)
    if store.matrix.shape[1] != model.dims.d_e:
        raise DataError(
            f"{args.gallery}: store embeddings have width {store.matrix.shape[1]}, "
            f"the model at {args.model} has d_e={model.dims.d_e}"
        )
    bench = storage.read_benchmark(args.bench, store.ids)
    queries = encode_queries(model, bench)
    rankings = rank_queries(store, queries)
    path = os.path.join(args.out_dir, "rankings.json")
    storage.write_rankings(path, rankings)
    storage.write_queries(args.out_dir, model, bench, queries)
    return dict(rankings=path, queries=len(rankings))


def cmd_rerank(args, cfg: RunConfig) -> dict:
    model, ds = _load_model_and_data(args)
    rankings, bench = _load_rankings_and_bench(args)
    k = cfg.rerank_k
    # the encodings `rank` kept beside the rankings, when they are this
    # backbone's encodings of these query tokens
    queries = storage.read_queries(os.path.dirname(args.rankings), model, bench)
    if queries is None:
        queries = encode_queries(model, bench)
    reranked = rerank_queries(model, ds, rankings, queries, k, args.itm_sigmoid)
    path = os.path.join(args.out_dir, "rankings.json")
    storage.write_rankings(path, reranked)
    return dict(rankings=path, k=k, queries=len(reranked))


def cmd_eval(args, cfg: RunConfig) -> dict:
    rankings, bench = _load_rankings_and_bench(args)
    report = evaluate(rankings, bench)
    path = os.path.join(args.out_dir, "metrics.csv")
    storage.write_metrics_csv(path, report)
    return dict(metrics=path, queries=report.query_count,
                **{k.replace("@", "_at_"): v for k, v in report.aggregate.items()})


def cmd_curve(args, cfg: RunConfig) -> dict:
    rankings, bench = _load_rankings_and_bench(args)
    ks = _parse_int_list(args.ks) if args.ks else None
    data = curve(rankings, bench, args.kind, ks)
    path = os.path.join(args.out_dir, "curve.csv")
    storage.write_curve_csv(path, data)
    return dict(curve=path, kind=args.kind, points=len(data.points))


def cmd_attn(args, cfg: RunConfig) -> dict:
    model, ds = _load_model_and_data(args)
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
    path = os.path.join(args.out_dir, "attn.csv")
    storage.write_attn_csv(path, amap.grid)
    return dict(attn=path, mode=args.mode, rows=amap.grid.shape[0],
                cols=amap.grid.shape[1], patch_mass=amap.patch_mass)


def cmd_flops(args, cfg: RunConfig) -> dict:
    if args.model:
        model = storage.load_checkpoint(args.model)
        dims, mapper = model.dims, model.mapper_cfg
    else:
        dims, mapper = cfg.dims, cfg.mapper
    hidden = mapper.hidden_width(dims.d_v)
    with_prompts = estimate_flops(dims, True, hidden)
    without = estimate_flops(dims, False, hidden)
    doc = {
        "flops_with_prompts": with_prompts,
        "flops_without_prompts": without,
        "delta": with_prompts - without,
        "n": dims.n,
    }
    storage.write_json(os.path.join(args.out_dir, "flops.json"), doc)
    return doc


def cmd_bench_occluded(args, cfg: RunConfig) -> dict:
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
    path = os.path.join(args.out_dir, "benchmark-occluded.json")
    storage.write_benchmark(path, bench)
    return dict(benchmark=path, queries=len(bench.queries), dropped=len(dropped))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elip",
        description="Deterministic text-guided visual-prompt re-ranking pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *required_inputs):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="RunConfig JSON path")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", dest="out_dir", default="out", help="output directory")
        for flag in required_inputs:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        return p

    p = command("gen-synth", cmd_gen_synth, "generate the planted synthetic dataset")
    p.add_argument("--n", dest="synth.N", type=int)
    p.add_argument("--clusters", dest="synth.clusters", type=int)
    p.add_argument("--signal-strength", dest="synth.signal_strength", type=float)

    p = command("init-model", cmd_init_model, "draw a frozen model bundle")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--n-prompts", dest="dims.n", type=int)
    p.add_argument("--insert-layer", dest="dims.insert_layer", type=int)
    p.add_argument("--mapper-input", dest="mapper.input_mode", choices=MAPPER_INPUTS)

    command("embed-gallery", cmd_embed_gallery, "frozen image embeddings for stage 1",
            "--model", "--data")

    p = command("curate-mine", cmd_curate_mine, "global hard sample mining", "--model", "--data")
    p.add_argument("--batch-size", type=int, default=40)
    p.add_argument("--unique-category", action="store_true")

    p = command("curate-select", cmd_curate_select, "learnability-based batch selection",
                "--model", "--data", "--plan")
    p.add_argument("--fraction", type=float, default=0.10)
    p.add_argument("--conditioning", choices=CONDITIONINGS, default="per_row")

    p = command("train", cmd_train, "train the mapping network", "--model", "--data", "--plan")
    p.add_argument("--steps", dest="train.steps", type=int)
    p.add_argument("--lr", dest="train.lr", type=float)
    p.add_argument("--conditioning", dest="train.conditioning", choices=CONDITIONINGS)
    p.add_argument("--finetune-itm", dest="train.finetune_itm", action="store_true",
                   default=None)
    p.add_argument("--jest-fraction", dest="train.jest_fraction", type=float)
    p.add_argument("--subset-fraction", dest="train.subset_fraction", type=float)
    p.add_argument("--ckpt-interval", dest="train.ckpt_interval", type=int)

    command("rank", cmd_rank, "stage-1 ranking for every benchmark query",
            "--model", "--gallery", "--bench")

    p = command("rerank", cmd_rerank, "prompt-conditioned top-k re-ranking",
                "--model", "--data", "--bench", "--rankings")
    p.add_argument("--k", dest="rerank_k", type=int)
    p.add_argument("--itm-sigmoid", action="store_true")

    command("eval", cmd_eval, "Recall@k and mAP over rankings", "--rankings", "--bench")

    p = command("curve", cmd_curve, "recall-top-k or precision-recall curve",
                "--rankings", "--bench")
    p.add_argument("--kind", choices=CURVE_KINDS, default="recall_topk")
    p.add_argument("--ks", help="comma-separated k sweep for recall_topk")

    p = command("attn", cmd_attn, "CLS->patch or ITM-query attention map",
                "--model", "--data", "--record")
    p.add_argument("--mode", choices=ATTENTION_MODES, default="cls")
    p.add_argument("--tokens", help="comma-separated query token ids")
    p.add_argument("--bench")
    p.add_argument("--query-index", type=int, default=0)

    p = command("flops", cmd_flops, "forward-FLOPs estimate with/without prompts")
    p.add_argument("--model")

    p = command("bench-occluded", cmd_bench_occluded, "build the occluded-category benchmark",
                "--data")
    p.add_argument("--vocab")

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the CLI contract says 1.
        return EXIT_USAGE if exc.code else EXIT_OK
    created = []  # deepest first
    try:
        cfg = _load_config(args)
        if not args.out_dir:
            raise ConfigError("--out must name a directory, got ''")
        path = os.path.abspath(args.out_dir)
        while not os.path.lexists(path):
            created.append(path)
            path = os.path.dirname(path)
        os.makedirs(args.out_dir, exist_ok=True)
        fields = args.func(args, cfg)
        storage.write_json(os.path.join(args.out_dir, "resolved-config.json"), asdict(cfg))
    except tuple(_EXIT_CODES) as exc:
        for path in created:  # rmdir refuses a directory that holds anything
            with contextlib.suppress(OSError):
                os.rmdir(path)
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"command": args.command, "status": "error", "error": str(exc)},
            sort_keys=True) + "\n")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    sys.stdout.write(json.dumps(
        {"command": args.command, "status": "ok", "seed": cfg.seed, **fields},
        sort_keys=True) + "\n")
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

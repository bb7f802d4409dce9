"""Operator entry point.

  semsr ingest  --config run.cfg          preprocess + split + manifest
  semsr train   --config run.cfg          fit a variant, save checkpoint
  semsr eval    --config run.cfg          Recall/MRR report (+ candidates)
  semsr rerank  --config run.cfg          re-rank candidates with a second model
  semsr prompt  --config run.cfg          LLM-baseline evaluation

Exit codes: 0 success, 1 computation failure, 2 usage or IO error.
"""

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import dataset as ds
from .config import RunConfig, load_config
from .embeddings import SemanticItemTable, load_semantic_table, pseudo_semantic_table
from .errors import DataError, SemsrError
from .llm import HttpClient, MockClient, build_fewshot_strategy, build_title_index, load_templates, recommend_via_llm
from .metrics import evaluate, recall_at_k, rr_at_k, write_report
from .model import init_model, load_checkpoint, rank_examples, save_checkpoint, score_all
from .retrieval import read_candidates, rerank, write_candidates
from .train import TrainingDiverged, fit


def _require(path, what: str) -> Path:
    if path is None:
        raise DataError(f"{what} is not configured")
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} not found: {p}")
    return p


def _load_data_dir(cfg: RunConfig):
    data_dir = _require(cfg.data_dir, "data_dir")
    catalog = ds.load_catalog(data_dir / "catalog.json")
    splits = {name: ds.load_sessions(data_dir / f"{name}.jsonl", split=name) for name in ds.SPLITS}
    return catalog, splits


def _semantic_table(cfg: RunConfig, catalog, d2: int) -> SemanticItemTable:
    if cfg.semantic_path:
        return load_semantic_table(_require(cfg.semantic_path, "semantic_path"), catalog)
    return pseudo_semantic_table(catalog, d2)


def _clamped_ks(cfg: RunConfig, n: int):
    return tuple(min(k, n) for k in cfg.ks)


def cmd_ingest(cfg: RunConfig) -> int:
    sessions = ds.ingest_sessions(_require(cfg.sessions_path, "sessions_path"))
    metadata = ds.load_metadata(_require(cfg.metadata_path, "metadata_path"))
    catalog, processed = ds.preprocess(sessions, metadata, cfg.min_item_freq, cfg.min_session_len)
    train, val, test = ds.split_by_user(processed, cfg.ratios, cfg.seed)
    splits = {"train": train, "val": val, "test": test}

    out = Path(cfg.data_dir or cfg.out_dir or "data")
    out.mkdir(parents=True, exist_ok=True)
    ds.save_catalog(out / "catalog.json", catalog)
    for name, part in splits.items():
        ds.save_sessions(out / f"{name}.jsonl", part)
    manifest = ds.dataset_manifest(catalog, splits, cfg.seed)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    print(f"items: {manifest['n_items']}")
    print(f"sessions: train={manifest['n_train']} val={manifest['n_val']} test={manifest['n_test']}")
    print(
        "examples: "
        f"train={manifest['n_train_examples']} val={manifest['n_val_examples']} test={manifest['n_test_examples']}"
    )
    print(f"avg session length: {manifest['avg_session_len']:.4f}")
    print(f"wrote dataset to {out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    catalog, splits = _load_data_dir(cfg)
    train_examples = ds.expand_incremental(splits["train"])
    val_examples = ds.expand_incremental(splits["val"]) if splits["val"] else []

    semantic = None
    d2 = cfg.d2
    if cfg.variant in ("sem-i", "sem-f") or cfg.init == "semantic-projected":
        semantic = _semantic_table(cfg, catalog, cfg.d2)
        d2 = semantic.d2
    params = init_model(
        cfg.variant, catalog.n, cfg.d1, d2, cfg.d, cfg.seed,
        scale=cfg.scale, backbone=cfg.backbone, init_mode=cfg.init, semantic=semantic,
    )
    out = Path(cfg.out_dir or "run")
    out.mkdir(parents=True, exist_ok=True)
    fit_semantic = semantic if cfg.variant == "sem-f" else None
    try:
        best, history = fit(
            train_examples, val_examples, params, fit_semantic,
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
            beta1=cfg.beta1, beta2=cfg.beta2, epsilon=cfg.epsilon,
            patience=cfg.patience, seed=cfg.seed, val_k=cfg.val_k,
        )
    except TrainingDiverged as exc:
        save_checkpoint(out / "checkpoint", exc.params)
        (out / "history.json").write_text(json.dumps(exc.history, sort_keys=True, indent=2) + "\n")
        print(f"error: training diverged ({exc}); last good checkpoint retained", file=sys.stderr)
        return 1
    save_checkpoint(out / "checkpoint", best)
    (out / "history.json").write_text(json.dumps(history, sort_keys=True, indent=2) + "\n")
    if semantic is not None:
        (out / "semantic.fingerprint").write_text(semantic.fingerprint + "\n")
    last = history[-1] if history else {}
    print(f"trained {cfg.variant} for {len(history)} epochs; final train loss {last.get('train_loss', float('nan')):.4f}")
    if "val_recall" in last:
        print(f"best val recall@{last['val_k']}: {max(h['val_recall'] for h in history):.4f}")
    print(f"checkpoint: {out / 'checkpoint'}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    params = load_checkpoint(_require(cfg.checkpoint, "checkpoint"))
    catalog, splits = _load_data_dir(cfg)
    examples = ds.expand_incremental(splits["test"])
    if not examples:
        raise DataError("empty test split")
    semantic = _semantic_table(cfg, catalog, params.d2) if params.variant == "sem-f" else None
    ks = _clamped_ks(cfg, catalog.n)
    k_max = max(ks)
    ranked = rank_examples(params, semantic, examples, k_max)
    result = evaluate(ranked, [ex.target for ex in examples], ks)
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "report.json", result, extra={"variant": params.variant, "seed": cfg.seed})
    if cfg.dump_candidates:
        write_candidates(cfg.dump_candidates, ranked)
        print(f"candidates: {cfg.dump_candidates}")
    print(result.render_text())
    print(f"report: {out / 'report.json'}")
    return 0


def cmd_rerank(cfg: RunConfig) -> int:
    candidates = read_candidates(_require(cfg.candidates, "candidates"))
    ranker = load_checkpoint(_require(cfg.ranker_checkpoint, "ranker_checkpoint"))
    catalog, splits = _load_data_dir(cfg)
    examples = ds.expand_incremental(splits["test"])
    if len(candidates) != len(examples):
        raise DataError(f"{len(candidates)} candidate lists but {len(examples)} test examples")
    semantic = _semantic_table(cfg, catalog, ranker.d2) if ranker.variant == "sem-f" else None
    ks = _clamped_ks(cfg, catalog.n)

    per_k = {}
    for k in ks:
        if any(len(c) < k for c in candidates):
            raise DataError(f"candidate lists shorter than K={k}")
    ranker_scores = [score_all(ex.prefix, ranker, semantic) for ex in examples]
    for k in ks:
        rec_before, rec_after, rr_after, rr_before = [], [], [], []
        for ex, cand, scores in zip(examples, candidates, ranker_scores):
            reranked = rerank(cand, scores, k)
            rec_before.append(recall_at_k(cand, ex.target, k))
            rec_after.append(recall_at_k(reranked, ex.target, k))
            rr_before.append(rr_at_k(cand, ex.target, k))
            rr_after.append(rr_at_k(reranked, ex.target, k))
        if rec_before != rec_after:
            raise SemsrError(f"re-ranking changed recall at K={k}; candidate handling is broken")
        m = len(examples)
        per_k[str(k)] = {
            "recall": sum(rec_after) / m,
            "mrr": sum(rr_after) / m,
            "mrr_before": sum(rr_before) / m,
        }
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    payload = {"K": per_k, "n_examples": len(examples), "ranker_variant": ranker.variant, "seed": cfg.seed}
    (out / "rerank_report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for k in ks:
        row = per_k[str(k)]
        print(f"K={k}: recall={row['recall']:.4f} mrr={row['mrr_before']:.4f} -> {row['mrr']:.4f}")
    print(f"report: {out / 'rerank_report.json'}")
    return 0


def cmd_prompt(cfg: RunConfig) -> int:
    catalog, splits = _load_data_dir(cfg)
    examples = ds.expand_incremental(splits["test"])
    if not examples:
        raise DataError("empty test split")
    strategy = build_fewshot_strategy(cfg.strategy, splits["train"], catalog, cfg.shots, cfg.seed)
    if cfg.mock_responses:
        client = MockClient.from_file(cfg.mock_responses, default=cfg.mock_default)
    elif cfg.endpoint_url:
        client = HttpClient(cfg.endpoint_url, timeout=cfg.timeout, max_retries=cfg.max_retries)
    else:
        raise DataError("prompt command needs mock_responses or endpoint_url")
    index = build_title_index(catalog, cfg.d2)
    templates = load_templates(cfg.templates_dir)
    ks = _clamped_ks(cfg, catalog.n)
    k_max = max(ks)

    def run_one(ex):
        return recommend_via_llm(ex.prefix, catalog, client, strategy, index, k_max, templates=templates)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            ranked = list(pool.map(run_one, examples))
    else:
        ranked = [run_one(ex) for ex in examples]
    result = evaluate(ranked, [ex.target for ex in examples], ks)
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"prompt_report_{cfg.strategy}.json"
    write_report(report_path, result, extra={"strategy": cfg.strategy, "seed": cfg.seed})
    print(f"strategy: {cfg.strategy}")
    print(result.render_text())
    print(f"report: {report_path}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "eval": cmd_eval,
    "rerank": cmd_rerank,
    "prompt": cmd_prompt,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semsr", description="session-based recommendation engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config file (key = value lines)")
        p.add_argument("--seed", type=int)
        p.add_argument("--variant", choices=["base", "sem-i", "sem-f"])
        p.add_argument("--k", dest="ks", help="comma-separated cutoffs, e.g. 20,100")
        p.add_argument("--out", dest="out_dir")
        if name == "ingest":
            p.add_argument("--data-dir", dest="data_dir")
        if name == "eval":
            p.add_argument("--checkpoint")
            p.add_argument("--dump-candidates", dest="dump_candidates")
        if name == "rerank":
            p.add_argument("--candidates")
            p.add_argument("--ranker-checkpoint", dest="ranker_checkpoint")
        if name == "prompt":
            p.add_argument("--strategy", choices=["fs", "zcot", "fscot"])
            p.add_argument("--threads", type=int)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemsrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

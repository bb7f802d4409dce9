"""Operator entry point.

  semsr ingest  --config run.cfg          preprocess + split + manifest
  semsr train   --config run.cfg          fit a variant, save checkpoint
  semsr eval    --config run.cfg          Recall/MRR report (+ candidates)
  semsr rerank  --config run.cfg          re-rank candidates with a second model
  semsr prompt  --config run.cfg          LLM-baseline evaluation

Exit codes: 0 success, 1 computation failure, 2 usage or IO error.
"""

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import chain
from pathlib import Path

from . import dataset as ds
from .config import RunConfig, load_config
from .embeddings import SemanticItemTable, load_semantic_table, pseudo_semantic_table
from .errors import DataError, SemsrError
from .llm import HttpClient, MockClient, build_fewshot_strategy, build_title_index, load_templates, recommend_via_llm
from .metrics import EvalResult, evaluate, recall_at_k
from .model import Scorer, _write_checkpoint, init_model, load_checkpoint, scorer
from .retrieval import read_candidates, rerank, write_candidates
from .train import TrainingDiverged, fit


def _require(path, what: str) -> Path:
    if path is None:
        raise DataError(f"{what} is not configured")
    return Path(path)


def _load_data_dir(cfg: RunConfig, *names: str):
    """The catalog and the named splits, in order; no other file is opened."""
    data_dir = _require(cfg.data_dir, "data_dir")
    catalog = ds.load_catalog(data_dir / "catalog.json")
    return catalog, {name: ds.load_sessions(data_dir / f"{name}.jsonl", split=name, n=catalog.n) for name in names}


def _semantic_table(cfg: RunConfig, catalog, d2: int) -> SemanticItemTable:
    if cfg.semantic_path:
        return load_semantic_table(cfg.semantic_path, catalog)
    return pseudo_semantic_table(catalog, d2)


def _semantic_source(cfg: RunConfig) -> str:
    return cfg.semantic_path or "the pseudo-encoded semantic table"


def _checkpoint_scorer(cfg: RunConfig, path: Path, params, catalog) -> Scorer:
    """The scorer of the checkpoint at `path`, which must fit the catalog; for
    sem-f, `scorer` checks the configured semantic table against it."""
    if params.n != catalog.n:
        raise DataError(f"{path}: checkpoint has {params.n} items but the catalog has {catalog.n}")
    semantic = _semantic_table(cfg, catalog, params.d2) if params.variant == "sem-f" else None
    try:
        return scorer(params, semantic)
    except DataError as exc:  # only sem-f's pairing with its semantic table raises it
        raise DataError(f"{path / 'manifest.json'}: {exc}, from {_semantic_source(cfg)}") from None


def _test_set(cfg: RunConfig, *names: str):
    """The catalog, the named splits and the test split, the test examples
    and the configured Ks clamped to the catalog size (repeats dropped); an
    empty test split is an error."""
    catalog, splits = _load_data_dir(cfg, *names, "test")
    examples = ds.expand_incremental(splits["test"])
    if not examples:
        raise DataError("empty test split")
    return catalog, splits, examples, tuple(dict.fromkeys(min(k, catalog.n) for k in cfg.ks))


def _write_report(cfg: RunConfig, name: str, result: EvalResult, ranked=None, **extra) -> Path:
    """Write `result` with `extra` and the seed to <out>/<name>, and `ranked`
    to `dump_candidates` when both are set, in one `write_outputs` call."""
    report = Path(cfg.out_dir or ".") / name
    dump = cfg.dump_candidates if ranked is not None else None
    outputs = [(report, partial(ds.write_json, payload={**result.to_json_dict(), **extra, "seed": cfg.seed}))]
    if dump:
        outputs.append((dump, partial(write_candidates, ranked_lists=ranked)))
    ds.write_outputs(outputs)
    if dump:
        print(f"candidates: {dump}")
    return report


def cmd_ingest(cfg: RunConfig) -> int:
    sessions = ds.ingest_sessions(_require(cfg.sessions_path, "sessions_path"))
    metadata = ds.load_metadata(_require(cfg.metadata_path, "metadata_path"))
    catalog, processed = ds.preprocess(sessions, metadata, cfg.min_item_freq, cfg.min_session_len)
    train, val, test = ds.split_by_user(processed, cfg.ratios, cfg.seed)
    splits = {"train": train, "val": val, "test": test}

    out = Path(cfg.data_dir or cfg.out_dir or "data")
    manifest = ds.dataset_manifest(catalog, splits, cfg.seed)
    ds.write_outputs([
        (out / "catalog.json", partial(ds.save_catalog, catalog=catalog)),
        *((out / f"{name}.jsonl", partial(ds.save_sessions, sessions=part)) for name, part in splits.items()),
        (out / "manifest.json", partial(ds.write_json, payload=manifest)),
    ])

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
    catalog, splits = _load_data_dir(cfg, "train", "val")
    train_examples = ds.expand_incremental(splits["train"])
    val_examples = ds.expand_incremental(splits["val"])

    semantic = _semantic_table(cfg, catalog, cfg.d2) if cfg.variant != "base" else None
    d2 = semantic.d2 if semantic is not None else cfg.d2
    try:
        params = init_model(cfg.variant, catalog.n, cfg.d1, d2, cfg.d, cfg.seed, scale=cfg.scale, semantic=semantic)
    except DataError as exc:  # only the sem-i start from the semantic table raises it
        raise DataError(f"{exc}, from {_semantic_source(cfg)}") from None
    out = Path(cfg.out_dir or "run")
    diverged = None
    try:
        best, history = fit(
            train_examples, val_examples, params, semantic,
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
            patience=cfg.patience, seed=cfg.seed, val_k=cfg.val_k,
        )
    except TrainingDiverged as exc:
        diverged, best, history = exc, exc.params, exc.history
    ds.write_outputs([
        (out / "checkpoint", partial(_write_checkpoint, params=best)),
        (out / "history.json", partial(ds.write_json, payload=history)),
    ])
    if diverged is not None:
        print(f"error: training diverged ({diverged}); last good checkpoint retained", file=sys.stderr)
        return 1
    last = history[-1] if history else {}
    print(f"trained {cfg.variant} for {len(history)} epochs; final train loss {last.get('train_loss', float('nan')):.4f}")
    if "val_recall" in last:
        print(f"best val recall@{last['val_k']}: {max(h['val_recall'] for h in history):.4f}")
    print(f"checkpoint: {out / 'checkpoint'}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    path = _require(cfg.checkpoint, "checkpoint")
    params = load_checkpoint(path)
    catalog, _, examples, ks = _test_set(cfg)
    ranked = _checkpoint_scorer(cfg, path, params, catalog).rank(examples, max(ks))
    result = evaluate(ranked, [ex.target for ex in examples], ks)
    report = _write_report(cfg, "report.json", result, ranked, variant=params.variant)
    print(result.render_text())
    print(f"report: {report}")
    return 0


def cmd_rerank(cfg: RunConfig) -> int:
    catalog, _, examples, ks = _test_set(cfg)
    path = _require(cfg.candidates, "candidates")
    candidates = read_candidates(path, catalog.n)
    ranker_path = _require(cfg.ranker_checkpoint, "ranker_checkpoint")
    ranker = load_checkpoint(ranker_path)
    if len(candidates) != len(examples):
        raise DataError(f"{path}: {len(candidates)} candidate lists but {len(examples)} test examples")
    if any(len(c) < max(ks) for c in candidates):
        raise DataError(f"{path}: candidate lists shorter than K={max(ks)}")
    ranker_scorer = _checkpoint_scorer(cfg, ranker_path, ranker, catalog)

    # Ranker scores are consumed one chunk at a time; only the reranked heads are kept.
    reranked = {k: [] for k in ks}
    rows = chain.from_iterable(ranker_scorer.probabilities([ex.prefix for ex in examples]))
    for scores, cand, ex in zip(rows, candidates, examples):
        for k in ks:
            head = rerank(cand, scores, k)
            if recall_at_k(head, ex.target, k) != recall_at_k(cand, ex.target, k):
                raise SemsrError(f"re-ranking changed recall at K={k}; candidate handling is broken")
            reranked[k].append(head)
    targets = [ex.target for ex in examples]
    before = evaluate(candidates, targets, ks).per_k
    per_k = {k: {**evaluate(reranked[k], targets, (k,)).per_k[k], "mrr_before": before[k]["mrr"]} for k in ks}
    report = _write_report(cfg, "rerank_report.json", EvalResult(per_k, len(examples)), ranker_variant=ranker.variant)
    for k, v in per_k.items():
        print(f"K={k}: recall={v['recall']:.4f} mrr={v['mrr_before']:.4f} -> {v['mrr']:.4f}")
    print(f"report: {report}")
    return 0


def cmd_prompt(cfg: RunConfig) -> int:
    catalog, splits, examples, ks = _test_set(cfg, "train")
    strategy = build_fewshot_strategy(cfg.strategy, splits["train"], catalog, cfg.shots, cfg.seed)
    if cfg.mock_responses:
        client = MockClient.from_file(cfg.mock_responses, default=cfg.mock_default)
    elif cfg.endpoint_url:
        client = HttpClient(cfg.endpoint_url, timeout=cfg.timeout, max_retries=cfg.max_retries)
    else:
        raise DataError("prompt command needs mock_responses or endpoint_url")
    index = build_title_index(catalog, cfg.d2)
    templates = load_templates(cfg.templates_dir)
    k_max = max(ks)

    def run_one(ex):
        return recommend_via_llm(ex.prefix, catalog, client, strategy, index, k_max, templates=templates)

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        ranked = list(pool.map(run_one, examples))  # in example order for any thread count
    result = evaluate(ranked, [ex.target for ex in examples], ks)
    report = _write_report(cfg, f"prompt_report_{cfg.strategy}.json", result, ranked, strategy=cfg.strategy)
    print(f"strategy: {cfg.strategy}")
    print(result.render_text())
    print(f"report: {report}")
    return 0


# command -> (its function, the flags it reads besides --config)
_COMMANDS = {
    "ingest": (cmd_ingest, ("seed", "out", "data-dir")),
    "train": (cmd_train, ("seed", "variant", "out")),
    "eval": (cmd_eval, ("seed", "k", "out", "checkpoint", "dump-candidates")),
    "rerank": (cmd_rerank, ("seed", "k", "out", "candidates", "ranker-checkpoint")),
    "prompt": (cmd_prompt, ("seed", "k", "out", "dump-candidates", "strategy", "threads")),
}
_DEST = {"k": "ks", "out": "out_dir"}  # a flag's config key, where it is not the flag's own name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semsr", description="session-based recommendation engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config file (key = value lines)")
        for flag in flags:
            p.add_argument(f"--{flag}", dest=_DEST.get(flag, flag.replace("-", "_")),
                           help="comma-separated cutoffs, e.g. 20,100" if flag == "k" else None)
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
        return _COMMANDS[args.command][0](cfg)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemsrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

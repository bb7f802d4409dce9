"""What the benchmark takes from semsr. Its set-up (bench/run.py
`Run.setup`) indexes the expanded examples with the np.int64 ranks of
`spread_by_length`, reads `len(examples[i].prefix)`, and hands the picked
`Example` lists to `fit` and `rank_examples`. Its tracer (bench/tracing.py)
counts `encoder.rows` from the first argument of `attention_forward`. The
harness is imported the way tests/test_tracing.py imports the tracer."""

import sys
from pathlib import Path

import numpy as np

from helpers import make_catalog, make_semantic
from semsr import dataset as ds
from semsr import llm, model, train
from semsr.dataset import Example
from semsr.model import init_model, rank_examples
from semsr.train import fit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from test_cli import write_fixture_dataset  # noqa: E402


def test_expanded_examples_feed_the_bench_set_up(tmp_path):
    write_fixture_dataset(tmp_path)
    sessions = ds.ingest_sessions(tmp_path / "sessions.jsonl")
    metadata = ds.load_metadata(tmp_path / "items.jsonl")
    catalog, processed = ds.preprocess(sessions, metadata, min_item_freq=2, min_session_len=2)
    train_s, val_s, test_s = ds.split_by_user(processed, seed=1)
    train_ex, val_ex, test_ex = (ds.expand_incremental(part) for part in (train_s, val_s, test_s))
    assert min(len(train_ex), len(val_ex), len(test_ex)) > 0
    assert [train_ex[np.int64(i)] for i in range(len(train_ex))] == list(train_ex)

    rng = np.random.default_rng(1)
    train_sub = bench_run.spread_by_length(train_ex, 40, rng)
    val_sub = bench_run.spread_by_length(val_ex, 10, rng)
    for ex in train_sub + val_sub:
        assert type(ex) is Example and type(ex.target) is int
        assert type(ex.prefix) is list and all(type(i) is int for i in ex.prefix)

    strategy = llm.build_fewshot_strategy("fs", train_s, catalog, 3, 1)
    assert len(strategy.shots) == 3
    params = init_model("base", catalog.n, 4, 4, 4, seed=1)
    best, history = fit(train_sub, val_sub, params, epochs=1, batch_size=16, seed=1, val_k=5)
    assert np.isfinite(history[0]["train_loss"])
    assert len(rank_examples(best, None, val_sub, 5)) == len(val_sub)


def test_tracer_counts_packed_rows_of_the_semantic_attention():
    # 10 packed rows of 5 distinct items: the semantic forward projects each
    # distinct head item once, yet encoder.rows still counts every packed row
    semantic = make_semantic(make_catalog(6), 4)
    params = init_model("sem-f", 6, 3, 4, 3, seed=0, semantic=semantic)
    examples = [Example([2, 2, 5, 2], 1), Example([1, 1], 0), Example([3], 4), Example([4, 2, 4], 3)]
    packed = sum(len(ex.prefix) for ex in examples)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        model.rank_examples(params, semantic, examples, 3)
        train.loss_and_grad(examples, params, semantic)
    names = [span[0] for span in tracer.spans]
    assert names.count("encoder.semantic_fwd") == 2 and names.count("encoder.semantic_bwd") == 1
    # each of the two forwards encodes the batch twice: backbone and semantic view
    assert tracer.counts["encoder.calls"] == 4
    assert tracer.counts["encoder.rows"] == 4 * packed

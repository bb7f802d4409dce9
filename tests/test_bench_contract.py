"""What the benchmark's set-up (bench/run.py `Run.setup`) takes from the
dataset pipeline: it indexes the expanded examples with the np.int64
ranks of `spread_by_length`, reads `len(examples[i].prefix)`, and hands
the picked `Example` lists to `fit` and `rank_examples`. The harness is
imported the way tests/test_tracing.py imports the tracer."""

import sys
from pathlib import Path

import numpy as np

from semsr import dataset as ds
from semsr import llm
from semsr.dataset import Example
from semsr.model import init_model, rank_examples
from semsr.train import fit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run as bench_run  # noqa: E402
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

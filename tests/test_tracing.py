"""The benchmark's tracer (bench/tracing.py) patches semsr's functions by
module attribute; every name it patches must still resolve, see calls
where semsr still makes them, and be restored on exit."""

import sys
from pathlib import Path

import numpy as np

from helpers import make_catalog, make_semantic
from semsr import dataset, encoder, train
from semsr.dataset import Example
from semsr.model import init_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
from test_cli import write_fixture_dataset  # noqa: E402


def test_instrument_enters_traces_and_restores():
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in tracing._patches(tracing.Tracer())]
    backbone = encoder.get_backbone("attn-niser")
    semantic = make_semantic(make_catalog(9), 4)
    params = init_model("sem-f", 9, 3, 4, 3, seed=0, semantic=semantic)
    rng = np.random.default_rng(0)
    examples = [Example(prefix=[int(x) for x in rng.integers(0, 9, size=L)], target=1) for L in (1, 2, 4, 3)]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        train.fit(examples, examples[:2], params, semantic, epochs=1, batch_size=4, seed=0, val_k=5)
    names = {span[0] for span in tracer.spans}
    assert {
        "train.fit", "train.loss_and_grad", "train.adam", "model.item_side", "model.rank_examples",
        "model.top_k", "encoder.semantic_fwd", "encoder.semantic_bwd",
        "encoder.backbone_fwd", "encoder.backbone_bwd",
    } <= names
    # one packed call per encoder per training batch and per validation
    # chunk, over real rows only: 2 x (1+2+4+3) for training, 2 x (1+2) for validation
    assert tracer.counts["encoder.calls"] == 4 and tracer.counts["encoder.rows"] == 26
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    assert encoder.get_backbone("attn-niser") is backbone


def test_ingest_path_is_traced(tmp_path):
    """The set-up's ingest steps feed the bench's dataset.ingest_s and
    dataset.preprocess_s, which would read 0 if these spans went missing."""
    write_fixture_dataset(tmp_path)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        sessions = dataset.ingest_sessions(tmp_path / "sessions.jsonl")
        metadata = dataset.load_metadata(tmp_path / "items.jsonl")
        _, processed = dataset.preprocess(sessions, metadata, min_item_freq=2)
        train_part, _, _ = dataset.split_by_user(processed)
        assert dataset.expand_incremental(train_part)
    names = [span[0] for span in tracer.spans]
    assert names == ["dataset.ingest"] * 2 + ["dataset.preprocess"] * 3

"""The benchmark's tracer (bench/tracing.py) patches semsr's functions by
module attribute; every name it patches must still resolve, see calls
where semsr still makes them, and be restored on exit."""

import sys
from pathlib import Path

import numpy as np

from helpers import make_catalog, make_semantic
from semsr import encoder, train
from semsr.dataset import Example
from semsr.model import init_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


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
    # one batched call per training batch and per validation chunk
    assert tracer.counts["encoder.calls"] == 4 and tracer.counts["encoder.rows"] == 12
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    assert encoder.get_backbone("attn-niser") is backbone

"""In-memory spans around calls into semsr's public functions.

Tracing is installed from the benchmark's own files: `instrument` swaps
module attributes (and the registered `attn-niser` backbone) for wrappers
that open a span per call, and puts the originals back on exit. Nothing
inside semsr changes. Spans carry (name, start, end, parent, request id);
`layer_metrics` turns them into per-layer totals, self times and counts.
"""

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

from semsr import dataset, embeddings, encoder, llm, metrics, model, retrieval, train

PER_LAYER = {
    "dataset.ingest_s": "s",
    "dataset.preprocess_s": "s",
    "embeddings.load_semantic_s": "s",
    "embeddings.fit_projection_s": "s",
    "encoder.semantic_fwd_s": "s",
    "encoder.semantic_bwd_s": "s",
    "encoder.backbone_fwd_s": "s",
    "encoder.backbone_bwd_s": "s",
    "encoder.calls": "count",
    "encoder.rows": "count",
    "train.fit_s": "s",
    "train.fit_self_s": "s",
    "train.validation_s": "s",
    "train.loss_and_grad_s": "s",
    "train.loss_and_grad_self_s": "s",
    "train.adam_s": "s",
    "train.batches": "count",
    "train.examples": "count",
    "model.item_side_s": "s",
    "model.item_side_builds_per_request": "1",
    "model.item_side_builds_per_base_request": "1",
    "model.rank_examples_s": "s",
    "model.score_all_s": "s",
    "model.top_k_s": "s",
    "model.topk_kept_ratio": "1",
    "model.checkpoint_io_s": "s",
    "retrieval.rerank_s": "s",
    "retrieval.query_s": "s",
    "metrics.evaluate_s": "s",
    "llm.build_title_index_s": "s",
    "llm.recommend_s": "s",
    "llm.generate_calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}

# Encoder spans; their time inside loss_and_grad is not loss_and_grad self time.
ENCODER_SPANS = ("encoder.semantic_fwd", "encoder.semantic_bwd", "encoder.backbone_fwd", "encoder.backbone_bwd")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self._stack: list[int] = []
        self.request = None
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_encoded(self, rows, *_) -> None:
        self.count("encoder.calls")
        self.count("encoder.rows", rows.shape[0])

    def wrap(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, request in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                fh.write(json.dumps(rec) + "\n")


def _patches(tracer: Tracer):
    """(module, attribute, span name, on_call) for every traced public
    function, patched where its caller looks it up."""
    encoded = tracer.count_encoded

    def batch(batch_, *_, **__):
        tracer.count("train.batches")
        tracer.count("train.examples", len(batch_))

    def kept(scores, k):
        tracer.count("model.top_k_calls")
        tracer.count("model.topk_kept_sum", k / len(scores))

    return [
        (dataset, "ingest_sessions", "dataset.ingest", None),
        (dataset, "load_metadata", "dataset.ingest", None),
        (dataset, "preprocess", "dataset.preprocess", None),
        (dataset, "split_by_user", "dataset.preprocess", None),
        (dataset, "expand_incremental", "dataset.preprocess", None),
        (embeddings, "load_semantic_table", "embeddings.load_semantic", None),
        (model, "fit_projection", "embeddings.fit_projection", None),
        (model, "attention_forward", "encoder.semantic_fwd", encoded),
        (train, "attention_forward", "encoder.semantic_fwd", encoded),
        (train, "attention_backward", "encoder.semantic_bwd", None),
        (train, "loss_and_grad", "train.loss_and_grad", batch),
        (train, "adam_step", "train.adam", None),
        (train, "fit", "train.fit", None),
        (model, "fused_item_matrix", "model.item_side", None),
        (model, "normalized_item_matrix", "model.item_side", None),
        (train, "normalized_item_matrix", "model.item_side", None),
        (model, "rank_examples", "model.rank_examples", None),
        (train, "rank_examples", "model.rank_examples", None),
        (model, "score_all", "model.score_all", None),
        (model, "top_k", "model.top_k", kept),
        (model, "save_checkpoint", "model.checkpoint_io", None),
        (model, "load_checkpoint", "model.checkpoint_io", None),
        (retrieval, "rerank", "retrieval.rerank", None),
        (llm, "query", "retrieval.query", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (llm, "build_title_index", "llm.build_title_index", None),
        (llm, "recommend_via_llm", "llm.recommend", None),
    ]


def _traced_backbone(tracer: Tracer, original):
    class TracedBackbone:
        key = original.key
        init_params = staticmethod(original.init_params)
        forward = staticmethod(tracer.wrap("encoder.backbone_fwd", original.forward, tracer.count_encoded))
        backward = staticmethod(tracer.wrap("encoder.backbone_bwd", original.backward))

    return TracedBackbone


@contextmanager
def instrument(tracer: Tracer):
    """Route semsr's public functions through `tracer` until exit."""
    saved = []
    original_backbone = encoder.get_backbone("attn-niser")
    try:
        for module, attr, name, on_call in _patches(tracer):
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, on_call))
        encoder.register_backbone(_traced_backbone(tracer, original_backbone))
        yield tracer
    finally:
        encoder.register_backbone(original_backbone)
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, requests: dict[str, int], generate_calls: int) -> dict[str, float]:
    """Per-layer totals (s), self times (s), counts and waste ratios.
    `requests` maps each rerank loop's request-id prefix to its request count."""
    spans = tracer.spans
    own = _self_times(spans)
    total: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return tracer.counts.get(name, 0)

    encoder_in_loss = sum(
        end - start
        for i, (name, start, end, _, _) in enumerate(spans)
        if name in ENCODER_SPANS and _ancestor(spans, i, "train.loss_and_grad")
    )
    fit_self = sum(own[i] for i, s in enumerate(spans) if s[0] == "train.fit")
    validation = sum(
        end - start
        for i, (name, start, end, _, _) in enumerate(spans)
        if name == "model.rank_examples" and _ancestor(spans, i, "train.fit")
    )
    builds: dict[str, int] = {}
    for name, _, _, _, request in spans:
        if name == "model.item_side":
            loop = str(request).split(":")[0]
            builds[loop] = builds.get(loop, 0) + 1

    def per_request(loop):
        return builds.get(loop, 0) / max(requests.get(loop, 0), 1)
    return {
        "dataset.ingest_s": t("dataset.ingest"),
        "dataset.preprocess_s": t("dataset.preprocess"),
        "embeddings.load_semantic_s": t("embeddings.load_semantic"),
        "embeddings.fit_projection_s": t("embeddings.fit_projection"),
        "encoder.semantic_fwd_s": t("encoder.semantic_fwd"),
        "encoder.semantic_bwd_s": t("encoder.semantic_bwd"),
        "encoder.backbone_fwd_s": t("encoder.backbone_fwd"),
        "encoder.backbone_bwd_s": t("encoder.backbone_bwd"),
        "encoder.calls": c("encoder.calls"),
        "encoder.rows": c("encoder.rows"),
        "train.fit_s": t("train.fit"),
        "train.fit_self_s": fit_self,
        "train.validation_s": validation,
        "train.loss_and_grad_s": t("train.loss_and_grad"),
        "train.loss_and_grad_self_s": t("train.loss_and_grad") - encoder_in_loss,
        "train.adam_s": t("train.adam"),
        "train.batches": c("train.batches"),
        "train.examples": c("train.examples"),
        "model.item_side_s": t("model.item_side"),
        "model.item_side_builds_per_request": per_request("rerank_semf"),
        "model.item_side_builds_per_base_request": per_request("rerank"),
        "model.rank_examples_s": t("model.rank_examples"),
        "model.score_all_s": t("model.score_all"),
        "model.top_k_s": t("model.top_k"),
        "model.topk_kept_ratio": c("model.topk_kept_sum") / max(c("model.top_k_calls"), 1),
        "model.checkpoint_io_s": t("model.checkpoint_io"),
        "retrieval.rerank_s": t("retrieval.rerank"),
        "retrieval.query_s": t("retrieval.query"),
        "metrics.evaluate_s": t("metrics.evaluate"),
        "llm.build_title_index_s": t("llm.build_title_index"),
        "llm.recommend_s": t("llm.recommend"),
        "llm.generate_calls": generate_calls,
    }

"""Cross-entropy training with hand-derived reverse-mode gradients.

The loss for one example is -log p_target with p = softmax(logits). One
batched forward (Scorer.forward) encodes every prefix of the batch at once,
and the backward pass threads d(logits) = p - y back through it:

  scoring        for base/sem-i through the scale and the per-row
                 normalization of the item table, or for sem-f through
                 W5/W4 and the two blocks of the fused embeddings
  session side   one packed backbone backward (normalization jacobians
                 around the attention core) and, for sem-f, one packed
                 semantic attention backward; weight gradients come back
                 summed over the batch

The softmax over all n items gives every item-table row a gradient (the
scoring side is dense); prefix rows additionally receive the sparse
session-side contribution, scattered with one np.add.at over the packed
prefix rows (real rows only). Gradients are batch means. The semantic
table is frozen and never receives a gradient. The cross-entropy and Adam
run over encoder.row_blocks, bitwise equal to their one-pass forms.

fit scores each epoch's model on validation with metrics.evaluate and keeps
the best one as a single ModelParams snapshot, which it returns, or which
TrainingDiverged carries when the loss goes non-finite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import dataset
from .embeddings import SemanticItemTable
from .encoder import attention_backward, get_backbone, normalize_rows_backward, row_blocks
from .encoder import attention_forward  # noqa: F401 -- not called here; bench/tracing.py patches it
from .errors import DataError, NumericError, check_values
from .metrics import evaluate
from .model import ModelParams, rank_examples, scorer
from .model import normalized_item_matrix  # noqa: F401 -- not called here; bench/tracing.py patches it


@dataclass
class LossReport:
    mean_loss: float
    batch_size: int
    grad_norm: float


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's published defaults (Kingma & Ba, 2015)
RULES = {  # {name: (test, wanted)} of fit's schedule, for errors.check_values
    **{count: (lambda v: v >= 1, ">= 1") for count in ("epochs", "batch_size", "patience", "val_k")},
    "lr": (lambda v: 0 < v < math.inf, "finite and positive"),
    "seed": dataset.RULES["seed"],
}


@dataclass
class AdamState:
    lr: float = 0.001
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


class TrainingDiverged(NumericError):
    """Raised when the loss goes non-finite; carries the last good params."""

    def __init__(self, message: str, params: ModelParams, history: list):
        super().__init__(message)
        self.params = params
        self.history = history


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """(losses (B,), delta (B, n)): -log softmax(logits)[target] per row, d(mean loss)/d(logits)."""
    B, n = logits.shape
    lse, delta = np.empty(B), np.empty((B, n))
    for b in row_blocks(B, n):
        mx = logits[b].max(axis=1, keepdims=True)
        lse[b] = mx[:, 0] + np.log(np.exp(logits[b] - mx).sum(axis=1))
        np.exp(logits[b] - lse[b, None], out=delta[b])
        delta[b][np.arange(len(mx)), targets[b]] -= 1.0
        delta[b] /= B
    return lse - logits[np.arange(B), targets], delta


def loss_and_grad(batch, params: ModelParams, semantic: SemanticItemTable | None = None):
    """Mean cross-entropy over the batch plus gradients for every trainable
    tensor, from one batched forward and one batched backward."""
    if not batch:
        raise DataError("empty batch")
    n = params.n
    targets = np.array([ex.target for ex in batch])
    bad = targets[(targets < 0) | (targets >= n)]
    if bad.size:
        raise DataError(f"target {bad[0]} out of range 0..{n - 1}")
    B = len(batch)
    sc = scorer(params, semantic)  # the params change every step, so does the item side
    logits, cache = sc.forward([ex.prefix for ex in batch])

    losses, delta = cross_entropy(logits, targets)
    mean_loss = float(losses.mean())
    if not math.isfinite(mean_loss):
        raise NumericError("non-finite loss")

    dS = delta @ sc.items  # (B, d) for sem-f, else (B, d1) before the scale
    dM = delta.T @ cache["S"]  # (n, d) or (n, d1)
    grads = {}
    if params.variant == "sem-f":
        table, W4, W5 = params.tensors["item_table"], params.tensors["W4"], params.tensors["W5"]
        d1 = table.shape[1]
        grads["W5"] = np.concatenate([dM.T @ table, dM.T @ sc.semantic.matrix], axis=1)
        grads["item_table"] = dM @ W5[:, :d1]
        grads["W4"] = dS.T @ cache["cat"]
        dcat_s = dS @ W4  # (B, d1+d2)
        dS_m, dS_l = dcat_s[:, :d1], dcat_s[:, d1:]
        attn_grads, _ = attention_backward(cache["attn"], dS_l)
        grads.update({f"attn.{k}": g for k, g in attn_grads.items()})
    else:
        dS_m = params.scale * dS
        grads["item_table"] = normalize_rows_backward(sc.items, sc.norms, dM)

    bb_grads, d_raw = get_backbone(params.backbone).backward(cache["bb"], dS_m)
    grads.update({f"bb.{k}": g for k, g in bb_grads.items()})
    np.add.at(grads["item_table"], cache["idx"], d_raw)

    grad_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    return LossReport(mean_loss=mean_loss, batch_size=B, grad_norm=grad_norm), grads


def init_adam(params: ModelParams, lr: float = 0.001) -> AdamState:
    state = AdamState(lr=lr)
    state.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    state.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    return state


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Bias-corrected Adam update, applied in place to every trainable
    tensor. Tensors absent from the parameter set are never touched."""
    state.step += 1
    t = state.step
    for name, tensor in params.tensors.items():
        if name not in grads:
            raise DataError(f"missing gradient for tensor {name}")
        g = grads[name]
        if g.shape != tensor.shape:
            raise DataError(f"gradient shape {g.shape} != tensor shape {tensor.shape} for {name}")
        for b in row_blocks(len(tensor), tensor.size // len(tensor)):
            m, v, gb = state.m[name][b], state.v[name][b], g[b]
            m *= BETA1
            m += (1.0 - BETA1) * gb
            v *= BETA2
            v += (1.0 - BETA2) * gb * gb
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            tensor[b] -= state.lr * m_hat / (np.sqrt(v_hat) + EPSILON)


def fit(
    train_examples,
    val_examples,
    params: ModelParams,
    semantic: SemanticItemTable | None = None,
    *,
    epochs: int = 30,
    batch_size: int = 100,
    lr: float = 0.001,
    patience: int = 5,
    seed: int = 0,
    val_k: int = 100,
):
    """Epoch loop with seeded shuffling. Returns (best, history), where best
    is one ModelParams snapshot, taken (ModelParams.copy) after the epoch with
    the highest validation Recall@val_k, or after every epoch when there is
    no validation set; `params` keeps training in place.

    Early-stops after `patience` epochs without improvement; a setting
    outside RULES is a DataError. A non-finite loss aborts with
    TrainingDiverged carrying the snapshot and the history so far.
    """
    check_values(RULES, epochs=epochs, batch_size=batch_size, lr=lr, patience=patience, seed=seed, val_k=val_k)
    if not train_examples:
        raise DataError("empty training set")
    state = init_adam(params, lr=lr)
    rng = np.random.default_rng(seed)
    k_eval = min(val_k, params.n)
    targets = [ex.target for ex in val_examples]
    history: list[dict] = []
    best, best_recall, since_best = params.copy(), -math.inf, 0
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(len(train_examples))
        loss_sum = 0.0
        for start in range(0, len(train_examples), batch_size):
            chunk = [train_examples[i] for i in perm[start : start + batch_size]]
            try:
                report, grads = loss_and_grad(chunk, params, semantic)
            except NumericError as exc:
                raise TrainingDiverged(str(exc), best, history) from exc
            adam_step(params, grads, state)
            params.step += 1
            loss_sum += report.mean_loss * report.batch_size
        entry = {"epoch": epoch, "train_loss": loss_sum / len(train_examples), "step": params.step}
        if val_examples:
            ranked = rank_examples(params, semantic, val_examples, k_eval)
            entry["val_recall"] = evaluate(ranked, targets, (k_eval,)).per_k[k_eval]["recall"]
            entry["val_k"] = k_eval
        history.append(entry)
        if not val_examples or entry["val_recall"] > best_recall:
            best, best_recall, since_best = params.copy(), entry.get("val_recall", -math.inf), 0
        else:
            since_best += 1
        if since_best >= patience:
            break
    return best, history

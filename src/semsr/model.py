"""The scoring model and its variants.

base    -- backbone session embedding s_m scored against the L2-normalized
           trainable rows with the fixed scale sigma, then softmaxed
sem-i   -- identical architecture to base; only the trainable-table
           initialization changes (projected semantic rows)
sem-f   -- fuses the two views: s = W4 [s_m; s_l] and per-item
           f_k = W5 [i_m_k; i_l_k], scored by raw dot products f_k^T s
           (no scale), then softmaxed

Checkpoints are a directory: manifest.json (variant, widths, backbone key,
scale, seed, step) plus one <tensor>.bin per named tensor. Each blob is
rank and dims as u64 LE, then float32 LE values row-major.
"""

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import SemanticItemTable, fit_projection, init_trainable
from .encoder import (
    ATTENTION_TENSORS,
    AttentionParams,
    attention_forward,
    get_backbone,
    init_attention_tensors,
    softmax,
)
from .errors import DataError, NumericError
from .retrieval import RankedList, rank_descending

VARIANTS = ("base", "sem-i", "sem-f")


@dataclass
class ModelParams:
    variant: str
    backbone: str
    d1: int
    d2: int
    d: int
    scale: float
    seed: int
    step: int = 0
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.tensors["item_table"].shape[0]

    def attention_params(self) -> AttentionParams:
        return AttentionParams(**{k: self.tensors[f"attn.{k}"] for k in ATTENTION_TENSORS})

    def copy(self) -> "ModelParams":
        clone = ModelParams(
            variant=self.variant, backbone=self.backbone, d1=self.d1, d2=self.d2,
            d=self.d, scale=self.scale, seed=self.seed, step=self.step,
        )
        clone.tensors = {k: v.copy() for k, v in self.tensors.items()}
        return clone


def init_model(
    variant: str,
    n: int,
    d1: int,
    d2: int,
    d: int,
    seed: int,
    scale: float = 16.0,
    backbone: str = "attn-niser",
    init_mode: str = "auto",
    semantic: SemanticItemTable | None = None,
) -> ModelParams:
    """Create and initialize all trainable tensors for a variant.

    init_mode "auto" resolves to semantic-projected for sem-i and random
    otherwise. All draws come from one generator seeded with `seed`, in a
    fixed tensor order, so runs are reproducible.
    """
    if variant not in VARIANTS:
        raise DataError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    _check_scale(scale)
    if init_mode == "auto":
        init_mode = "semantic-projected" if variant == "sem-i" else "random"
    if init_mode == "semantic-projected" and semantic is None:
        raise DataError("semantic-projected initialization needs a semantic table")
    if semantic is not None and semantic.n != n:
        raise DataError(f"semantic table rows {semantic.n} != catalog items {n}")

    rng = np.random.default_rng(seed)
    params = ModelParams(variant=variant, backbone=backbone, d1=d1, d2=d2, d=d, scale=scale, seed=seed)

    projection = fit_projection(semantic, d1) if init_mode == "semantic-projected" else None
    params.tensors["item_table"] = init_trainable(init_mode, n, d1, rng, semantic, projection)
    bb = get_backbone(backbone).init_params(d1, rng)
    for k in ATTENTION_TENSORS:
        params.tensors[f"bb.{k}"] = bb[k]
    if variant == "sem-f":
        attn = init_attention_tensors(d2, rng)
        for k in ATTENTION_TENSORS:
            params.tensors[f"attn.{k}"] = attn[k]
        stdv = 1.0 / np.sqrt(d1 + d2)
        params.tensors["W4"] = rng.uniform(-stdv, stdv, size=(d, d1 + d2))
        params.tensors["W5"] = rng.uniform(-stdv, stdv, size=(d, d1 + d2))
    return params


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")
    return arr


def _check_scale(scale: float) -> None:
    if not scale > 0:
        raise DataError(f"scale must be positive, got {scale}")


def normalized_item_matrix(params: ModelParams):
    """(G, norms): L2-normalized trainable rows used by base/sem-i scoring."""
    table = params.tensors["item_table"]
    norms = np.linalg.norm(table, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise NumericError("zero-norm row in item_table")
    return table / norms, norms


def fused_item_matrix(params: ModelParams, semantic: SemanticItemTable) -> np.ndarray:
    """Semantic-aware item embeddings: row k is W5 [i_m_k; i_l_k], (n, d),
    computed block by block so [i_m; i_l] is never materialized."""
    if semantic is None:
        raise DataError("sem-f scoring needs the semantic table at every forward pass")
    table, W5 = params.tensors["item_table"], params.tensors["W5"]
    d1 = table.shape[1]
    return _check_finite("fused item embeddings", table @ W5[:, :d1].T + semantic.matrix @ W5[:, d1:].T)


def item_matrix(params: ModelParams, semantic: SemanticItemTable | None):
    """(M, norms): the rows every session is scored against -- the fused
    rows for sem-f (norms None), else the normalized trainable rows."""
    if params.variant == "sem-f":
        return fused_item_matrix(params, semantic), None
    return normalized_item_matrix(params)


def forward(prefixes, params: ModelParams, semantic: SemanticItemTable | None, items):
    """Logits (B, n) of a batch of prefixes against `items` (from
    item_matrix), plus the cache the training backward pass reads.

    Prefixes are right-aligned in one (B, L) index matrix; a shorter one
    is padded on the left with its own first item, masked out of the
    attention.
    """
    lengths = np.array([len(p) for p in prefixes])
    if np.any(lengths == 0):
        raise DataError("prefix must be non-empty")
    L = int(lengths.max())
    idx = np.array([[p[0]] * (L - len(p)) + list(p) for p in prefixes], dtype=np.intp)
    mask = np.arange(L - 1) >= (L - lengths)[:, None]  # (B, L-1): real head positions
    theta = {k: params.tensors[f"bb.{k}"] for k in ATTENTION_TENSORS}
    S_m, bb_cache = get_backbone(params.backbone).forward(params.tensors["item_table"][idx], theta, mask)
    _check_finite("session embedding s_m", S_m)
    cache = {"idx": idx, "bb": bb_cache, "items": items}
    if params.variant == "sem-f":
        S_l, _, cache["attn"] = attention_forward(semantic.matrix[idx], params.attention_params(), mask)
        _check_finite("session embedding s_l", S_l)
        cache["cat"] = np.concatenate([S_m, S_l], axis=1)  # (B, d1+d2)
        S = _check_finite("fused session embedding", cache["cat"] @ params.tensors["W4"].T)
    else:
        S = params.scale * S_m
    cache["S"] = S
    return _check_finite("logits", S @ items[0].T), cache


def score_all(prefix, params: ModelParams, semantic: SemanticItemTable | None = None) -> np.ndarray:
    """Relevance probabilities over all n items for one prefix (sums to 1)."""
    logits, _ = forward([prefix], params, semantic, item_matrix(params, semantic))
    return _check_finite("probabilities", softmax(logits[0]))


def top_k(scores: np.ndarray, k: int) -> RankedList:
    """Top-k items by descending score, ties by ascending dense index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 1 <= k <= scores.shape[0]:
        raise DataError(f"k={k} out of range 1..{scores.shape[0]}")
    order = rank_descending(scores)[:k]
    return RankedList(items=order, scores=scores[order])


def rank_examples(
    params: ModelParams,
    semantic: SemanticItemTable | None,
    examples,
    k: int,
    chunk: int = 256,
) -> list[RankedList]:
    """Score and rank a batch of examples, building the item-side matrix
    once and encoding each chunk of examples in one batched forward."""
    items = item_matrix(params, semantic)
    out: list[RankedList] = []
    for start in range(0, len(examples), chunk):
        logits, _ = forward([ex.prefix for ex in examples[start : start + chunk]], params, semantic, items)
        out.extend(top_k(row, k) for row in softmax(logits, axis=1))
    return out


_MANIFEST = {"variant": str, "backbone": str, "d1": int, "d2": int, "d": int, "scale": float, "seed": int, "step": int}


def save_checkpoint(directory, params: ModelParams) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {key: getattr(params, key) for key in _MANIFEST}
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    for name, tensor in params.tensors.items():
        _write_tensor(directory / f"{name}.bin", tensor)


def load_checkpoint(directory) -> ModelParams:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"checkpoint manifest not found: {manifest_path}")
    try:
        m = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise DataError(f"{manifest_path}: not valid JSON ({exc})") from None
    fields = {}
    for key, typ in _MANIFEST.items():
        try:
            fields[key] = typ(m[key])
        except (KeyError, TypeError, ValueError):
            raise DataError(f"{manifest_path}: {key!r} is missing or not a {typ.__name__}") from None
    _check_scale(fields["scale"])
    params = ModelParams(**fields)
    for blob in sorted(directory.glob("*.bin")):
        params.tensors[blob.name[: -len(".bin")]] = _read_tensor(blob)
    if "item_table" not in params.tensors:
        raise DataError(f"checkpoint at {directory} has no item_table tensor")
    return params


def _write_tensor(path: Path, tensor: np.ndarray) -> None:
    header = struct.pack("<Q", tensor.ndim)
    header += b"".join(struct.pack("<Q", dim) for dim in tensor.shape)
    path.write_bytes(header + np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def _read_tensor(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    (rank,) = struct.unpack_from("<Q", raw, 0)
    dims = struct.unpack_from(f"<{rank}Q", raw, 8)
    data = np.frombuffer(raw, dtype="<f4", offset=8 + 8 * rank)
    expected = int(np.prod(dims)) if dims else 0
    if data.size != expected:
        raise DataError(f"{path}: expected {expected} values, found {data.size}")
    return data.astype(np.float64).reshape(dims)

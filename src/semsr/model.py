"""The scoring model and its variants.

base    -- backbone session embedding s_m scored against the L2-normalized
           trainable rows with the fixed scale sigma, then softmaxed
sem-i   -- identical architecture to base; only the trainable-table
           initialization changes (projected semantic rows)
sem-f   -- fuses the two views: s = W4 [s_m; s_l] and per-item
           f_k = W5 [i_m_k; i_l_k], scored by raw dot products f_k^T s
           (no scale), then softmaxed

Checkpoints are a directory: manifest.json (variant, widths, backbone key,
scale, seed, step; for sem-f also the fingerprint of the semantic table it
was trained with) plus one <tensor>.bin per named tensor. Each blob is
rank and dims as u64 LE, then float32 LE values row-major.
"""

import json
import math
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import SemanticItemTable, fit_projection
from .encoder import attention_forward, attention_shapes, get_backbone, init_attention_tensors, normalize_rows, softmax
from .errors import DataError, NumericError
from .retrieval import RankedList, top_k

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
    semantic_fingerprint: str = ""  # sem-f: the semantic table it scores with
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.tensors["item_table"].shape[0]

    def scoped(self, prefix: str) -> dict[str, np.ndarray]:
        """Tensors named `prefix`+name keyed by name ("bb." backbone, "attn." semantic)."""
        return {k[len(prefix) :]: v for k, v in self.tensors.items() if k.startswith(prefix)}

    def copy(self) -> "ModelParams":
        clone = ModelParams(
            variant=self.variant, backbone=self.backbone, d1=self.d1, d2=self.d2,
            d=self.d, scale=self.scale, seed=self.seed, step=self.step,
            semantic_fingerprint=self.semantic_fingerprint,
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
    semantic: SemanticItemTable | None = None,
) -> ModelParams:
    """Create and initialize all trainable tensors for a variant.

    The variant fixes the item table's start: for sem-i each row is the PCA
    projection of its semantic row, L2-normalized (a zero row stays zero);
    base and sem-f draw it uniform in [-0.1, 0.1]. All draws come from one
    generator seeded with `seed`, in a fixed tensor order, so runs are
    reproducible. sem-f keeps the semantic table's fingerprint, which its
    checkpoint manifest records.
    """
    if variant not in VARIANTS:
        raise DataError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    _check_scale(scale)
    if variant != "base" and semantic is None:
        raise DataError(f"{variant} initialization needs a semantic table")
    if semantic is not None and semantic.n != n:
        raise DataError(f"semantic table rows {semantic.n} != catalog items {n}")

    rng = np.random.default_rng(seed)
    params = ModelParams(variant=variant, backbone=backbone, d1=d1, d2=d2, d=d, scale=scale, seed=seed)
    if variant == "sem-f":
        params.semantic_fingerprint = semantic.fingerprint

    if variant == "sem-i":
        rows = fit_projection(semantic, d1).apply(semantic.matrix)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        params.tensors["item_table"] = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)
    else:
        params.tensors["item_table"] = rng.uniform(-0.1, 0.1, size=(n, d1))
    params.tensors.update({f"bb.{k}": v for k, v in get_backbone(backbone).init_params(d1, rng).items()})
    if variant == "sem-f":
        params.tensors.update({f"attn.{k}": v for k, v in init_attention_tensors(d2, rng).items()})
        stdv = 1.0 / np.sqrt(d1 + d2)
        params.tensors["W4"] = rng.uniform(-stdv, stdv, size=(d, d1 + d2))
        params.tensors["W5"] = rng.uniform(-stdv, stdv, size=(d, d1 + d2))
    return params


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")
    return arr


def _check_scale(scale: float, where: str = "") -> None:
    if not 0 < scale < math.inf:
        raise DataError(f"{where}scale must be finite and positive, got {scale}")


def normalized_item_matrix(params: ModelParams):
    """(G, norms): L2-normalized trainable rows used by base/sem-i scoring."""
    return normalize_rows(params.tensors["item_table"], "item_table")


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

    The prefixes are packed: their item indices are concatenated into one
    (R,) vector with `lengths` (B,), and only those R real rows are encoded.
    """
    lengths = np.array([len(p) for p in prefixes])
    if np.any(lengths == 0):
        raise DataError("prefix must be non-empty")
    idx = np.concatenate(prefixes, dtype=np.intp)
    S_m, bb_cache = get_backbone(params.backbone).forward(params.tensors["item_table"][idx], params.scoped("bb."), lengths)
    _check_finite("session embedding s_m", S_m)
    cache = {"idx": idx, "bb": bb_cache, "items": items}
    if params.variant == "sem-f":
        S_l, _, cache["attn"] = attention_forward(semantic.matrix[idx], params.scoped("attn."), lengths)
        _check_finite("session embedding s_l", S_l)
        cache["cat"] = np.concatenate([S_m, S_l], axis=1)  # (B, d1+d2)
        S = _check_finite("fused session embedding", cache["cat"] @ params.tensors["W4"].T)
    else:
        S = params.scale * S_m
    cache["S"] = S
    return _check_finite("logits", S @ items[0].T), cache


SCORE_CHUNK = 256  # prefixes per batched forward when scoring


def score_chunks(prefixes, params: ModelParams, semantic: SemanticItemTable | None = None):
    """Yield relevance probabilities (B, n), each row summing to 1, for
    consecutive chunks of `prefixes`, in order. The item-side matrix is
    built once per call and each chunk is one batched forward."""
    items = item_matrix(params, semantic)
    for start in range(0, len(prefixes), SCORE_CHUNK):
        logits, _ = forward(prefixes[start : start + SCORE_CHUNK], params, semantic, items)
        yield _check_finite("probabilities", softmax(logits))


def score_all(prefix, params: ModelParams, semantic: SemanticItemTable | None = None) -> np.ndarray:
    """Relevance probabilities over all n items for one prefix (sums to 1)."""
    return next(score_chunks([prefix], params, semantic))[0]


def rank_examples(params: ModelParams, semantic: SemanticItemTable | None, examples, k: int) -> list[RankedList]:
    """Top-k lists of a batch of examples, scored by score_chunks."""
    prefixes = [ex.prefix for ex in examples]
    return [top_k(row, k) for block in score_chunks(prefixes, params, semantic) for row in block]


_MANIFEST = {"variant": str, "backbone": str, "d1": int, "d2": int, "d": int, "scale": float, "seed": int, "step": int}


def save_checkpoint(directory, params: ModelParams) -> None:
    """Write the checkpoint into the sibling directory .<name>.new, then
    rename it into place: a save replaces whatever `directory` held, and a
    save that fails leaves the previous checkpoint whole."""
    directory = Path(directory)
    staging, retired = (directory.with_name(f".{directory.name}.{tag}") for tag in ("new", "old"))
    for stale in (staging, retired):
        shutil.rmtree(stale, ignore_errors=True)
    staging.mkdir(parents=True)
    manifest = {key: getattr(params, key) for key in _MANIFEST}
    if params.variant == "sem-f":
        manifest["semantic_fingerprint"] = params.semantic_fingerprint
    (staging / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    for name, tensor in params.tensors.items():
        _write_tensor(staging / f"{name}.bin", tensor)
    if directory.exists():
        directory.rename(retired)
    staging.rename(directory)
    shutil.rmtree(retired, ignore_errors=True)


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
    own = {"semantic_fingerprint": str} if isinstance(m, dict) and m.get("variant") == "sem-f" else {}
    for key, typ in {**_MANIFEST, **own}.items():
        try:
            fields[key] = typ(m[key])
            if typ is int and (isinstance(m[key], bool) or fields[key] != m[key] or fields[key] < 0):
                raise ValueError  # 8.7 or -5 is an error, not a truncation
        except (KeyError, TypeError, ValueError, OverflowError):
            kind = "non-negative integer" if typ is int else typ.__name__
            raise DataError(f"{manifest_path}: {key!r} is missing or not a {kind}") from None
    if fields["variant"] not in VARIANTS:
        raise DataError(f"{manifest_path}: unknown variant {fields['variant']!r}; expected one of {VARIANTS}")
    _check_scale(fields["scale"], f"{manifest_path}: ")
    params = ModelParams(**fields)
    # the backbone's bb.* tensors are its own business
    shapes = {}
    if params.variant == "sem-f":
        shapes.update({f"attn.{k}": shape for k, shape in attention_shapes(params.d2).items()})
        shapes["W4"] = shapes["W5"] = (params.d, params.d1 + params.d2)
    for blob in sorted(directory.glob("*.bin")):
        name = blob.name[: -len(".bin")]
        if name != "item_table" and name not in shapes and not name.startswith("bb."):
            raise DataError(f"{blob}: a {params.variant} checkpoint has no tensor {name!r}")
        params.tensors[name] = _read_tensor(blob)
    if "item_table" not in params.tensors:
        raise DataError(f"checkpoint at {directory} has no item_table tensor")
    shapes["item_table"] = params.tensors["item_table"].shape[:1] + (params.d1,)
    for name, shape in shapes.items():
        got = params.tensors[name].shape if name in params.tensors else "no tensor"
        if got != shape:
            raise DataError(f"{directory / name}.bin: the manifest needs shape {shape}, found {got}")
    return params


def _write_tensor(path: Path, tensor: np.ndarray) -> None:
    header = struct.pack("<Q", tensor.ndim)
    header += b"".join(struct.pack("<Q", dim) for dim in tensor.shape)
    path.write_bytes(header + np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def _read_tensor(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    rank = int.from_bytes(raw[:8], "little")
    if len(raw) < 8 + 8 * rank:
        raise DataError(f"{path}: blob of {len(raw)} bytes is shorter than its header")
    dims = struct.unpack_from(f"<{rank}Q", raw, 8)
    data = np.frombuffer(raw, dtype="<f4", offset=8 + 8 * rank)
    expected = math.prod(dims) if dims else 0
    if data.size != expected:
        raise DataError(f"{path}: expected {expected} values, found {data.size}")
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: non-finite values")
    return data.astype(np.float64).reshape(dims)

"""The scoring model and its variants.

base    -- backbone session embedding s_m scored against the L2-normalized
           trainable rows with the fixed scale sigma, then softmaxed
sem-i   -- identical architecture to base; only the trainable-table
           initialization changes (projected semantic rows)
sem-f   -- fuses the two views: s = W4 [s_m; s_l] and per-item
           f_k = W5 [i_m_k; i_l_k], scored by raw dot products f_k^T s
           (no scale), then softmaxed

`scorer(params, semantic)` builds a model's item side once. The frozen Scorer
it returns runs the batched forward, chunked probabilities and ranking, and
is the one place that checks a sem-f model against its semantic table.

Checkpoints are a directory: manifest.json (variant, widths, backbone key,
scale, seed, step; for sem-f also the fingerprint of the semantic table it
was trained with) plus one <tensor>.bin per named tensor. Each blob is
its rank as u64 LE, then `embeddings.f32_bytes` of the tensor: dims as
u64 LE, then float32 LE values row-major.
"""

import math
import struct
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import dataset
from .dataset import read_json, write_json, write_outputs
from .embeddings import SemanticItemTable, f32_bytes, fit_projection, read_f32
from .encoder import attention_forward, attention_shapes, get_backbone, init_attention_tensors, normalize_rows, softmax
from .errors import DataError, NumericError, check_values
from .retrieval import RankedList, top_k

VARIANTS = ("base", "sem-i", "sem-f")
RULES = {  # {name: (test, wanted)} of a model's header, for errors.check_values
    "variant": (lambda v: v in VARIANTS, f"one of {VARIANTS}"),
    "scale": (lambda v: 0 < v < math.inf, "finite and positive"),
    **{width: (lambda v: v >= 1, ">= 1") for width in ("d1", "d2", "d")},
    "seed": dataset.RULES["seed"],
    "step": (lambda v: v >= 0, ">= 0"),
}


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

    def __post_init__(self):
        """The one header rule, for every model made (init, load or copy)."""
        check_values(RULES, **{name: getattr(self, name) for name in RULES})
        get_backbone(self.backbone)  # an unregistered key is a DataError

    @property
    def n(self) -> int:
        return self.tensors["item_table"].shape[0]

    def scoped(self, prefix: str) -> dict[str, np.ndarray]:
        """Tensors named `prefix`+name keyed by name ("bb." backbone, "attn." semantic)."""
        return {k[len(prefix) :]: v for k, v in self.tensors.items() if k.startswith(prefix)}

    def copy(self) -> "ModelParams":
        return replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})


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
    projection of its semantic row, L2-normalized by encoder.normalize_rows
    (a row that projects to zero is a DataError naming its item); base and
    sem-f draw it uniform in [-0.1, 0.1]. All draws come from one
    generator seeded with `seed`, in a fixed tensor order, so runs are
    reproducible. sem-f keeps the semantic table's fingerprint, which its
    checkpoint manifest records. The header passes ModelParams' rule, the
    one load_checkpoint applies, and a semantic table must be n x d2.
    """
    params = ModelParams(variant=variant, backbone=backbone, d1=d1, d2=d2, d=d, scale=scale, seed=seed)
    if variant != "base" and semantic is None:
        raise DataError(f"{variant} initialization needs a semantic table")
    if semantic is not None and (semantic.n, semantic.d2) != (n, d2):
        raise DataError(f"semantic table is {semantic.n}x{semantic.d2}, but the model needs {n}x{d2}")

    rng = np.random.default_rng(seed)
    if variant == "sem-f":
        params.semantic_fingerprint = semantic.fingerprint

    if variant == "sem-i":
        rows = fit_projection(semantic, d1).apply(semantic.matrix)
        try:
            params.tensors["item_table"] = normalize_rows(rows, "sem-i start")[0]
        except NumericError:
            item = int(np.flatnonzero(~np.any(rows * rows, axis=1))[0])
            raise DataError(f"sem-i start: the semantic row of item {item} projects to zero") from None
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


def normalized_item_matrix(params: ModelParams):
    """(G, norms): L2-normalized trainable rows used by base/sem-i scoring."""
    return normalize_rows(params.tensors["item_table"], "item_table")


def fused_item_matrix(params: ModelParams, semantic: SemanticItemTable) -> np.ndarray:
    """Semantic-aware item embeddings: row k is W5 [i_m_k; i_l_k], (n, d),
    computed block by block so [i_m; i_l] is never materialized."""
    table, W5 = params.tensors["item_table"], params.tensors["W5"]
    d1 = table.shape[1]
    return _check_finite("fused item embeddings", table @ W5[:, :d1].T + semantic.matrix @ W5[:, d1:].T)


SCORE_CHUNK = 256  # prefixes per batched forward when scoring


@dataclass(frozen=True, eq=False)
class Scorer:
    """A model bound to its item side, built by `scorer`: the fused rows for
    sem-f, else the normalized trainable rows and their norms before
    normalization (the training backward reads both). Only sem-f keeps `semantic`."""

    params: ModelParams
    semantic: SemanticItemTable | None
    items: np.ndarray
    norms: np.ndarray | None = None

    def forward(self, prefixes):
        """Logits (B, n) of a batch of prefixes, plus the cache the training
        backward reads. The prefixes are packed: only their R real rows are
        encoded, as one (R,) index vector with `lengths` (B,)."""
        params = self.params
        lengths = np.array([len(p) for p in prefixes])
        if np.any(lengths == 0):
            raise DataError("prefix must be non-empty")
        idx = np.concatenate(prefixes, dtype=np.intp)
        bad = idx[(idx < 0) | (idx >= params.n)]
        if bad.size:
            raise DataError(f"prefix item {bad[0]} out of range 0..{params.n - 1}")
        S_m, bb_cache = get_backbone(params.backbone).forward(params.tensors["item_table"][idx], params.scoped("bb."), lengths)
        _check_finite("session embedding s_m", S_m)
        cache = {"idx": idx, "bb": bb_cache}
        if params.variant == "sem-f":
            S_l, _, cache["attn"] = attention_forward(self.semantic.matrix[idx], params.scoped("attn."), lengths)
            _check_finite("session embedding s_l", S_l)
            cache["cat"] = np.concatenate([S_m, S_l], axis=1)  # (B, d1+d2)
            S = _check_finite("fused session embedding", cache["cat"] @ params.tensors["W4"].T)
        else:
            S = params.scale * S_m
        cache["S"] = S
        return _check_finite("logits", S @ self.items.T), cache

    def probabilities(self, prefixes):
        """Yield relevance probabilities (B, n), each row summing to 1, for
        consecutive chunks of `prefixes`, each chunk one batched forward."""
        for start in range(0, len(prefixes), SCORE_CHUNK):
            logits, _ = self.forward(prefixes[start : start + SCORE_CHUNK])
            yield _check_finite("probabilities", softmax(logits))

    def rank(self, examples, k: int) -> list[RankedList]:
        """Top-k lists of a batch of examples."""
        return [top_k(row, k) for block in self.probabilities([ex.prefix for ex in examples]) for row in block]


def scorer(params: ModelParams, semantic: SemanticItemTable | None = None) -> Scorer:
    """Build the item side once. base and sem-i ignore `semantic`; sem-f needs the
    table it was trained with: same shape and stored fingerprint (never re-hashed)."""
    if params.variant != "sem-f":
        return Scorer(params, None, *normalized_item_matrix(params))
    if semantic is None:
        raise DataError("sem-f scoring needs the semantic table it was trained with")
    if (semantic.n, semantic.d2, semantic.fingerprint) != (params.n, params.d2, params.semantic_fingerprint):
        raise DataError(f"trained with semantic table {params.semantic_fingerprint[:16]} ({params.n}x{params.d2}), "
                        f"but given {semantic.fingerprint[:16]} ({semantic.n}x{semantic.d2})")
    return Scorer(params, semantic, fused_item_matrix(params, semantic))


def score_all(prefix, params: ModelParams, semantic: SemanticItemTable | None = None) -> np.ndarray:
    """Relevance probabilities over all n items for one prefix (sums to 1)."""
    return next(scorer(params, semantic).probabilities([prefix]))[0]


def rank_examples(params: ModelParams, semantic: SemanticItemTable | None, examples, k: int) -> list[RankedList]:
    """Top-k lists of a batch of examples, from one scorer."""
    return scorer(params, semantic).rank(examples, k)


_MANIFEST = {"variant": str, "backbone": str, "d1": int, "d2": int, "d": int, "scale": float, "seed": int, "step": int}


def _write_checkpoint(staging: Path, params: ModelParams) -> None:
    """Fill the new directory `staging` with the checkpoint of `params`: the
    `write_outputs` writer of a checkpoint."""
    staging.mkdir()
    manifest = {key: getattr(params, key) for key in _MANIFEST}
    if params.variant == "sem-f":
        manifest["semantic_fingerprint"] = params.semantic_fingerprint
    write_json(staging / "manifest.json", manifest)
    for name, tensor in params.tensors.items():
        (staging / f"{name}.bin").write_bytes(struct.pack("<Q", np.ndim(tensor)) + f32_bytes(tensor))


def save_checkpoint(directory, params: ModelParams) -> None:
    """Write the checkpoint directory through `write_outputs`: a save replaces
    whatever `directory` held, and a save that fails leaves it whole."""
    write_outputs([(directory, partial(_write_checkpoint, params=params))])


def load_checkpoint(directory) -> ModelParams:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    m = read_json(manifest_path, "checkpoint manifest")
    fields = {}
    own = {"semantic_fingerprint": str} if m.get("variant") == "sem-f" else {}
    for key, typ in {**_MANIFEST, **own}.items():
        value, json_type = m.get(key), (int, float) if typ is float else typ
        try:  # values keep their JSON type: true is no number, "16" no scale, 8.7 no count
            if isinstance(value, bool) or not isinstance(value, json_type):
                raise TypeError
            fields[key] = typ(value)
        except (TypeError, OverflowError):
            kind = "non-negative integer" if typ is int else typ.__name__
            raise DataError(f"{manifest_path}: {key!r} is missing or not a {kind}") from None
    try:
        params = ModelParams(**fields)
    except DataError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    table_path = directory / "item_table.bin"  # read first: its width confirms d1 before the backbone builds d1-wide tensors
    if not table_path.exists():
        raise DataError(f"checkpoint at {directory} has no item_table tensor")
    table = params.tensors["item_table"] = _read_tensor(table_path)
    if table.shape[1:] != (params.d1,):
        raise DataError(f"{table_path}: the manifest needs shape (n, {params.d1}), found {table.shape}")
    zero = np.flatnonzero(~np.any(table, axis=1))
    if zero.size:  # every built-in path L2-normalizes these rows
        raise DataError(f"{table_path}: row {zero[0]} is all zero")
    bb_init = get_backbone(params.backbone).init_params(params.d1, np.random.default_rng(0))
    shapes = {"item_table": table.shape, **{f"bb.{k}": v.shape for k, v in bb_init.items()}}
    if params.variant == "sem-f":
        shapes.update({f"attn.{k}": shape for k, shape in attention_shapes(params.d2).items()})
        shapes["W4"] = shapes["W5"] = (params.d, params.d1 + params.d2)
    for blob in sorted(directory.glob("*.bin")):
        name = blob.name[: -len(".bin")]
        if name not in shapes:
            raise DataError(f"{blob}: a {params.variant} checkpoint has no tensor {name!r}")
        if name not in params.tensors:
            params.tensors[name] = _read_tensor(blob)
    for name, shape in shapes.items():
        got = params.tensors[name].shape if name in params.tensors else "no tensor"
        if got != shape:
            raise DataError(f"{directory / name}.bin: the manifest needs shape {shape}, found {got}")
    return params


def _read_tensor(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    return read_f32(path, raw, 8, int.from_bytes(raw[:8], "little"))

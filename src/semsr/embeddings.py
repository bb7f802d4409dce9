"""Item embedding tables: the frozen semantic table, a deterministic
pseudo-encoder used when no real embedding export is available, and the
PCA bridge that seeds the trainable table from semantic vectors.

Semantic embedding exports come in two formats:
  TSV:     item_id<TAB>f1,f2,...,fd2
  binary:  magic "SEMB1", n (u64 LE), d2 (u64 LE), then n*d2 float32 LE
           row-major, rows in catalog dense-index order
"""

import hashlib
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Catalog, ItemMeta, read_records
from .errors import DataError

_MAGIC = b"SEMB1"


@dataclass
class SemanticItemTable:
    """Frozen n x d2 matrix of semantic item vectors, fingerprinted so any
    mutation during training is detectable."""

    matrix: np.ndarray
    fingerprint: str = ""

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if not np.all(np.isfinite(self.matrix)):
            raise DataError("semantic table contains non-finite values")
        if not self.fingerprint:
            self.fingerprint = fingerprint_matrix(self.matrix)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d2(self) -> int:
        return self.matrix.shape[1]


@dataclass
class Projection:
    """Orthonormal d2 -> d1 basis (columns) around a mean offset."""

    basis: np.ndarray  # (d2, d1)
    mean: np.ndarray  # (d2,)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(rows) - self.mean) @ self.basis


def fingerprint_matrix(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix)).hexdigest()  # hashes the buffer, no bytes copy


def item_text(item: ItemMeta) -> str:
    """Canonical metadata text fed to the encoder: all populated fields."""
    parts = [item.title]
    for value in (item.brand, item.category, item.color, item.price, item.description):
        if value is not None:
            parts.append(str(value))
    return " | ".join(parts)


def encode_text(text: str, d2: int) -> np.ndarray:
    """Deterministic unit-norm Gaussian vector seeded by a hash of the text.

    Equal text gives a bitwise-equal vector, in any process.
    """
    if d2 < 1:
        raise DataError("embedding width must be >= 1")
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest(), "big")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(d2)
    return vec / np.linalg.norm(vec)


def pseudo_encode(item: ItemMeta, d2: int) -> np.ndarray:
    """Stand-in for an external LLM encoder: hash-seeded vector over the
    item's concatenated metadata text."""
    return encode_text(item_text(item), d2)


def pseudo_semantic_table(catalog: Catalog, d2: int) -> SemanticItemTable:
    matrix = np.stack([pseudo_encode(m, d2) for m in catalog.items])
    return SemanticItemTable(matrix=matrix)


def load_semantic_table(path, catalog: Catalog) -> SemanticItemTable:
    """Load a semantic embedding export (TSV or binary), rows ordered by
    dense index. Every catalog item must be covered."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"semantic embedding file not found: {path}")
    with path.open("rb") as fh:
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
        return _load_semantic_binary(path, catalog)
    return _load_semantic_tsv(path, catalog)


def _load_semantic_binary(path: Path, catalog: Catalog) -> SemanticItemTable:
    raw = path.read_bytes()
    if len(raw) < len(_MAGIC) + 16:
        raise DataError(f"{path}: truncated semantic binary")
    n, d2 = struct.unpack_from("<QQ", raw, len(_MAGIC))
    if n != catalog.n:
        raise DataError(f"{path}: file has {n} rows, catalog has {catalog.n} items")
    if d2 == 0:
        raise DataError(f"{path}: semantic width d2 is 0")
    expected = len(_MAGIC) + 16 + n * d2 * 4
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", offset=len(_MAGIC) + 16)
    try:
        return SemanticItemTable(matrix=data.astype(np.float64).reshape(n, d2))
    except DataError as exc:  # non-finite values
        raise DataError(f"{path}: {exc}") from None


def _load_semantic_tsv(path: Path, catalog: Catalog) -> SemanticItemTable:
    rows: dict[str, np.ndarray] = {}

    def parse(line: str) -> None:
        item_id, tab, values = line.partition("\t")
        if not tab:
            raise DataError("expected item_id<TAB>f1,f2,...")
        if item_id in rows:
            raise DataError(f"repeated item {item_id!r}")
        try:
            vec = np.array([float(x) for x in values.split(",")], dtype=np.float64)
        except ValueError:
            raise DataError(f"values must be comma-separated numbers, got {values[:40]!r}") from None
        d2 = len(next(iter(rows.values()), vec))
        if vec.shape[0] != d2:
            raise DataError(f"width {vec.shape[0]} != {d2}")
        if not np.all(np.isfinite(vec)):
            raise DataError("non-finite value")
        rows[item_id] = vec

    read_records(path, "semantic embedding", parse)
    missing = [m.id for m in catalog.items if m.id not in rows]
    if missing:
        shown = ", ".join(missing[:10])
        raise DataError(f"{path}: missing embeddings for {len(missing)} items: {shown}")
    matrix = np.stack([rows[m.id] for m in catalog.items])
    return SemanticItemTable(matrix=matrix)


def save_semantic_tsv(path, catalog: Catalog, matrix: np.ndarray) -> None:
    with Path(path).open("w") as fh:
        for meta, row in zip(catalog.items, matrix):
            fh.write(meta.id + "\t" + ",".join(repr(float(x)) for x in row) + "\n")


def save_semantic_binary(path, matrix: np.ndarray) -> None:
    n, d2 = matrix.shape
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", n, d2))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def fit_projection(semantic: SemanticItemTable, d1: int) -> Projection:
    """Top-d1 principal directions of the centered semantic matrix X_c.

    One symmetric eigendecomposition of the d2 x d2 Gram matrix X_c^T X_c:
    its eigenvectors in descending eigenvalue order are the basis, and past
    the rank (zero-variance directions) they already complete it
    orthonormally, with a warning when the rank is below d1. Eigenvalues
    are squared singular values and eigh on a Gram matrix carries noise
    near eps * lambda_max, so the rank counts eigenvalues above
    lambda_max * max(n, d2) * eps; squaring a singular-value tolerance
    would put the cutoff below that noise and count it as rank.

    Sign convention: the largest-magnitude entry of each basis column is
    positive. This fixes a column only where its eigenvalue is distinct;
    inside a repeated eigenvalue (the zero-variance completion included)
    any rotation of the eigenspace is as valid.
    """
    n, d2 = semantic.matrix.shape
    if d1 > min(n, d2):
        raise DataError(f"d1={d1} exceeds min(n={n}, d2={d2})")
    mean = semantic.matrix.mean(axis=0)
    centered = semantic.matrix - mean
    lam, vec = np.linalg.eigh(centered.T @ centered)
    lam, basis = lam[::-1], vec[:, ::-1][:, :d1]  # descending; (d2, d1)
    rank = int(np.sum(lam > lam[0] * max(n, d2) * np.finfo(np.float64).eps))
    if rank < d1:
        warnings.warn(f"semantic matrix rank {rank} < d1={d1}; padding with orthonormal completion")
    peaks = basis[np.argmax(np.abs(basis), axis=0), np.arange(d1)]
    return Projection(basis=basis * np.where(peaks < 0, -1.0, 1.0), mean=mean)

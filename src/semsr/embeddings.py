"""Item embedding tables: the frozen semantic table, a deterministic
pseudo-encoder used when no real embedding export is available, and the
PCA bridge that seeds the trainable table from semantic vectors.

Semantic embedding exports come in two formats:
  TSV:     item_id<TAB>f1,f2,...,fd2
  binary:  magic "SEMB1", n (u64 LE), d2 (u64 LE), then n*d2 float32 LE
           row-major, rows in catalog dense-index order
The binary payload is `f32_bytes` of the matrix, as in every checkpoint blob.
"""

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass, field
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
    fingerprint: str = field(init=False)  # always the hash of `matrix`, never taken on trust

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if not np.all(np.isfinite(self.matrix)):
            raise DataError("semantic table contains non-finite values")
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
    return SemanticItemTable(matrix=_encode_rows(catalog.items, lambda m: pseudo_encode(m, d2)))


def _encode_rows(items: list[ItemMeta], encode) -> np.ndarray:
    """encode(item) of each item, filled into one float64 array at the first
    row's shape; a row of another shape is a DataError naming its item."""
    table = None
    for i, item in enumerate(items):
        row = np.asarray(encode(item))
        if table is None:
            table = np.empty((len(items), *row.shape))
        if row.shape != table.shape[1:]:
            raise DataError(f"the embedding of item {i} has shape {row.shape}, expected {table.shape[1:]}")
        table[i] = row
    return table


def load_semantic_table(path, catalog: Catalog) -> SemanticItemTable:
    """Load a semantic embedding export (TSV or binary), rows ordered by
    dense index. Every catalog item must be covered."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"semantic embedding file not found: {path}")
    with path.open("rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            return _load_semantic_tsv(path, catalog)
    matrix = read_f32(path, path.read_bytes(), len(_MAGIC), 2)  # the bytes are freed on return
    if matrix.shape[0] != catalog.n:
        raise DataError(f"{path}: file has {matrix.shape[0]} rows, catalog has {catalog.n} items")
    if matrix.shape[1] == 0:
        raise DataError(f"{path}: semantic width d2 is 0")
    return SemanticItemTable(matrix=matrix)


def f32_bytes(array) -> bytes:
    """`array`'s dims as u64 LE, then its values as float32 LE, row-major."""
    values = np.asarray(array, dtype="<f4")  # tobytes is row-major for any layout; a 0-d array stays 0-d
    return struct.pack(f"<{values.ndim}Q", *values.shape) + values.tobytes()


def read_f32(path, raw: bytes, offset: int, rank: int) -> np.ndarray:
    """The float64 array that `f32_bytes` wrote at raw[offset:] for a rank-`rank`
    array. Any other length, a non-finite value or dims numpy cannot hold is a
    DataError naming `path`."""
    start = offset + 8 * rank
    if len(raw) < start:
        raise DataError(f"{path}: {len(raw)} bytes is shorter than its header")
    dims = struct.unpack_from(f"<{rank}Q", raw, offset)
    end = start + 4 * math.prod(dims)
    if len(raw) != end:
        raise DataError(f"{path}: dims {dims} need {end} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", offset=start)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: non-finite values")
    try:
        return data.astype(np.float64).reshape(dims)
    except ValueError:  # an empty payload under dims like (2**62, 0)
        raise DataError(f"{path}: dims {dims} are too large") from None


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
    Path(path).write_bytes(_MAGIC + f32_bytes(matrix))


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

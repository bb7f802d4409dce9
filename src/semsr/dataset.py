"""Session log ingestion, frequency filtering, user-grouped splits, and
incremental (prefix, target) expansion.

Input files are JSON-lines:
  sessions:  {"session_id": "...", "user_id": "...", "items": ["id", ...]}
  metadata:  {"id": "...", "title": "...", "brand": ..., "category": ...,
              "price": ..., "color": ..., "description": ...}
"""

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError

SPLITS = ("train", "val", "test")


@dataclass
class ItemMeta:
    id: str
    title: str
    brand: str | None = None
    category: str | None = None
    color: str | None = None
    price: float | None = None
    description: str | None = None


@dataclass
class RawSession:
    """A session as read from disk: item ids are still external strings."""

    id: str
    items: list[str]
    user_id: str | None = None


@dataclass
class Session:
    """A preprocessed session over dense item indices."""

    id: str
    items: list[int]
    user_id: str | None = None
    split: str | None = None


@dataclass
class Example:
    prefix: list[int]
    target: int


@dataclass
class Catalog:
    """The item universe: dense indices 0..n-1 over surviving items."""

    items: list[ItemMeta]
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {m.id: j for j, m in enumerate(self.items)}
        if len(self.index) != len(self.items):
            raise DataError("duplicate item ids in catalog")

    @property
    def n(self) -> int:
        return len(self.items)

    def title(self, idx: int) -> str:
        return self.items[idx].title


def load_metadata(path) -> dict[str, ItemMeta]:
    """Parse the item metadata file into a map from external id to ItemMeta."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"metadata file not found: {path}")
    out: dict[str, ItemMeta] = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or not rec.get("id"):
                raise DataError(f"{path}:{lineno}: missing item 'id'")
            if not rec.get("title"):
                raise DataError(f"{path}:{lineno}: missing item 'title'")
            price = rec.get("price")
            try:
                price = float(price) if price is not None else None
            except (TypeError, ValueError):
                raise DataError(f"{path}:{lineno}: 'price' is not a number ({price!r})") from None
            meta = ItemMeta(
                id=str(rec["id"]),
                title=str(rec["title"]),
                brand=rec.get("brand"),
                category=rec.get("category"),
                color=rec.get("color"),
                price=price,
                description=rec.get("description"),
            )
            if meta.id in out:
                warnings.warn(f"{path}:{lineno}: duplicate metadata for item {meta.id}; keeping first")
                continue
            out[meta.id] = meta
    if not out:
        raise DataError(f"metadata file is empty: {path}")
    return out


def ingest_sessions(path) -> list[RawSession]:
    """Parse a session log file, preserving file order.

    Malformed lines raise DataError naming the line number. Duplicate
    session ids are kept (a warning is emitted).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"session file not found: {path}")
    sessions: list[RawSession] = []
    seen_ids: set[str] = set()
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or "session_id" not in rec:
                raise DataError(f"{path}:{lineno}: missing 'session_id'")
            if "items" not in rec or not isinstance(rec["items"], list) or not rec["items"]:
                raise DataError(f"{path}:{lineno}: missing or empty 'items'")
            sid = str(rec["session_id"])
            if sid in seen_ids:
                warnings.warn(f"{path}:{lineno}: duplicate session_id {sid}")
            seen_ids.add(sid)
            user = rec.get("user_id")
            sessions.append(
                RawSession(id=sid, items=[str(i) for i in rec["items"]], user_id=str(user) if user else None)
            )
    if not sessions:
        raise DataError(f"session file is empty: {path}")
    return sessions


def preprocess(
    sessions: list[RawSession],
    metadata: dict[str, ItemMeta],
    min_item_freq: int = 5,
    min_session_len: int = 2,
) -> tuple[Catalog, list[Session]]:
    """Filter rare items and short sessions, then index the survivors.

    Items without metadata are dropped up front. Item-frequency and
    session-length filtering interact (removing an item can shorten a
    session below the cutoff, and dropping a session lowers frequencies),
    so the two rules are applied repeatedly until a fixed point.
    """
    if min_item_freq < 1:
        raise DataError("min_item_freq must be >= 1")
    if min_session_len < 2:
        raise DataError("min_session_len must be >= 2")

    unknown = {i for s in sessions for i in s.items if i not in metadata}
    if unknown:
        warnings.warn(f"dropping {len(unknown)} item ids without metadata")

    current: list[tuple[RawSession, list[str]]] = []
    for s in sessions:
        seq = [i for i in s.items if i in metadata]
        if len(seq) >= min_session_len:
            current.append((s, seq))

    while True:
        freq = Counter(i for _, seq in current for i in seq)
        keep = {i for i, c in freq.items() if c >= min_item_freq}
        nxt: list[tuple[RawSession, list[str]]] = []
        changed = False
        for s, seq in current:
            filtered = [i for i in seq if i in keep]
            if len(filtered) < min_session_len:
                changed = True
                continue
            if len(filtered) != len(seq):
                changed = True
            nxt.append((s, filtered))
        current = nxt
        if not changed:
            break

    if not current:
        raise DataError("empty dataset after preprocessing")

    surviving = sorted({i for _, seq in current for i in seq})
    catalog = Catalog(items=[metadata[i] for i in surviving])
    out = [
        Session(id=s.id, items=[catalog.index[i] for i in seq], user_id=s.user_id)
        for s, seq in current
    ]
    return catalog, out


def _apportion(total: int, ratios: tuple[float, ...]) -> list[int]:
    # Largest-remainder apportionment; ties go to the earlier split.
    base = [math.floor(r * total) for r in ratios]
    rem = total - sum(base)
    fractions = sorted(range(len(ratios)), key=lambda i: (-(ratios[i] * total - base[i]), i))
    for i in fractions[:rem]:
        base[i] += 1
    return base


def split_by_user(
    sessions: list[Session],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[Session], list[Session], list[Session]]:
    """Assign whole users (or sessions, when no user id) to train/val/test.

    All sessions sharing a grouping key land in the same split; key counts
    per split stay within one of the exact ratio. Deterministic for a seed.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError("split ratios must sum to 1")
    keys = sorted({s.user_id or s.id for s in sessions})
    if len(keys) < 3:
        raise DataError("need at least 3 grouping keys to split")
    rng = np.random.default_rng(seed)
    order = list(keys)
    rng.shuffle(order)
    counts = _apportion(len(order), ratios)
    assignment: dict[str, str] = {}
    start = 0
    for split, count in zip(SPLITS, counts):
        for key in order[start : start + count]:
            assignment[key] = split
        start += count
    buckets: dict[str, list[Session]] = {s: [] for s in SPLITS}
    for s in sessions:
        split = assignment[s.user_id or s.id]
        buckets[split].append(replace(s, split=split))
    return buckets["train"], buckets["val"], buckets["test"]


def expand_incremental(sessions: list[Session]) -> list[Example]:
    """Expand sessions into (prefix, target) examples.

    Training sessions (i1..im) yield all m-1 incremental prefixes; val and
    test sessions yield a single example with the last item as target.
    """
    examples: list[Example] = []
    for s in sessions:
        if s.split not in SPLITS:
            raise DataError(f"session {s.id} has no split assigned")
        if len(s.items) < 2:
            raise DataError(f"session {s.id} shorter than 2 items")
        if s.split == "train":
            for k in range(1, len(s.items)):
                examples.append(Example(prefix=list(s.items[:k]), target=s.items[k]))
        else:
            examples.append(Example(prefix=list(s.items[:-1]), target=s.items[-1]))
    return examples


def dataset_manifest(catalog: Catalog, splits: dict[str, list[Session]], seed: int) -> dict:
    """Summary statistics of a preprocessed dataset (counts and avg length)."""
    all_sessions = [s for part in splits.values() for s in part]
    avg_len = sum(len(s.items) for s in all_sessions) / len(all_sessions)
    manifest = {
        "n_items": catalog.n,
        "avg_session_len": avg_len,
        "seed": seed,
    }
    for name in SPLITS:
        part = splits.get(name, [])
        manifest[f"n_{name}"] = len(part)
        manifest[f"n_{name}_examples"] = sum(
            max(len(s.items) - 1, 0) if name == "train" else 1 for s in part
        )
    return manifest


def save_catalog(path, catalog: Catalog) -> None:
    with Path(path).open("w") as fh:
        for meta in catalog.items:
            rec = {k: v for k, v in vars(meta).items() if v is not None}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_catalog(path) -> Catalog:
    path = Path(path)
    if not path.exists():
        raise DataError(f"catalog file not found: {path}")
    items = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    items.append(ItemMeta(**json.loads(line)))
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}:{lineno}: malformed catalog record ({exc})") from None
    return Catalog(items=items)


def save_sessions(path, sessions: list[Session]) -> None:
    with Path(path).open("w") as fh:
        for s in sessions:
            rec = {"session_id": s.id, "user_id": s.user_id, "items": s.items, "split": s.split}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_sessions(path, split: str | None = None) -> list[Session]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"split file not found: {path}")
    out = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                session = Session(
                    id=rec["session_id"],
                    items=[int(i) for i in rec["items"]],
                    user_id=rec.get("user_id"),
                    split=rec.get("split") or split,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed session record ({exc!r})") from None
            out.append(session)
    return out


def check_session_items(path, sessions: list[Session], n: int) -> None:
    """Raise DataError naming the line of `path` (as read by load_sessions)
    whose session has an item outside the catalog's 0..n-1."""
    bad = [i for i, s in enumerate(sessions) if any(not 0 <= item < n for item in s.items)]
    if bad:
        with Path(path).open() as fh:
            lineno = [k for k, line in enumerate(fh, start=1) if line.strip()][bad[0]]
        raise DataError(f"{path}:{lineno}: item outside the catalog's 0..{n - 1}")

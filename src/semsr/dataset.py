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
from dataclasses import dataclass, field, fields, replace
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


def read_records(path, what: str, parse) -> list:
    """`parse(line)`, line break removed, for each non-blank line of a UTF-8
    text file, in order. A missing file, a line that is not UTF-8, or a
    DataError from `parse` becomes one DataError naming "<path>:<line>:
    <what>"; `parse` reports each input fault it means to name as a
    DataError, so any other exception is a program fault and propagates."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    out = []
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode().rstrip("\r\n")
                if line.strip():
                    out.append(parse(line))
            except (DataError, UnicodeDecodeError) as exc:
                raise DataError(f"{path}:{lineno}: {what}: {exc}") from None
    return out


def json_object(line: str) -> dict:
    """The JSON object on one line; invalid JSON (a too-long integer
    included) or any other JSON value is a DataError."""
    try:
        rec = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise DataError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(rec, dict):
        raise DataError("record is not a JSON object")
    return rec


def _required(rec: dict, key: str):
    """rec[key]; a missing key is a DataError."""
    if key not in rec:
        raise DataError(f"missing {key!r}")
    return rec[key]


def _ident(value, name: str) -> str:
    """An external id: a JSON string, or an integer read as its digits."""
    if type(value) in (str, int):
        return str(value)
    raise DataError(f"{name} must be a string or an integer, got {value!r}")


def _item(rec: dict) -> ItemMeta:
    """One item record, as the metadata file and the catalog both hold it."""
    if rec.get("id") in (None, ""):
        raise DataError("missing item 'id'")
    title = rec.get("title")
    if type(title) is not str or not title:
        raise DataError(f"item 'title' must be a non-empty string, got {title!r}")
    price = rec.get("price")
    try:
        price = float(price) if price is not None else None
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"'price' is not a number ({price!r})") from None
    return ItemMeta(
        id=_ident(rec["id"], "item 'id'"),
        title=title,
        brand=rec.get("brand"),
        category=rec.get("category"),
        color=rec.get("color"),
        price=price,
        description=rec.get("description"),
    )


def load_metadata(path) -> dict[str, ItemMeta]:
    """Parse the item metadata file into a map from external id to ItemMeta;
    keys an item record does not use are ignored."""
    out: dict[str, ItemMeta] = {}
    for meta in read_records(path, "metadata", lambda line: _item(json_object(line))):
        if meta.id in out:
            warnings.warn(f"{path}: duplicate metadata for item {meta.id}; keeping first")
        else:
            out[meta.id] = meta
    if not out:
        raise DataError(f"metadata file is empty: {path}")
    return out


def _raw_session(line: str) -> RawSession:
    rec = json_object(line)
    items = _required(rec, "items")
    if not isinstance(items, list) or not items:
        raise DataError("'items' must be a non-empty list")
    user = rec.get("user_id")
    return RawSession(
        id=_ident(_required(rec, "session_id"), "'session_id'"),
        items=[_ident(i, "an item") for i in items],
        user_id=None if user in (None, "") else _ident(user, "'user_id'"),
    )


def ingest_sessions(path) -> list[RawSession]:
    """Parse a session log file, preserving file order.

    Malformed lines raise DataError naming the line number. Duplicate
    session ids are kept (a warning is emitted).
    """
    sessions = read_records(path, "session", _raw_session)
    if not sessions:
        raise DataError(f"session file is empty: {path}")
    seen_ids: set[str] = set()
    for s in sessions:
        if s.id in seen_ids:
            warnings.warn(f"{path}: duplicate session_id {s.id}")
        seen_ids.add(s.id)
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


def check_ratios(ratios: tuple[float, ...]) -> None:
    """The split-ratio rule: three values, each >= 0, that sum to 1."""
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError("ratios must be three values >= 0 that sum to 1")


def split_by_user(
    sessions: list[Session],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[Session], list[Session], list[Session]]:
    """Assign whole users (or sessions, when no user id) to train/val/test.

    All sessions sharing a grouping key land in the same split; key counts
    per split stay within one of the exact ratio. Deterministic for a seed.
    """
    check_ratios(ratios)
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


_ITEM_KEYS = frozenset(f.name for f in fields(ItemMeta))


def _catalog_item(line: str) -> ItemMeta:
    rec = json_object(line)
    meta = _item(rec)
    unknown = sorted(rec.keys() - _ITEM_KEYS)
    if unknown:
        raise DataError(f"unknown key {unknown[0]!r}")
    return meta


def load_catalog(path) -> Catalog:
    """Read a catalog written by save_catalog; keys ItemMeta lacks and a
    repeated id are errors naming their line."""
    seen: set[str] = set()

    def parse(line: str) -> ItemMeta:
        meta = _catalog_item(line)
        if meta.id in seen:
            raise DataError(f"duplicate item id {meta.id!r}")
        seen.add(meta.id)
        return meta

    return Catalog(items=read_records(path, "catalog", parse))


def save_sessions(path, sessions: list[Session]) -> None:
    with Path(path).open("w") as fh:
        for s in sessions:
            rec = {"session_id": s.id, "user_id": s.user_id, "items": s.items, "split": s.split}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_sessions(path, n: int, split: str | None = None) -> list[Session]:
    """Read a split file written by save_sessions over a catalog of n items;
    a session with an item outside 0..n-1 is an error naming its line."""

    def parse(line: str) -> Session:
        rec = json_object(line)
        items = _required(rec, "items")
        if not isinstance(items, list) or len(items) < 2 or any(type(i) is not int for i in items):
            raise DataError("'items' must be a list of at least 2 integers")
        if not 0 <= min(items) <= max(items) < n:
            raise DataError(f"item outside the catalog's 0..{n - 1}")
        return Session(
            id=_required(rec, "session_id"), items=items, user_id=rec.get("user_id"), split=rec.get("split") or split
        )

    return read_records(path, "session", parse)

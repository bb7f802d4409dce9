"""Session log ingestion, frequency filtering, user-grouped splits, and
incremental (prefix, target) expansion.

Input files are JSON-lines:
  sessions:  {"session_id": "...", "user_id": "...", "items": ["id", ...]}
  metadata:  {"id": "...", "title": "...", "brand": ..., "category": ...,
              "price": ..., "color": ..., "description": ...}
"""

import json
import math
import shutil
import warnings
from dataclasses import dataclass, field, fields
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import DataError, check_values

SPLITS = ("train", "val", "test")
RULES = {  # {name: (test, wanted)} of the values this module takes, for errors.check_values
    "min_item_freq": (lambda v: v >= 1, ">= 1"),
    "min_session_len": (lambda v: v >= 2, ">= 2"),
    "ratios": (lambda r: len(r) == 3 and all(x >= 0 for x in r) and abs(sum(r) - 1.0) <= 1e-9,
               "three values >= 0 that sum to 1"),
    "seed": (lambda v: v >= 0, ">= 0"),  # every seeded generator's rule
    "price": (lambda v: v is None or math.isfinite(float(v)), "a finite number"),  # NaN and Infinity are not JSON
}


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
class Example:
    prefix: list[int]
    target: int


def _offsets(lengths) -> np.ndarray:
    """(m+1,) int64 row offsets of m consecutive runs: run i is [o[i], o[i+1])."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class Sessions:
    """Sessions as columns, so a table of m sessions is a few objects, not
    m: session i holds items[offsets[i]:offsets[i+1]] (the cu_seqlens
    layout) and belongs to `split`. A raw table (ingest's) holds codes into
    `vocab`, the external item ids; an indexed one holds catalog indices
    and no vocab."""

    ids: list[str]
    users: list[str | None]
    items: np.ndarray  # (N,) int64
    offsets: np.ndarray  # (m+1,) int64
    split: str | None = None
    vocab: list[str] | None = None

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, keep: np.ndarray, split: str | None) -> "Sessions":
        """The sessions where the (m,) bool `keep` is set, in order, as `split`."""
        lengths = self.lengths
        return Sessions(
            ids=list(compress(self.ids, keep)), users=list(compress(self.users, keep)),
            items=self.items[np.repeat(keep, lengths)], offsets=_offsets(lengths[keep]), split=split, vocab=self.vocab,
        )


@dataclass(frozen=True, eq=False)
class Examples:
    """(prefix, target) examples as columns over their sessions: example j
    is the first cut[j] items of sessions[session[j]], and its target the
    item after them. `t[j]` (an int or np.integer) and iteration build an
    Example on access."""

    sessions: Sessions
    session: np.ndarray  # (E,) int64
    cut: np.ndarray  # (E,) int64

    def __len__(self) -> int:
        return len(self.cut)

    def __getitem__(self, j):
        start = self.sessions.offsets.item(self.session.item(j))  # .item: Python ints slice fast
        end = start + self.cut.item(j)
        return Example(prefix=self.sessions.items[start:end].tolist(), target=self.sessions.items.item(end))

    def __iter__(self):
        flat = self.sessions.items.tolist()
        starts = self.sessions.offsets[self.session]
        return (Example(prefix=flat[a:b], target=flat[b]) for a, b in zip(starts.tolist(), (starts + self.cut).tolist()))


@dataclass
class Catalog:
    """The item universe: dense indices 0..n-1 over surviving items."""

    items: list[ItemMeta]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
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


def write_records(path, records) -> None:
    """Write each record as one sorted-key JSON object per line, the form
    `read_records` with `json_object` reads back."""
    with Path(path).open("w") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; a missing file or bytes that are not UTF-8
    are a DataError naming the file."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what}: {exc}") from None


def json_object(line: str) -> dict:
    """The JSON object in one line or document; invalid JSON (a too-long
    integer included) or any other JSON value is a DataError."""
    try:
        rec = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise DataError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(rec, dict):
        raise DataError("record is not a JSON object")
    return rec


def write_json(path, payload) -> None:
    """Write `payload` in the one JSON encoding of reports and manifests:
    sorted keys, two-space indent and one trailing newline, so equal
    payloads give equal bytes."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def write_outputs(writers) -> None:
    """Write (target, writer) pairs together or not at all; two targets that
    resolve to one path are an OSError naming it. Each writer fills its
    target's sibling .<name>.new; then each staged entry replaces its
    target, a directory by way of .<name>.old. If a writer raises, or a
    target exists as the other kind of entry (an OSError naming it), the
    staged entries and made directories go before any target changes."""
    resolved = [Path(target).resolve() for target, _ in writers]
    for i, path in enumerate(resolved):
        if path in resolved[:i]:
            raise OSError(f"{path} is the target of two outputs")
    staged, made = {}, []
    try:
        for target, write in writers:
            target = Path(target)
            made += [p for p in target.parents if not p.exists()]
            target.parent.mkdir(parents=True, exist_ok=True)
            staged[target] = new = target.with_name(f".{target.name}.new")
            _remove(new)  # left by an interrupted run
            write(new)
        for target, new in staged.items():
            if target.exists() and target.is_dir() != new.is_dir():
                raise OSError(f"{target} is {'a directory' if target.is_dir() else 'not a directory'}")
    except BaseException:
        for path in [*staged.values(), *made]:
            _remove(path)
        raise
    for target, new in staged.items():
        old = target.with_name(f".{target.name}.old")
        _remove(old)
        if new.is_dir() and target.exists():
            target.rename(old)
        new.replace(target)
        _remove(old)


def read_json(path, what: str) -> dict:
    """The JSON object a whole UTF-8 file holds; a missing file, bytes that
    are not UTF-8, invalid JSON or another JSON value is a DataError naming
    the file."""
    text = read_text(path, what)
    try:
        return json_object(text)
    except DataError as exc:
        raise DataError(f"{path}: {what}: {exc}") from None


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
    check_values(RULES, price=price)
    return ItemMeta(
        id=_ident(rec["id"], "item 'id'"),
        title=title,
        brand=rec.get("brand"),
        category=rec.get("category"),
        color=rec.get("color"),
        price=None if price is None else float(price),
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


def _session_ids(rec: dict) -> tuple[str, str | None]:
    """A session record's id and user id: the id is required, and a missing
    or empty user id is None."""
    user = rec.get("user_id")
    return _ident(_required(rec, "session_id"), "'session_id'"), None if user in (None, "") else _ident(user, "'user_id'")


def ingest_sessions(path) -> Sessions:
    """Parse a session log file into a raw table, preserving file order.

    Malformed lines raise DataError naming the line number. Duplicate
    session ids are kept (a warning is emitted).
    """
    ids, users, items, vocab = [], [], [], {}

    def parse(line: str) -> int:
        rec = json_object(line)
        seq = _required(rec, "items")
        if not isinstance(seq, list) or not seq:
            raise DataError("'items' must be a non-empty list")
        session_id, user_id = _session_ids(rec)
        items.extend([vocab.setdefault(_ident(i, "an item"), len(vocab)) for i in seq])
        ids.append(session_id)
        users.append(user_id)
        return len(seq)

    lengths = read_records(path, "session", parse)
    if not lengths:
        raise DataError(f"session file is empty: {path}")
    seen_ids: set[str] = set()
    for session_id in ids:
        if session_id in seen_ids:
            warnings.warn(f"{path}: duplicate session_id {session_id}")
        seen_ids.add(session_id)
    return Sessions(ids, users, np.array(items, dtype=np.int64), _offsets(lengths), vocab=list(vocab))


def preprocess(
    sessions: Sessions,
    metadata: dict[str, ItemMeta],
    min_item_freq: int = 5,
    min_session_len: int = 2,
) -> tuple[Catalog, Sessions]:
    """Filter rare items and short sessions of a raw table, then index the
    survivors.

    Items without metadata are dropped up front. Item-frequency and
    session-length filtering interact (removing an item can shorten a
    session below the cutoff, and dropping a session lowers frequencies),
    so the two rules alternate until no item is rare. Removal only shrinks
    the data, so this fixed point does not depend on the order of removal.
    Both rules are counts over one keep-mask of the flat item codes.
    """
    check_values(RULES, min_item_freq=min_item_freq, min_session_len=min_session_len)
    codes, vocab, m = sessions.items, sessions.vocab, len(sessions)

    known = np.array([i in metadata for i in vocab], dtype=bool)
    unknown = np.count_nonzero(~known)
    if unknown:
        warnings.warn(f"dropping {unknown} item ids without metadata")

    owner = np.repeat(np.arange(m), sessions.lengths)  # the session of each item
    keep = known[codes]
    while True:
        lengths = np.bincount(owner[keep], minlength=m)
        keep &= (lengths >= min_session_len)[owner]
        freq = np.bincount(codes[keep], minlength=len(vocab))
        if not np.any((freq > 0) & (freq < min_item_freq)):
            break
        keep &= (freq >= min_item_freq)[codes]

    if not keep.any():
        raise DataError("empty dataset after preprocessing")

    order = sorted(np.flatnonzero(freq).tolist(), key=vocab.__getitem__)  # by external id
    catalog = Catalog(items=[metadata[vocab[c]] for c in order])
    index = np.zeros(len(vocab), dtype=np.int64)
    index[order] = np.arange(len(order))
    alive = lengths >= min_session_len
    return catalog, Sessions(
        ids=list(compress(sessions.ids, alive)), users=list(compress(sessions.users, alive)),
        items=index[codes[keep]], offsets=_offsets(lengths[alive]),
    )


def _apportion(total: int, ratios: tuple[float, ...]) -> list[int]:
    # Largest-remainder apportionment; ties go to the earlier split.
    base = [math.floor(r * total) for r in ratios]
    rem = total - sum(base)
    fractions = sorted(range(len(ratios)), key=lambda i: (-(ratios[i] * total - base[i]), i))
    for i in fractions[:rem]:
        base[i] += 1
    return base


def split_by_user(
    sessions: Sessions,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[Sessions, Sessions, Sessions]:
    """Assign whole users (or sessions, when no user id) to train/val/test.

    All sessions sharing a grouping key land in the same split; key counts
    per split stay within one of the exact ratio. Deterministic for a seed.
    """
    check_values(RULES, ratios=ratios, seed=seed)
    group = [user or session_id for user, session_id in zip(sessions.users, sessions.ids)]
    keys = sorted(set(group))
    if len(keys) < 3:
        raise DataError("need at least 3 grouping keys to split")
    np.random.default_rng(seed).shuffle(keys)
    assignment = dict(zip(keys, (j for j, count in enumerate(_apportion(len(keys), ratios)) for _ in range(count))))
    which = np.array([assignment[key] for key in group])
    return tuple(sessions.take(which == j, split) for j, split in enumerate(SPLITS))


def _cuts(sessions: Sessions) -> tuple[np.ndarray, np.ndarray]:
    """The (session, cut) pairs of a split's examples: every cut 1..L-1 of
    a train session of L items, else only L-1."""
    if len(sessions) and sessions.split not in SPLITS:
        raise DataError(f"session {sessions.ids[0]} has no split assigned")
    lengths = sessions.lengths
    short = np.flatnonzero(lengths < 2)
    if short.size:
        raise DataError(f"session {sessions.ids[short[0]]} shorter than 2 items")
    if sessions.split != "train":
        return np.arange(len(sessions)), lengths - 1
    session = np.repeat(np.arange(len(sessions)), lengths - 1)
    first = np.repeat(_offsets(lengths - 1)[:-1], lengths - 1)  # each example's session's first example
    return session, np.arange(len(session)) - first + 1


def expand_incremental(sessions: Sessions) -> Examples:
    """Expand sessions into (prefix, target) examples.

    Training sessions (i1..im) yield all m-1 incremental prefixes; val and
    test sessions yield a single example with the last item as target.
    """
    return Examples(sessions, *_cuts(sessions))


def dataset_manifest(catalog: Catalog, splits: dict[str, Sessions], seed: int) -> dict:
    """Summary statistics of a preprocessed dataset (counts and avg length)
    over its three splits."""
    parts = [splits[name] for name in SPLITS]
    manifest = {
        "n_items": catalog.n,
        "avg_session_len": sum(int(part.offsets[-1]) for part in parts) / sum(map(len, parts)),
        "seed": seed,
    }
    for name, part in zip(SPLITS, parts):
        manifest[f"n_{name}"] = len(part)
        manifest[f"n_{name}_examples"] = len(_cuts(part)[1])
    return manifest


def save_catalog(path, catalog: Catalog) -> None:
    write_records(path, ({k: v for k, v in vars(meta).items() if v is not None} for meta in catalog.items))


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


def save_sessions(path, sessions: Sessions) -> None:
    flat, bounds = sessions.items.tolist(), sessions.offsets.tolist()
    write_records(path, (
        {"session_id": session_id, "user_id": user, "items": flat[a:b], "split": sessions.split}
        for session_id, user, a, b in zip(sessions.ids, sessions.users, bounds, bounds[1:])
    ))


def load_sessions(path, n: int, split: str) -> Sessions:
    """Read the `split` file written by save_sessions over a catalog of n
    items; a session with an item outside 0..n-1, or with a "split" that
    differs from `split`, is an error naming its line."""
    ids, users, flat = [], [], []

    def parse(line: str) -> int:
        rec = json_object(line)
        own = rec.get("split")
        if own not in (None, split):
            raise DataError(f"'split' is {own!r} in a {split} file")
        items = _required(rec, "items")
        if not isinstance(items, list) or len(items) < 2 or any(type(i) is not int for i in items):
            raise DataError("'items' must be a list of at least 2 integers")
        if not 0 <= min(items) <= max(items) < n:
            raise DataError(f"item outside the catalog's 0..{n - 1}")
        session_id, user_id = _session_ids(rec)
        ids.append(session_id)
        users.append(user_id)
        flat.extend(items)
        return len(items)

    lengths = read_records(path, "session", parse)
    return Sessions(ids, users, np.array(flat, dtype=np.int64), _offsets(lengths), split=split)

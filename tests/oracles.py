"""Independent oracles: straight-line scalar implementations used to check
the vectorized code paths. Everything here sticks to plain Python floats
and lists on purpose, except the PCA reference, which needs an SVD, and
the one-pass NumPy forms of the row-blocked kernels, which the blocked
ones must equal bit for bit. None of it shares code with the package,
except the packed-rows attention (every head row projected, the backward
in one piece), which sums segments with the package's `_segment_sum`, and
the list-of-records dataset pipeline at the end (ingest_sessions to
dataset_manifest, the columnar tables' reference), which reads lines and
states value rules with the package's own helpers. Its session records,
RawSession and Session, are its own: the package holds sessions only as
columns."""

import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from semsr.dataset import (
    RULES,
    SPLITS,
    Catalog,
    Example,
    ItemMeta,
    _ident,
    _required,
    _session_ids,
    json_object,
    read_records,
)
from semsr.encoder import _segment_sum
from semsr.errors import DataError, check_values


def sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softmax_scalar(xs: list[float]) -> list[float]:
    m = max(xs)
    es = [math.exp(x - m) for x in xs]
    z = sum(es)
    return [e / z for e in es]


def matvec(M: list[list[float]], v: list[float]) -> list[float]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in M]


def dot(a: list[float], b: list[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def norm(v: list[float]) -> float:
    return math.sqrt(sum(x * x for x in v))


def unit(v: list[float]) -> list[float]:
    nv = norm(v)
    return [x / nv for x in v]


def scalar_attention(rows, q, c, W1, W2, W3):
    """Soft-attention encoder, step by step: the last row is the query, the
    earlier rows are attended, output is W3 [s'; last]."""
    L = len(rows)
    w = len(rows[0])
    last = rows[-1]
    if L == 1:
        alphas: list[float] = []
        s_prime = [0.0] * w
    else:
        raw = []
        w1_last = matvec(W1, last)
        for j in range(L - 1):
            u = [w1_last[i] + dot(W2[i], rows[j]) + c[i] for i in range(w)]
            h = [sigmoid_scalar(x) for x in u]
            raw.append(dot(q, h))
        alphas = softmax_scalar(raw)
        s_prime = [sum(alphas[j] * rows[j][i] for j in range(L - 1)) for i in range(w)]
    cat = list(s_prime) + list(last)
    out = matvec(W3, cat)
    return out, alphas


def scalar_backbone(raw_rows, tensors):
    """Reference backbone: normalize rows, attention at d1, normalize out."""
    v = [unit(r) for r in raw_rows]
    z, _ = scalar_attention(v, tensors["q"], tensors["c"], tensors["W1"], tensors["W2"], tensors["W3"])
    return unit(z)


def scalar_score_all(prefix, params, semantic_matrix=None):
    """Relevance probabilities computed entirely with scalar arithmetic.

    `params` is a ModelParams; tensors are pulled out as nested lists so
    no numpy code from the package is reused.
    """
    t = {k: v.tolist() for k, v in params.tensors.items()}
    table = t["item_table"]
    bb = {k: t[f"bb.{k}"] for k in ("q", "c", "W1", "W2", "W3")}
    raw_rows = [table[i] for i in prefix]
    s_m = scalar_backbone(raw_rows, bb)
    n = len(table)
    if params.variant == "sem-f":
        sem = semantic_matrix.tolist()
        s_l, _ = scalar_attention(
            [sem[i] for i in prefix], t["attn.q"], t["attn.c"], t["attn.W1"], t["attn.W2"], t["attn.W3"]
        )
        s = matvec(t["W4"], list(s_m) + list(s_l))
        logits = [dot(matvec(t["W5"], list(table[k]) + list(sem[k])), s) for k in range(n)]
    else:
        logits = [params.scale * dot(unit(table[k]), s_m) for k in range(n)]
    return softmax_scalar(logits)


def svd_projection(matrix: np.ndarray, d1: int):
    """Reference PCA by a different factorization: the top-d1 right singular
    vectors of the thin SVD of the centered matrix, each column's
    largest-magnitude entry made positive. Only for inputs of rank >= d1.
    Returns (basis (d2, d1), mean (d2,))."""
    mean = matrix.mean(axis=0)
    _, _, vt = np.linalg.svd(matrix - mean, full_matrices=False)
    basis = vt[:d1].T.copy()
    for j in range(d1):
        if basis[np.argmax(np.abs(basis[:, j])), j] < 0:
            basis[:, j] = -basis[:, j]
    return basis, mean


def softmax_one_pass(x: np.ndarray) -> np.ndarray:
    """encoder.softmax over the whole array at once, along the last axis."""
    mx = np.max(x, axis=-1, keepdims=True, initial=-np.inf)
    ex = np.exp(x - np.where(np.isneginf(mx), 0.0, mx))
    total = np.sum(ex, axis=-1, keepdims=True)
    return ex / np.where(total == 0, 1.0, total)


def normalize_rows_one_pass(rows: np.ndarray):
    """encoder.normalize_rows over the whole array at once: (unit, norms)."""
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / norms, norms


def index_one_pass(rows) -> np.ndarray:
    """retrieval.build_index's matrix from its rows the one-pass way: stack
    them, then divide by np.linalg.norm along each row."""
    table = np.stack(rows)
    return table / np.linalg.norm(table, axis=1)[:, None]


def normalize_rows_backward_one_pass(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """encoder.normalize_rows_backward over the whole array at once."""
    return (d_unit - unit * np.sum(unit * d_unit, axis=-1, keepdims=True)) / norms


def sigmoid_where(x: np.ndarray) -> np.ndarray:
    """encoder.sigmoid's earlier formula, whose bits the two-array form keeps."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def attention_forward_packed(rows: np.ndarray, p: dict[str, np.ndarray], lengths: np.ndarray):
    """encoder.attention_forward on the gathered rows (R, w) themselves: every
    head row goes through the W2 product. Returns (out, alphas, cache)."""
    sizes = np.asarray(lengths)
    n_head = sizes - 1  # (B,)
    seg = np.repeat(np.arange(len(sizes)), n_head)  # (H,): each head row's prefix
    last_idx = np.cumsum(sizes) - 1  # (B,): each query row
    head_idx = np.arange(len(seg)) + seg  # (H,): prefix b's head rows sit after b query rows
    head, last = rows[head_idx], rows[last_idx]  # (H, w), (B, w)
    h = sigmoid_where(head @ p["W2"].T + (last @ p["W1"].T + p["c"])[seg])  # (H, w)
    pos = head_idx - (last_idx - n_head)[seg]  # (H,): place in its head
    raw = np.full((len(sizes), n_head.max()), -np.inf)
    raw[seg, pos] = h @ p["q"]
    alphas = softmax_one_pass(raw)[seg, pos]  # (H,)
    cat = np.concatenate([_segment_sum(alphas[:, None] * head, n_head), last], axis=1)  # [s'; e_L] (B, 2w)
    out = cat @ p["W3"].T  # (B, w)
    cache = {"head": head, "last": last, "head_idx": head_idx, "last_idx": last_idx, "seg": seg,
             "n_head": n_head, "h": h, "alphas": alphas, "cat": cat, "params": p}
    return out, alphas, cache


def attention_backward_packed(cache: dict, d_out: np.ndarray):
    """Backward pass of attention_forward_packed in one piece: (grads, d_rows (R, w))."""
    p, head, last, h, alphas, seg = (cache[k] for k in ("params", "head", "last", "h", "alphas", "seg"))
    w = head.shape[1]
    dcat = d_out @ p["W3"]  # (B, 2w)
    ds_prime = dcat[:, :w]
    dalphas = np.einsum("ij,ij->i", head, ds_prime[seg])  # (H,)
    # softmax jacobian, per prefix: da = alpha * (dalpha - <alpha, dalpha>)
    draw = alphas * (dalphas - _segment_sum(alphas * dalphas, cache["n_head"])[seg])
    du = draw[:, None] * p["q"] * h * (1.0 - h)  # (H, w)
    du_sum = _segment_sum(du, cache["n_head"])  # (B, w)
    grads = {"q": draw @ h, "c": du_sum.sum(axis=0), "W1": du_sum.T @ last, "W2": du.T @ head, "W3": d_out.T @ cache["cat"]}
    d_rows = np.empty((len(head) + len(last), w))
    d_rows[cache["head_idx"]] = alphas[:, None] * ds_prime[seg] + du @ p["W2"]
    d_rows[cache["last_idx"]] = dcat[:, w:] + du_sum @ p["W1"]
    return grads, d_rows


def cross_entropy_one_pass(logits: np.ndarray, targets: np.ndarray):
    """train.cross_entropy over the whole batch at once: (losses, delta)."""
    B = len(logits)
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    losses = lse - logits[np.arange(B), targets]
    delta = np.exp(logits - lse[:, None])
    delta[np.arange(B), targets] -= 1.0
    delta /= B
    return losses, delta


def adam_one_pass(tensor, g, m, v, t, lr, beta1, beta2, eps) -> None:
    """train.adam_step's update of one tensor over the whole tensor at once,
    in place on tensor, m and v."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    tensor -= lr * m_hat / (np.sqrt(v_hat) + eps)


def scalar_adam(theta0, grads_per_step, lr, beta1, beta2, eps):
    """Reference Adam on a single scalar parameter."""
    theta = theta0
    m = v = 0.0
    for t, g in enumerate(grads_per_step, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def numeric_grad(loss_fn, tensor, h: float = 1e-4):
    """Central finite differences over every entry of `tensor` in place."""
    flat = tensor.reshape(-1)
    out = [0.0] * flat.size
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        out[i] = (lp - lm) / (2 * h)
    return out


def rr_at_k(items, target: int, k: int) -> float:
    """Truncated reciprocal rank by linear scan: 1/rank of the target among
    the first k items, 0.0 when it is not there."""
    for pos, item in enumerate(list(items)[:k], start=1):
        if item == target:
            return 1.0 / pos
    return 0.0


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


# The list-of-records dataset pipeline the columnar tables replace, one
# record object per session and per example.


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


def _raw_session(line: str) -> RawSession:
    rec = json_object(line)
    items = _required(rec, "items")
    if not isinstance(items, list) or not items:
        raise DataError("'items' must be a non-empty list")
    session_id, user_id = _session_ids(rec)
    return RawSession(id=session_id, items=[_ident(i, "an item") for i in items], user_id=user_id)


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
    so the two rules alternate until no item is rare. Removal only shrinks
    the data, so this fixed point does not depend on the order of removal.
    """
    check_values(RULES, min_item_freq=min_item_freq, min_session_len=min_session_len)

    unknown = {i for s in sessions for i in s.items if i not in metadata}
    if unknown:
        warnings.warn(f"dropping {len(unknown)} item ids without metadata")

    kept = [(s, [i for i in s.items if i in metadata]) for s in sessions]
    while True:
        kept = [(s, seq) for s, seq in kept if len(seq) >= min_session_len]
        freq = Counter(i for _, seq in kept for i in seq)
        if all(c >= min_item_freq for c in freq.values()):
            break
        kept = [(s, [i for i in seq if freq[i] >= min_item_freq]) for s, seq in kept]

    if not kept:
        raise DataError("empty dataset after preprocessing")

    catalog = Catalog(items=[metadata[i] for i in sorted(freq)])
    return catalog, [Session(id=s.id, items=[catalog.index[i] for i in seq], user_id=s.user_id) for s, seq in kept]


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
    check_values(RULES, ratios=ratios, seed=seed)
    keys = sorted({s.user_id or s.id for s in sessions})
    if len(keys) < 3:
        raise DataError("need at least 3 grouping keys to split")
    np.random.default_rng(seed).shuffle(keys)
    names = [split for split, count in zip(SPLITS, _apportion(len(keys), ratios)) for _ in range(count)]
    assignment = dict(zip(keys, names))
    buckets: dict[str, list[Session]] = {s: [] for s in SPLITS}
    for s in sessions:
        split = assignment[s.user_id or s.id]
        buckets[split].append(replace(s, split=split))
    return buckets["train"], buckets["val"], buckets["test"]


def _targets(s: Session) -> range:
    """The target positions of `s`: all but the first in train, else the last."""
    if s.split not in SPLITS:
        raise DataError(f"session {s.id} has no split assigned")
    if len(s.items) < 2:
        raise DataError(f"session {s.id} shorter than 2 items")
    return range(1 if s.split == "train" else len(s.items) - 1, len(s.items))


def expand_incremental(sessions: list[Session]) -> list[Example]:
    """Expand sessions into (prefix, target) examples.

    Training sessions (i1..im) yield all m-1 incremental prefixes; val and
    test sessions yield a single example with the last item as target.
    """
    return [Example(prefix=s.items[:k], target=s.items[k]) for s in sessions for k in _targets(s)]


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
        manifest[f"n_{name}_examples"] = sum(len(_targets(s)) for s in part)
    return manifest

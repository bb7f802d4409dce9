"""Session encoders.

Two views of a session are produced from the same soft-attention
mechanism at different widths:

  semantic view  -- attention over frozen semantic rows (width d2)
  backbone view  -- pluggable f(.; theta); the reference "attn-niser"
                    backbone runs the attention at width d1 over
                    L2-normalized trainable rows and L2-normalizes its
                    output

Attention over a prefix (e_1..e_L): the last item is the query. For
j = 1..L-1, raw weight a_j = q^T sigmoid(W1 e_L + W2 e_j + c); the a_j are
softmax-normalized into alpha, pooled into s' = sum_j alpha_j e_j, and the
output is W3 [s'; e_L]. A length-1 prefix has an empty attention set, so
s' = 0 and the output is W3 [0; e_L].

Every encoder works on a packed batch: rows (R, w) hold the real rows of
B prefixes back to back, `lengths` (B,) rows each, and each prefix's
query is its own last row. attention_forward takes those rows as
table[items], the packed item indices (R,) and the table they index, and
gathers the head rows (H, w) and query rows (B, w) from the table itself.
There is no padding: the W1/W2/W3 products and the sigmoid run on those
rows as 2-D GEMMs, only the (H,) raw weights are laid out (B, max L-1)
for the softmax, and s' is a segment sum over each prefix's head rows. A
prefix of length 1 has no head rows and gets s' = 0. The W2 product, a
row-wise map, runs once per distinct head item and is gathered back to
the head rows: the semantic view's prefixes repeat items of one frozen
table, while the backbone passes items = arange(R) over its own rows, so
its products are exactly the per-row ones.

Weights are plain dicts of named tensors (init_attention_tensors; a
backbone names its own). Forward passes return caches consumed by the
matching backward passes. The attention's backward has two halves:
attention_backward gives the weight gradients summed over the batch and
the pieces attention_rows_backward turns into one gradient per input row,
which only a trainable table asks for (the frozen semantic table never
does). Gradients are derived by hand (no autodiff anywhere in the
package); softmax and normalize_rows with its Jacobian are written once,
here, and shared with the scoring side.

Row-wise chains (softmax, normalize_rows and its backward; in train the
cross-entropy and Adam) run whole per row_blocks slice of about BLOCK_BYTES,
into one preallocated output, so a megabytes-wide (B, n) logit array or
(n, d1) table is not streamed through memory once per NumPy call. Each block
applies the same operations in the same order to whole rows, and every
reduction is within a row: results are bitwise those of the one-pass chain.
"""

import numpy as np

from .errors import DataError, NumericError


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form avoids overflow in exp for large |x|: 1 / (1 + e^-x)
    # for x >= 0 and e^x / (1 + e^x) below, both with e = exp(-|x|). As
    # e <= 1, max(e, x >= 0) is that numerator (NaN stays NaN), so two
    # arrays carry the whole chain and x is left as it was.
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    top = np.maximum(e, x >= 0)
    return np.divide(top, np.add(e, 1.0, out=e), out=top)


BLOCK_BYTES = 1 << 18  # float64 bytes per row block: well inside a 1-2 MB L2 cache


def row_blocks(n_rows: int, row_len: int):
    """Consecutive slices over n_rows float64 rows of row_len values, ~BLOCK_BYTES (>= 1 row) each."""
    step = max(1, BLOCK_BYTES // (8 * max(row_len, 1)))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis; an all -inf row (empty attention set) gives zeros."""
    rows = np.atleast_2d(x)
    out = np.empty(rows.shape)
    for b in row_blocks(*rows.shape):
        mx = np.max(rows[b], axis=-1, keepdims=True, initial=-np.inf)
        ex = np.exp(rows[b] - np.where(np.isneginf(mx), 0.0, mx))
        total = np.sum(ex, axis=-1, keepdims=True)
        np.divide(ex, np.where(total == 0, 1.0, total), out=out[b])
    return out.reshape(x.shape)


def attention_shapes(width: int) -> dict[str, tuple[int, ...]]:
    """Shape of each attention weight at width w, in init_attention_tensors' order."""
    return {"q": (width,), "c": (width,), "W1": (width, width), "W2": (width, width), "W3": (width, 2 * width)}


def init_attention_tensors(width: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The attention weights at width w, drawn in this order: q (w,) and
    c (w,), the raw-weight vector and bias; W1 (w, w) on the query row;
    W2 (w, w) on the head rows; W3 (w, 2w) on [s'; e_L]. Each is
    Uniform(-1/sqrt(w), 1/sqrt(w)), the usual SR init."""
    stdv = 1.0 / np.sqrt(width)
    return {name: rng.uniform(-stdv, stdv, size=shape) for name, shape in attention_shapes(width).items()}


def _segment_sum(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of x's rows, sizes[i] rows in run i; an
    empty run sums to 0. One slice sum per run: np.add.reduceat measured
    about 10x slower at width 1024 (numpy 2.4)."""
    return np.array([x[end - size : end].sum(axis=0) for end, size in zip(np.cumsum(sizes).tolist(), sizes.tolist())])


def attention_forward(items: np.ndarray, table: np.ndarray, p: dict[str, np.ndarray], lengths: np.ndarray):
    """Run the attention encoder with weights `p` (as from
    init_attention_tensors) over the packed prefix rows table[items] (R, w),
    `lengths` (B,) rows per prefix. The head rows' W2 product is taken once
    per distinct item of `items` and gathered back.

    Returns (out (B, w), alphas (H,), cache); alphas are packed like the
    head rows, each prefix's L-1 weights back to back.
    """
    sizes = np.asarray(lengths)
    n_head = sizes - 1  # (B,)
    seg = np.repeat(np.arange(len(sizes)), n_head)  # (H,): each head row's prefix
    last_idx = np.cumsum(sizes) - 1  # (B,): each query row
    head_idx = np.arange(len(seg)) + seg  # (H,): prefix b's head rows sit after b query rows
    head_items = items[head_idx]
    distinct, inverse = np.unique(head_items, return_inverse=True)  # head_items == distinct[inverse]
    head, last = table[head_items], table[items[last_idx]]  # (H, w), (B, w)
    h = sigmoid((table[distinct] @ p["W2"].T)[inverse] + (last @ p["W1"].T + p["c"])[seg])  # (H, w)
    pos = head_idx - (last_idx - n_head)[seg]  # (H,): place in its head
    raw = np.full((len(sizes), n_head.max()), -np.inf)
    raw[seg, pos] = h @ p["q"]
    alphas = softmax(raw)[seg, pos]  # (H,)
    cat = np.concatenate([_segment_sum(alphas[:, None] * head, n_head), last], axis=1)  # [s'; e_L] (B, 2w)
    out = cat @ p["W3"].T  # (B, w)
    cache = {"head": head, "last": last, "head_idx": head_idx, "last_idx": last_idx, "seg": seg,
             "n_head": n_head, "h": h, "alphas": alphas, "cat": cat, "params": p}
    return out, alphas, cache


def attention_backward(cache: dict, d_out: np.ndarray):
    """Weight half of attention_forward's backward pass.

    Returns (grads, pieces): grads maps q/c/W1/W2/W3 to their gradients
    summed over the batch; pieces (dcat (B, 2w), du (H, w), du_sum (B, w))
    are what attention_rows_backward needs for the input rows' gradient.
    """
    p, head, last, h, alphas, seg = (cache[k] for k in ("params", "head", "last", "h", "alphas", "seg"))
    w = head.shape[1]
    dcat = d_out @ p["W3"]  # (B, 2w)
    dalphas = np.einsum("ij,ij->i", head, dcat[:, :w][seg])  # (H,)
    # softmax jacobian, per prefix: da = alpha * (dalpha - <alpha, dalpha>)
    draw = alphas * (dalphas - _segment_sum(alphas * dalphas, cache["n_head"])[seg])
    du = draw[:, None] * p["q"] * h * (1.0 - h)  # (H, w)
    du_sum = _segment_sum(du, cache["n_head"])  # (B, w)
    grads = {"q": draw @ h, "c": du_sum.sum(axis=0), "W1": du_sum.T @ last, "W2": du.T @ head, "W3": d_out.T @ cache["cat"]}
    return grads, {"dcat": dcat, "du": du, "du_sum": du_sum}


def attention_rows_backward(cache: dict, pieces: dict) -> np.ndarray:
    """Row half of attention_forward's backward pass: the gradient (R, w)
    with respect to the packed input rows, from attention_backward's pieces.
    Only a trainable table needs it; the frozen semantic table skips it."""
    p, alphas, seg = cache["params"], cache["alphas"], cache["seg"]
    dcat, du, du_sum = pieces["dcat"], pieces["du"], pieces["du_sum"]
    w = du.shape[1]
    d_rows = np.empty((len(seg) + len(dcat), w))
    d_rows[cache["head_idx"]] = alphas[:, None] * dcat[:, :w][seg] + du @ p["W2"]
    d_rows[cache["last_idx"]] = dcat[:, w:] + du_sum @ p["W1"]
    return d_rows


def normalize_rows(rows: np.ndarray, what: str):
    """(unit, norms) of the rows of a 2-D `rows`; a zero row raises NumericError."""
    unit, norms = np.empty(rows.shape), np.empty((len(rows), 1))
    for b in row_blocks(*rows.shape):
        r, u = rows[b], unit[b]
        # np.linalg.norm's arithmetic, inlined (its per-call cost adds up over blocks); u holds r * r until the divide
        np.sqrt(np.add.reduce(np.multiply(r, r, out=u), axis=-1, keepdims=True), out=norms[b])
        if np.any(norms[b] == 0):
            raise NumericError(f"zero-norm row in {what}")
        np.divide(r, norms[b], out=u)
    return unit, norms


def normalize_rows_backward(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """normalize_rows' Jacobian: raw-row gradient (d - u <u, d>) / |r| of d_unit."""
    out = np.empty(d_unit.shape)
    for b in row_blocks(*unit.shape):
        u, d = unit[b], d_unit[b]
        np.divide(d - u * np.sum(u * d, axis=-1, keepdims=True), norms[b], out=out[b])
    return out


class AttnNiserBackbone:
    """Reference backbone: the attention encoder at width d1 over
    L2-normalized trainable rows, output L2-normalized.

    A backbone is any class with a registry `key` and three static
    methods, packed like the attention: init_params(d1, rng) -> tensors
    (a dict; the names are the backbone's own, saved as bb.<name>.bin);
    forward(raw_rows (R, d1), tensors, lengths) -> (s_m (B, d1), cache),
    where raw_rows holds the prefixes back to back with lengths (B,) rows
    each; backward(cache, d_out (B, d1)) -> (grads summed over the batch,
    d_raw (R, d1)).
    """

    key = "attn-niser"

    @staticmethod
    def init_params(d1: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return init_attention_tensors(d1, rng)

    @staticmethod
    def forward(raw_rows: np.ndarray, tensors: dict[str, np.ndarray], lengths: np.ndarray):
        v, norms = normalize_rows(raw_rows, "trainable item table")
        z, _, attn_cache = attention_forward(np.arange(len(v)), v, tensors, lengths)
        s_m, z_norm = normalize_rows(z, "backbone output")
        return s_m, {"attn": attn_cache, "v": v, "norms": norms, "z_norm": z_norm, "s_m": s_m}

    @staticmethod
    def backward(cache: dict, d_out: np.ndarray):
        dz = normalize_rows_backward(cache["s_m"], cache["z_norm"], d_out)
        grads, pieces = attention_backward(cache["attn"], dz)
        dv = attention_rows_backward(cache["attn"], pieces)
        return grads, normalize_rows_backward(cache["v"], cache["norms"], dv)


BACKBONES: dict[str, type] = {AttnNiserBackbone.key: AttnNiserBackbone}


def register_backbone(cls) -> type:
    """Class decorator adding a backbone implementation to the registry."""
    BACKBONES[cls.key] = cls
    return cls


def get_backbone(key: str):
    if key not in BACKBONES:
        raise DataError(f"unknown backbone {key!r}; registered: {sorted(BACKBONES)}")
    return BACKBONES[key]

"""Independent oracles: straight-line scalar implementations used to check
the vectorized code paths. Everything here sticks to plain Python floats
and lists on purpose, except the PCA reference, which needs an SVD, and
the one-pass NumPy forms of the row-blocked kernels, which the blocked
ones must equal bit for bit; none of it shares code with the package."""

import math

import numpy as np


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

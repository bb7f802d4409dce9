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

Every encoder works on a batch: rows (..., L, w) with any leading batch
axes, one right-aligned prefix per batch entry, so the query is always
rows[..., -1, :]. A shorter prefix is padded on the left with copies of
one of its own rows, and `mask` (..., L-1) marks the head positions that
are real. Masked positions get alpha = 0, so they add nothing to s' and
receive no gradient; a prefix of length 1 is an all-masked head with
s' = 0. Without a mask every position is real, and (L, w) rows are the
no-batch case.

Forward passes return caches consumed by the matching backward passes,
which return weight gradients summed over the batch and one gradient per
input row. Gradients are derived by hand (no autodiff anywhere in the
package).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form avoids overflow in exp for large |x|.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


@dataclass
class AttentionParams:
    q: np.ndarray  # (w,)
    c: np.ndarray  # (w,)
    W1: np.ndarray  # (w, w)
    W2: np.ndarray  # (w, w)
    W3: np.ndarray  # (w, 2w)

    @property
    def width(self) -> int:
        return self.q.shape[0]


ATTENTION_TENSORS = ("q", "c", "W1", "W2", "W3")


def init_attention_tensors(width: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    # Uniform(-1/sqrt(w), 1/sqrt(w)) for every tensor, the usual SR init.
    stdv = 1.0 / np.sqrt(width)
    shapes = {"q": (width,), "c": (width,), "W1": (width, width), "W2": (width, width), "W3": (width, 2 * width)}
    return {name: rng.uniform(-stdv, stdv, size=shapes[name]) for name in ATTENTION_TENSORS}


def attention_forward(rows: np.ndarray, p: AttentionParams, mask: np.ndarray | None = None):
    """Run the attention encoder over prefix rows (..., L, w).

    `mask` (..., L-1) marks the real head positions; None means all.
    Returns (out (..., w), alphas (..., L-1), cache).
    """
    head, last = rows[..., :-1, :], rows[..., -1, :]
    h = sigmoid(head @ p.W2.T + (last @ p.W1.T + p.c)[..., None, :])  # (..., L-1, w)
    raw = h @ p.q  # (..., L-1)
    if mask is not None:
        raw = np.where(mask, raw, -np.inf)
    mx = np.max(raw, axis=-1, keepdims=True, initial=-np.inf)
    ex = np.exp(raw - np.where(np.isneginf(mx), 0.0, mx))
    total = np.sum(ex, axis=-1, keepdims=True)
    alphas = ex / np.where(total == 0, 1.0, total)  # all zero for an empty head
    s_prime = (alphas[..., None, :] @ head)[..., 0, :]  # (..., w)
    cat = np.concatenate([s_prime, last], axis=-1)  # (..., 2w)
    out = cat @ p.W3.T  # (..., w)
    cache = {"rows": rows, "h": h, "alphas": alphas, "cat": cat, "params": p}
    return out, alphas, cache


def _batch_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over every leading axis of outer(a, b): (..., i), (..., j) -> (i, j)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def attention_backward(cache: dict, d_out: np.ndarray):
    """Backward pass of attention_forward.

    Returns (grads, d_rows): grads maps q/c/W1/W2/W3 to their gradients
    summed over the batch, and d_rows (..., L, w) is the gradient with
    respect to the input rows (zero at masked positions).
    """
    p: AttentionParams = cache["params"]
    rows, h, alphas, cat = cache["rows"], cache["h"], cache["alphas"], cache["cat"]
    w = rows.shape[-1]
    head, last = rows[..., :-1, :], rows[..., -1, :]

    dcat = d_out @ p.W3  # (..., 2w)
    ds_prime, dlast = dcat[..., :w], dcat[..., w:]
    dalphas = (head @ ds_prime[..., None])[..., 0]  # (..., L-1)
    # softmax jacobian: da = alpha * (dalpha - <alpha, dalpha>)
    draw = alphas * (dalphas - np.sum(alphas * dalphas, axis=-1, keepdims=True))
    du = draw[..., None] * p.q * h * (1.0 - h)  # (..., L-1, w)
    du_sum = du.sum(axis=-2)  # (..., w)
    grads = {
        "q": _batch_sum(draw[..., None], h)[0],
        "c": du_sum.reshape(-1, w).sum(axis=0),
        "W1": _batch_sum(du_sum, last),
        "W2": _batch_sum(du, head),
        "W3": _batch_sum(d_out, cat),
    }
    dhead = alphas[..., None] * ds_prime[..., None, :] + du @ p.W2
    dlast = dlast + du_sum @ p.W1
    return grads, np.concatenate([dhead, dlast[..., None, :]], axis=-2)


def _normalize_rows(rows: np.ndarray, what: str):
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise NumericError(f"zero-norm row in {what}")
    return rows / norms, norms


class AttnNiserBackbone:
    """Reference backbone: the attention encoder at width d1 over
    L2-normalized trainable rows, output L2-normalized.

    A backbone is any class with a registry `key` and three static
    methods, batched like the attention: init_params(d1, rng) -> tensors;
    forward(raw_rows (..., L, d1), tensors, mask=None) -> (s_m (..., d1),
    cache); backward(cache, d_out (..., d1)) -> (grads summed over the
    batch, d_raw (..., L, d1)).
    """

    key = "attn-niser"

    @staticmethod
    def init_params(d1: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return init_attention_tensors(d1, rng)

    @staticmethod
    def forward(raw_rows: np.ndarray, tensors: dict[str, np.ndarray], mask: np.ndarray | None = None):
        v, norms = _normalize_rows(raw_rows, "trainable item table")
        p = AttentionParams(**{k: tensors[k] for k in ATTENTION_TENSORS})
        z, _, attn_cache = attention_forward(v, p, mask)
        zn = np.linalg.norm(z, axis=-1, keepdims=True)
        if np.any(zn == 0):
            raise NumericError("zero-norm backbone output before normalization")
        s_m = z / zn
        cache = {"attn": attn_cache, "v": v, "norms": norms, "z_norm": zn, "s_m": s_m}
        return s_m, cache

    @staticmethod
    def backward(cache: dict, d_out: np.ndarray):
        s_m, zn = cache["s_m"], cache["z_norm"]
        dz = (d_out - s_m * np.sum(s_m * d_out, axis=-1, keepdims=True)) / zn
        grads, dv = attention_backward(cache["attn"], dz)
        v, norms = cache["v"], cache["norms"]
        d_raw = (dv - v * np.sum(v * dv, axis=-1, keepdims=True)) / norms
        return grads, d_raw


BACKBONES: dict[str, type] = {AttnNiserBackbone.key: AttnNiserBackbone}


def register_backbone(cls) -> type:
    """Class decorator adding a backbone implementation to the registry."""
    BACKBONES[cls.key] = cls
    return cls


def get_backbone(key: str):
    if key not in BACKBONES:
        raise DataError(f"unknown backbone {key!r}; registered: {sorted(BACKBONES)}")
    return BACKBONES[key]

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_catalog, make_semantic
from oracles import numeric_grad, rel_err, scalar_attention, scalar_backbone, sigmoid_scalar
from semsr.dataset import Example
from semsr.encoder import (
    BACKBONES,
    attention_backward,
    attention_forward,
    get_backbone,
    init_attention_tensors,
    register_backbone,
    sigmoid,
    softmax,
)
from semsr.errors import DataError
from semsr.model import forward, init_model, item_matrix, load_checkpoint, rank_examples, save_checkpoint, score_all
from semsr.retrieval import top_k
from semsr.train import loss_and_grad


def hand_params(w: int) -> dict[str, np.ndarray]:
    # small fixed rational values, nothing degenerate
    q = np.array([(3 * i - 1) / 10 for i in range(w)])
    c = np.array([(2 - i) / 10 for i in range(w)])
    W1 = np.array([[((i * 7 + j * 3) % 5 - 2) / 10 for j in range(w)] for i in range(w)])
    W2 = np.array([[((i * 5 + j * 11) % 7 - 3) / 10 for j in range(w)] for i in range(w)])
    W3 = np.array([[((i * 3 + j * 2) % 6 - 2) / 10 for j in range(2 * w)] for i in range(w)])
    return {"q": q, "c": c, "W1": W1, "W2": W2, "W3": W3}


class TestAttentionForward:
    def test_length_one_uses_empty_sum(self):
        p = hand_params(3)
        rows = np.array([[0.4, -0.2, 0.9]])
        out, alphas, _ = attention_forward(rows, p, [1])
        assert alphas.size == 0
        expected = p["W3"] @ np.concatenate([np.zeros(3), rows[0]])
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_zero_weights_give_uniform_attention(self):
        w = 4
        p = {
            "q": np.full(w, 0.7),
            "c": np.zeros(w),
            "W1": np.zeros((w, w)),
            "W2": np.zeros((w, w)),
            "W3": np.concatenate([np.eye(w), np.zeros((w, w))], axis=1),
        }
        rows = np.random.default_rng(2).standard_normal((5, w))
        out, alphas, _ = attention_forward(rows, p, [5])
        np.testing.assert_allclose(alphas, 0.25, atol=1e-12)
        np.testing.assert_allclose(out[0], rows[:-1].mean(axis=0), atol=1e-12)

    def test_matches_scalar_oracle(self):
        p = hand_params(2)
        rows = np.array([[0.3, -0.5], [0.8, 0.1], [-0.2, 0.6]])
        out, alphas, _ = attention_forward(rows, p, [3])
        exp_out, exp_alphas = scalar_attention(
            rows.tolist(), *(p[k].tolist() for k in ("q", "c", "W1", "W2", "W3"))
        )
        np.testing.assert_allclose(out[0], exp_out, atol=1e-12)
        np.testing.assert_allclose(alphas, exp_alphas, atol=1e-12)

    def test_weights_normalized_for_longer_prefixes(self):
        # L = 2 is a singleton softmax, which is exactly 1; the open
        # interval is only reachable for L >= 3.
        rng = np.random.default_rng(0)
        for trial in range(50):
            w = int(rng.integers(2, 8))
            L = int(rng.integers(2, 12))
            p = init_attention_tensors(w, rng)
            _, alphas, _ = attention_forward(rng.standard_normal((L, w)), p, [L])
            assert abs(alphas.sum() - 1.0) < 1e-6
            assert np.all(alphas > 0)
            assert np.all(alphas < 1) if L > 2 else np.all(alphas <= 1)

    def test_last_item_is_the_query(self):
        # swapping the last item with an interior one must change the output
        rng = np.random.default_rng(6)
        p = init_attention_tensors(5, rng)
        rows = rng.standard_normal((4, 5))
        swapped = rows.copy()
        swapped[[1, 3]] = swapped[[3, 1]]
        out_a, _, _ = attention_forward(rows, p, [4])
        out_b, _, _ = attention_forward(swapped, p, [4])
        assert not np.allclose(out_a, out_b)


def assert_matches_finite_differences(rows, p, lengths, probe):
    def loss():
        out, _, _ = attention_forward(rows, p, lengths)
        return float(np.sum(probe * out))

    _, _, cache = attention_forward(rows, p, lengths)
    grads, d_rows = attention_backward(cache, probe)
    for name in ("q", "c", "W1", "W2", "W3"):
        fd = numeric_grad(loss, p[name])
        analytic = grads[name].reshape(-1)
        assert max(rel_err(a, f) for a, f in zip(analytic, fd)) < 1e-6
    fd_rows = numeric_grad(loss, rows)
    assert max(rel_err(a, f) for a, f in zip(d_rows.reshape(-1), fd_rows)) < 1e-6


class TestAttentionBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        p = init_attention_tensors(4, rng)
        assert_matches_finite_differences(rng.standard_normal((5, 4)), p, [5], rng.standard_normal((1, 4)))

    def test_packed_gradients_match_finite_differences(self):
        # a packed batch with a length-1 prefix between two longer ones
        rng = np.random.default_rng(10)
        p = init_attention_tensors(4, rng)
        lengths = np.array([3, 1, 4])
        rows = rng.standard_normal((lengths.sum(), 4))
        assert_matches_finite_differences(rows, p, lengths, rng.standard_normal((3, 4)))


def assert_packed_matches_unbatched(prefixes, p, d_out):
    """One packed call over `prefixes` (each (L, w)) gives each prefix's
    output, alphas and row gradients of its own call with lengths [L], and the
    weight gradients summed over those calls."""
    rows, lengths = np.concatenate(prefixes), np.array([len(x) for x in prefixes])
    out, alphas, cache = attention_forward(rows, p, lengths)
    grads, d_rows = attention_backward(cache, d_out)
    assert out.shape == d_out.shape and d_rows.shape == rows.shape
    assert alphas.shape == (len(rows) - len(prefixes),)
    summed = {k: np.zeros_like(v) for k, v in grads.items()}
    row = 0  # prefix i starts at row `row` and at alpha `row - i` (one query row per earlier prefix)
    for i, x in enumerate(prefixes):
        out_i, alphas_i, cache_i = attention_forward(x, p, [len(x)])
        grads_i, d_rows_i = attention_backward(cache_i, d_out[i : i + 1])
        np.testing.assert_allclose(out[i], out_i[0], atol=1e-12)
        np.testing.assert_allclose(alphas[row - i : row - i + len(x) - 1], alphas_i, atol=1e-12)
        np.testing.assert_allclose(d_rows[row : row + len(x)], d_rows_i, atol=1e-12)
        for k in summed:
            summed[k] += grads_i[k]
        row += len(x)
    for k in summed:
        np.testing.assert_allclose(grads[k], summed[k], atol=1e-12)


class TestBatchedAttention:
    def test_packed_batch_matches_unbatched_calls(self):
        # prefixes of lengths 1, 2, 4 and 6 packed back to back
        rng = np.random.default_rng(21)
        w = 5
        p = init_attention_tensors(w, rng)
        prefixes = [rng.standard_normal((length, w)) for length in (1, 2, 4, 6)]
        assert_packed_matches_unbatched(prefixes, p, rng.standard_normal((len(prefixes), w)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[5], seed=0)
    @example(lengths=[1], seed=1)
    @example(lengths=[1, 1, 1], seed=2)
    def test_packed_batch_property(self, lengths, seed):
        # any mix of lengths 1..8, a single prefix and all-length-1 batches included
        rng = np.random.default_rng(seed)
        w = int(rng.integers(1, 6))
        p = init_attention_tensors(w, rng)
        prefixes = [rng.standard_normal((length, w)) for length in lengths]
        assert_packed_matches_unbatched(prefixes, p, rng.standard_normal((len(prefixes), w)))


class TestSemanticEncoder:
    def test_output_width_is_d2(self):
        catalog = make_catalog(60)
        semantic = make_semantic(catalog, 7)
        p = init_attention_tensors(7, np.random.default_rng(1))
        for L in (1, 2, 3, 10, 50):
            prefix = list(np.random.default_rng(L).integers(0, 60, size=L))
            s_l, alphas, _ = attention_forward(semantic.matrix[prefix], p, [L])
            assert s_l.shape == (1, 7)
            assert alphas.shape == (max(L - 1, 0),)

    def test_empty_prefix_rejected(self):
        catalog = make_catalog(3)
        semantic = make_semantic(catalog, 4)
        params = init_model("sem-f", 3, 2, 4, 2, seed=0, semantic=semantic)
        with pytest.raises(DataError, match="non-empty"):
            forward([[1], []], params, semantic, item_matrix(params, semantic))


class TestReferenceBackbone:
    def test_output_unit_norm(self):
        rng = np.random.default_rng(3)
        backbone = get_backbone("attn-niser")
        tensors = init_attention_tensors(6, rng)
        table = rng.standard_normal((40, 6))
        for L in (1, 2, 5, 50):
            prefix = list(rng.integers(0, 40, size=L))
            s_m, _ = backbone.forward(table[prefix], tensors, [L])
            assert s_m.shape == (1, 6)
            assert abs(np.linalg.norm(s_m[0]) - 1.0) < 1e-6

    def test_length_one_formula(self):
        rng = np.random.default_rng(4)
        tensors = init_attention_tensors(3, rng)
        table = rng.standard_normal((5, 3))
        s_m, _ = get_backbone("attn-niser").forward(table[[2]], tensors, [1])
        last = table[2] / np.linalg.norm(table[2])
        z = tensors["W3"] @ np.concatenate([np.zeros(3), last])
        np.testing.assert_allclose(s_m[0], z / np.linalg.norm(z), atol=1e-12)

    def test_matches_scalar_oracle(self):
        tensors = hand_params(2)
        table = np.array([[0.5, 0.1], [-0.4, 0.9], [0.3, 0.3], [0.2, -0.7]])
        s_m, _ = get_backbone("attn-niser").forward(table[[0, 3, 1]], tensors, [3])
        expected = scalar_backbone(
            [table[0].tolist(), table[3].tolist(), table[1].tolist()],
            {k: np.asarray(v).tolist() for k, v in tensors.items()},
        )
        np.testing.assert_allclose(s_m[0], expected, atol=1e-12)

    def test_scale_must_be_positive(self, tmp_path):
        with pytest.raises(DataError, match="positive"):
            init_model("base", 4, 2, 2, 2, seed=0, scale=0.0)
        save_checkpoint(tmp_path / "ckpt", init_model("base", 4, 2, 2, 2, seed=0))
        manifest = tmp_path / "ckpt" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"scale": 16.0', '"scale": -1.0'))
        with pytest.raises(DataError, match="positive"):
            load_checkpoint(tmp_path / "ckpt")


class TestRegistry:
    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown backbone"):
            get_backbone("gru")

    def test_register_adds_key(self):
        @register_backbone
        class Stub:
            key = "stub-backbone"

        try:
            assert get_backbone("stub-backbone") is Stub
        finally:
            del BACKBONES[Stub.key]


class MeanPoolBackbone:
    """A backbone with its own tensor names: s_m = proj mean(prefix rows) + bias."""

    key = "test-mean-pool"

    @staticmethod
    def init_params(d1, rng):
        return {"proj": rng.uniform(-0.5, 0.5, size=(d1, d1)), "bias": rng.uniform(-0.5, 0.5, size=d1)}

    @staticmethod
    def forward(raw_rows, tensors, lengths):
        seg = np.repeat(np.arange(len(lengths)), lengths)  # each row's prefix
        pooled = np.zeros((len(lengths), raw_rows.shape[1]))
        np.add.at(pooled, seg, raw_rows / lengths[seg, None])
        s_m = pooled @ tensors["proj"].T + tensors["bias"]
        cache = {"seg": seg, "sizes": lengths, "pooled": pooled, "proj": tensors["proj"]}
        return s_m, cache

    @staticmethod
    def backward(cache, d_out):
        grads = {"proj": d_out.T @ cache["pooled"], "bias": d_out.sum(axis=0)}
        return grads, ((d_out @ cache["proj"]) / cache["sizes"][:, None])[cache["seg"]]


@pytest.fixture()
def mean_pool_backbone():
    register_backbone(MeanPoolBackbone)
    yield MeanPoolBackbone.key
    del BACKBONES[MeanPoolBackbone.key]


class TestBackboneProtocol:
    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_backbone_with_its_own_tensor_names(self, mean_pool_backbone, tmp_path, variant):
        # the documented protocol end to end: init, gradients, checkpoint, ranking
        n, d1, d2, d = 7, 3, 4, 3
        sem = make_semantic(make_catalog(n), d2) if variant == "sem-f" else None
        params = init_model(variant, n, d1, d2, d, seed=0, backbone=mean_pool_backbone, semantic=sem)
        assert sorted(k for k in params.tensors if k.startswith("bb.")) == ["bb.bias", "bb.proj"]
        params.tensors["item_table"] = np.random.default_rng(1).standard_normal((n, d1))
        # a length-1 prefix, mixed lengths, and item 4 twice in one prefix
        batch = [Example([3], 1), Example([0, 5, 2], 6), Example([4, 1, 4, 6], 0)]
        _, grads = loss_and_grad(batch, params, sem)
        assert set(grads) == set(params.tensors)

        def loss():
            return loss_and_grad(batch, params, sem)[0].mean_loss

        for name, tensor in params.tensors.items():
            fd = numeric_grad(loss, tensor)
            assert max(rel_err(a, f) for a, f in zip(grads[name].reshape(-1), fd)) < 1e-4, name

        save_checkpoint(tmp_path / "ckpt", params)
        assert (tmp_path / "ckpt" / "bb.proj.bin").exists()
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.backbone == mean_pool_backbone
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], tensor.astype(np.float32))
        for rl, ex in zip(rank_examples(loaded, sem, batch, 4), batch):
            assert rl.items.tolist() == top_k(score_all(ex.prefix, loaded, sem), 4).items.tolist()


class TestNumerics:
    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-np.inf, -800.0, -30.0, -0.0, 0.0, 30.0, 800.0, np.inf, np.nan])
        y = sigmoid(x)
        assert np.all(np.isfinite(y[:-1])) and np.isnan(y[-1])
        assert y[0] == y[1] == 0.0 and y[-3] == y[-2] == 1.0
        assert y[3] == y[4] == 0.5
        expected = [sigmoid_scalar(v) for v in x]
        assert y[:-1].tolist() == expected[:-1] and np.isnan(expected[-1])

    def test_softmax_stable_and_normalized(self):
        x = np.array([1000.0, 1001.0, 999.0])
        y = softmax(x)
        assert abs(y.sum() - 1.0) < 1e-12
        assert np.all(np.isfinite(y))
        # an all -inf slice (an empty attention set) gives zeros, not NaN
        y = softmax(np.array([[0.5, -np.inf], [-np.inf, -np.inf]]))
        assert y.tolist() == [[1.0, 0.0], [0.0, 0.0]]

import numpy as np
import pytest

from helpers import make_catalog, make_semantic
from oracles import numeric_grad, rel_err, scalar_attention, scalar_backbone
from semsr.encoder import (
    AttentionParams,
    attention_backward,
    attention_forward,
    get_backbone,
    init_attention_tensors,
    register_backbone,
    sigmoid,
    softmax,
)
from semsr.errors import DataError
from semsr.model import forward, init_model, item_matrix, load_checkpoint, save_checkpoint


def hand_params(w: int) -> AttentionParams:
    # small fixed rational values, nothing degenerate
    q = np.array([(3 * i - 1) / 10 for i in range(w)])
    c = np.array([(2 - i) / 10 for i in range(w)])
    W1 = np.array([[((i * 7 + j * 3) % 5 - 2) / 10 for j in range(w)] for i in range(w)])
    W2 = np.array([[((i * 5 + j * 11) % 7 - 3) / 10 for j in range(w)] for i in range(w)])
    W3 = np.array([[((i * 3 + j * 2) % 6 - 2) / 10 for j in range(2 * w)] for i in range(w)])
    return AttentionParams(q=q, c=c, W1=W1, W2=W2, W3=W3)


class TestAttentionForward:
    def test_length_one_uses_empty_sum(self):
        p = hand_params(3)
        rows = np.array([[0.4, -0.2, 0.9]])
        out, alphas, _ = attention_forward(rows, p)
        assert alphas.size == 0
        expected = p.W3 @ np.concatenate([np.zeros(3), rows[0]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_weights_give_uniform_attention(self):
        w = 4
        p = AttentionParams(
            q=np.full(w, 0.7),
            c=np.zeros(w),
            W1=np.zeros((w, w)),
            W2=np.zeros((w, w)),
            W3=np.concatenate([np.eye(w), np.zeros((w, w))], axis=1),
        )
        rows = np.random.default_rng(2).standard_normal((5, w))
        out, alphas, _ = attention_forward(rows, p)
        np.testing.assert_allclose(alphas, 0.25, atol=1e-12)
        np.testing.assert_allclose(out, rows[:-1].mean(axis=0), atol=1e-12)

    def test_matches_scalar_oracle(self):
        p = hand_params(2)
        rows = np.array([[0.3, -0.5], [0.8, 0.1], [-0.2, 0.6]])
        out, alphas, _ = attention_forward(rows, p)
        exp_out, exp_alphas = scalar_attention(
            rows.tolist(), p.q.tolist(), p.c.tolist(), p.W1.tolist(), p.W2.tolist(), p.W3.tolist()
        )
        np.testing.assert_allclose(out, exp_out, atol=1e-12)
        np.testing.assert_allclose(alphas, exp_alphas, atol=1e-12)

    def test_weights_normalized_for_longer_prefixes(self):
        # L = 2 is a singleton softmax, which is exactly 1; the open
        # interval is only reachable for L >= 3.
        rng = np.random.default_rng(0)
        for trial in range(50):
            w = int(rng.integers(2, 8))
            L = int(rng.integers(2, 12))
            tensors = init_attention_tensors(w, rng)
            p = AttentionParams(**tensors)
            _, alphas, _ = attention_forward(rng.standard_normal((L, w)), p)
            assert abs(alphas.sum() - 1.0) < 1e-6
            assert np.all(alphas > 0)
            assert np.all(alphas < 1) if L > 2 else np.all(alphas <= 1)

    def test_last_item_is_the_query(self):
        # swapping the last item with an interior one must change the output
        rng = np.random.default_rng(6)
        p = AttentionParams(**init_attention_tensors(5, rng))
        rows = rng.standard_normal((4, 5))
        swapped = rows.copy()
        swapped[[1, 3]] = swapped[[3, 1]]
        out_a, _, _ = attention_forward(rows, p)
        out_b, _, _ = attention_forward(swapped, p)
        assert not np.allclose(out_a, out_b)


class TestAttentionBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        p = AttentionParams(**init_attention_tensors(4, rng))
        rows = rng.standard_normal((5, 4))
        probe = rng.standard_normal(4)

        def loss():
            out, _, _ = attention_forward(rows, p)
            return float(probe @ out)

        out, _, cache = attention_forward(rows, p)
        grads, d_rows = attention_backward(cache, probe)
        for name in ("q", "c", "W1", "W2", "W3"):
            fd = numeric_grad(loss, getattr(p, name))
            analytic = grads[name].reshape(-1)
            assert max(rel_err(a, f) for a, f in zip(analytic, fd)) < 1e-6
        fd_rows = numeric_grad(loss, rows)
        assert max(rel_err(a, f) for a, f in zip(d_rows.reshape(-1), fd_rows)) < 1e-6


class TestBatchedAttention:
    def test_padded_batch_matches_unbatched_calls(self):
        # right-aligned prefixes of lengths 1, 2, 4 and 6, left-padded with a
        # copy of their own first row and masked: outputs, summed weight
        # gradients and per-row gradients equal the one-prefix calls
        rng = np.random.default_rng(21)
        w, L = 5, 6
        p = AttentionParams(**init_attention_tensors(w, rng))
        lengths = (1, 2, 4, 6)
        prefixes = [rng.standard_normal((length, w)) for length in lengths]
        rows = np.stack([np.concatenate([np.repeat(x[:1], L - len(x), axis=0), x]) for x in prefixes])
        mask = np.arange(L - 1) >= L - np.array(lengths)[:, None]
        d_out = rng.standard_normal((len(lengths), w))
        out, alphas, cache = attention_forward(rows, p, mask)
        grads, d_rows = attention_backward(cache, d_out)
        summed = {k: np.zeros_like(v) for k, v in grads.items()}
        for i, x in enumerate(prefixes):
            out_i, alphas_i, cache_i = attention_forward(x, p)
            np.testing.assert_allclose(out[i], out_i, atol=1e-12)
            np.testing.assert_allclose(alphas[i, L - len(x) :], alphas_i, atol=1e-12)
            assert np.all(alphas[i, : L - len(x)] == 0)
            grads_i, d_rows_i = attention_backward(cache_i, d_out[i])
            np.testing.assert_allclose(d_rows[i, L - len(x) :], d_rows_i, atol=1e-12)
            assert np.all(d_rows[i, : L - len(x)] == 0)
            for k in summed:
                summed[k] += grads_i[k]
        for k in summed:
            np.testing.assert_allclose(grads[k], summed[k], atol=1e-12)


class TestSemanticEncoder:
    def test_output_width_is_d2(self):
        catalog = make_catalog(60)
        semantic = make_semantic(catalog, 7)
        p = AttentionParams(**init_attention_tensors(7, np.random.default_rng(1)))
        for L in (1, 2, 3, 10, 50):
            prefix = list(np.random.default_rng(L).integers(0, 60, size=L))
            s_l, alphas, _ = attention_forward(semantic.matrix[prefix], p)
            assert s_l.shape == (7,)
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
            s_m, _ = backbone.forward(table[prefix], tensors)
            assert s_m.shape == (6,)
            assert abs(np.linalg.norm(s_m) - 1.0) < 1e-6

    def test_length_one_formula(self):
        rng = np.random.default_rng(4)
        tensors = init_attention_tensors(3, rng)
        table = rng.standard_normal((5, 3))
        s_m, _ = get_backbone("attn-niser").forward(table[[2]], tensors)
        last = table[2] / np.linalg.norm(table[2])
        z = tensors["W3"] @ np.concatenate([np.zeros(3), last])
        np.testing.assert_allclose(s_m, z / np.linalg.norm(z), atol=1e-12)

    def test_matches_scalar_oracle(self):
        p = hand_params(2)
        tensors = {"q": p.q, "c": p.c, "W1": p.W1, "W2": p.W2, "W3": p.W3}
        table = np.array([[0.5, 0.1], [-0.4, 0.9], [0.3, 0.3], [0.2, -0.7]])
        s_m, _ = get_backbone("attn-niser").forward(table[[0, 3, 1]], tensors)
        expected = scalar_backbone(
            [table[0].tolist(), table[3].tolist(), table[1].tolist()],
            {k: np.asarray(v).tolist() for k, v in tensors.items()},
        )
        np.testing.assert_allclose(s_m, expected, atol=1e-12)

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

        assert get_backbone("stub-backbone") is Stub


class TestNumerics:
    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        y = sigmoid(x)
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[-1] == 1.0
        assert y[2] == 0.5

    def test_softmax_stable_and_normalized(self):
        x = np.array([1000.0, 1001.0, 999.0])
        y = softmax(x)
        assert abs(y.sum() - 1.0) < 1e-12
        assert np.all(np.isfinite(y))

import math

import numpy as np
import pytest

from helpers import count_item_side_builds, make_catalog, make_semantic
from oracles import numeric_grad, rel_err, scalar_adam
from semsr.dataset import Example
from semsr import train
from semsr.errors import DataError, NumericError
from semsr.model import init_model, score_all
from semsr.train import TrainingDiverged, adam_step, fit, init_adam, loss_and_grad


def build(variant, n=7, d1=3, d2=4, d=3, seed=0, generic_point=True):
    semantic = make_semantic(make_catalog(n, tag=f"s{seed}"), d2)
    params = init_model(variant, n, d1, d2, d, seed=seed, semantic=semantic if variant != "base" else None)
    if generic_point:
        # move off the cold-start init: unit-scale rows keep the curvature
        # of the normalization low enough for finite differences at h=1e-4
        params.tensors["item_table"] = np.random.default_rng(seed + 100).standard_normal((n, d1))
    return params, semantic


def check_gradients(variant, batch, n=7, d1=3, d2=4, d=3, seed=0, tol=1e-4):
    params, semantic = build(variant, n, d1, d2, d, seed)
    sem = semantic if variant == "sem-f" else None
    _, grads = loss_and_grad(batch, params, sem)

    def loss():
        return loss_and_grad(batch, params, sem)[0].mean_loss

    worst = 0.0
    for name, tensor in params.tensors.items():
        fd = numeric_grad(loss, tensor)
        analytic = grads[name].reshape(-1)
        worst = max(worst, max(rel_err(a, f) for a, f in zip(analytic, fd)))
    assert worst < tol, f"{variant}: worst relative error {worst:.2e}"
    return worst


class TestLossValues:
    def test_perfect_prediction_gives_zero_loss(self):
        params, _ = build("base", n=3, d1=2, generic_point=False)
        params.tensors["item_table"] = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        params.tensors["bb.W3"] = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        report, _ = loss_and_grad([Example(prefix=[0], target=0)], params)
        assert report.mean_loss < 1e-10

    def test_uniform_prediction_gives_log_n(self):
        params, _ = build("base", n=6, d1=3, generic_point=False)
        params.tensors["item_table"] = np.tile([0.4, 0.1, -0.3], (6, 1))
        report, _ = loss_and_grad([Example(prefix=[2, 5], target=1)], params)
        assert report.mean_loss == pytest.approx(math.log(6), abs=1e-12)

    def test_loss_matches_score_all(self):
        params, semantic = build("sem-f")
        ex = Example(prefix=[1, 4, 2], target=5)
        report, _ = loss_and_grad([ex], params, semantic)
        probs = score_all(ex.prefix, params, semantic)
        assert report.mean_loss == pytest.approx(-math.log(probs[5]), rel=1e-12)

    def test_report_fields(self):
        params, _ = build("base")
        report, _ = loss_and_grad([Example(prefix=[0], target=1)] * 3, params)
        assert report.batch_size == 3
        assert report.mean_loss >= 0 and math.isfinite(report.mean_loss)
        assert report.grad_norm >= 0

    def test_empty_batch_rejected(self):
        params, _ = build("base")
        with pytest.raises(DataError, match="empty batch"):
            loss_and_grad([], params)

    def test_bad_target_rejected(self):
        params, _ = build("base")
        with pytest.raises(DataError, match="out of range"):
            loss_and_grad([Example(prefix=[0], target=99)], params)

    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    @pytest.mark.parametrize("prefix", [[-2, 3], [7]])
    def test_prefix_item_outside_the_catalog_rejected(self, variant, prefix):
        # [-2, 3] would train item n-2
        params, semantic = build(variant)
        with pytest.raises(DataError, match=f"prefix item {prefix[0]} out of range 0..6"):
            loss_and_grad([Example(prefix=prefix, target=0)], params, semantic if variant == "sem-f" else None)


class TestGradients:
    def test_base_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        batch = [Example(prefix=list(rng.integers(0, 7, size=L)), target=int(rng.integers(0, 7))) for L in (2, 4)]
        check_gradients("base", batch)

    def test_semf_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        batch = [Example(prefix=list(rng.integers(0, 7, size=L)), target=int(rng.integers(0, 7))) for L in (2, 3)]
        check_gradients("sem-f", batch)

    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_length_one_prefix(self, variant):
        check_gradients(variant, [Example(prefix=[3], target=1)])

    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_padded_mixed_length_batch(self, variant):
        # lengths 1, 3 and 5 are packed back to back in one batch, so no
        # prefix's attention may reach into its neighbour's rows; item 4
        # repeats inside a prefix, so its row must accumulate both contributions
        batch = [
            Example(prefix=[3], target=1),
            Example(prefix=[0, 5, 2], target=6),
            Example(prefix=[4, 1, 4, 6, 2], target=0),
        ]
        check_gradients(variant, batch)
        # and the packed batch computes what the examples do alone
        params, semantic = build(variant)
        sem = semantic if variant == "sem-f" else None
        report, grads = loss_and_grad(batch, params, sem)
        alone = [loss_and_grad([ex], params, sem) for ex in batch]
        assert report.mean_loss == pytest.approx(np.mean([r.mean_loss for r, _ in alone]), rel=1e-12)
        for name, g in grads.items():
            np.testing.assert_allclose(g, np.mean([gs[name] for _, gs in alone], axis=0), atol=1e-12)

    def test_scoring_gradient_is_dense(self):
        # the softmax over all items gives rows outside the prefix a
        # gradient too; only the semantic table is exempt
        params, _ = build("base", n=10, d1=3)
        _, grads = loss_and_grad([Example(prefix=[0, 1], target=2)], params)
        untouched_row = grads["item_table"][7]
        assert np.any(untouched_row != 0)

    def test_semantic_table_is_never_touched(self):
        params, semantic = build("sem-f")
        before = semantic.matrix.tobytes()
        batch = [Example(prefix=[0, 1, 2], target=3)]
        _, grads = loss_and_grad(batch, params, semantic)
        assert semantic.matrix.tobytes() == before
        assert not any(name.startswith("semantic") for name in grads)

    @pytest.mark.parametrize("variant, builder", [("base", "normalized_item_matrix"), ("sem-f", "fused_item_matrix")])
    def test_a_step_builds_the_item_side_once(self, monkeypatch, variant, builder):
        params, semantic = build(variant)
        builds = count_item_side_builds(monkeypatch)
        loss_and_grad([Example(prefix=[1, 2], target=3), Example(prefix=[4], target=0)], params, semantic)
        assert builds == [builder]


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        params, _ = build("base", generic_point=False)
        state = init_adam(params, lr=0.01)
        grads = {k: np.full_like(v, 0.5) for k, v in params.tensors.items()}
        before = {k: v.copy() for k, v in params.tensors.items()}
        adam_step(params, grads, state)
        for k in params.tensors:
            update = before[k] - params.tensors[k]
            np.testing.assert_allclose(update, 0.01, rtol=1e-6)

    def test_zero_gradient_leaves_params_unchanged(self):
        params, _ = build("base", generic_point=False)
        state = init_adam(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        before = {k: v.tobytes() for k, v in params.tensors.items()}
        adam_step(params, grads, state)
        assert state.step == 1
        assert all(params.tensors[k].tobytes() == before[k] for k in before)

    def test_three_steps_match_scalar_reference(self):
        params, _ = build("base", n=3, d1=2, generic_point=False)
        state = init_adam(params, lr=0.004)
        fixed = {k: np.full_like(v, 0.37) for k, v in params.tensors.items()}
        theta0 = float(params.tensors["bb.q"][0])
        for _ in range(3):
            adam_step(params, fixed, state)
        expected = scalar_adam(theta0, [0.37, 0.37, 0.37], 0.004, 0.9, 0.999, 1e-8)
        assert float(params.tensors["bb.q"][0]) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        params, _ = build("base")
        state = init_adam(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["bb.q"] = np.zeros(99)
        with pytest.raises(DataError, match="shape"):
            adam_step(params, grads, state)

    def test_missing_gradient_rejected(self):
        params, _ = build("base")
        state = init_adam(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        del grads["bb.c"]
        with pytest.raises(DataError, match="missing gradient"):
            adam_step(params, grads, state)


def tiny_dataset(n_items, n_examples, seed, distinct_targets=False):
    rng = np.random.default_rng(seed)
    targets = rng.permutation(n_items)[:n_examples] if distinct_targets else rng.integers(0, n_items, n_examples)
    out = []
    for i in range(n_examples):
        prefix = [int(x) for x in rng.integers(0, n_items, size=rng.integers(1, 4))]
        out.append(Example(prefix=prefix, target=int(targets[i])))
    return out


class TestFit:
    def test_memorizes_a_single_example(self):
        params, _ = build("base", n=7, d1=4, generic_point=False)
        example = [Example(prefix=[2, 5], target=3)]
        best, history = fit(example, [], params, epochs=200, batch_size=100, lr=0.01, seed=0)
        assert history[-1]["train_loss"] < 0.01

    def test_ten_examples_with_distinct_targets(self):
        params, _ = build("base", n=12, d1=6, generic_point=False)
        examples = tiny_dataset(12, 10, seed=3, distinct_targets=True)
        best, history = fit(examples, [], params, epochs=500, batch_size=100, lr=0.01, seed=0)
        assert history[-1]["train_loss"] < math.log(12) / 10

    def test_same_seed_gives_identical_history_and_checkpoint(self):
        examples = tiny_dataset(9, 30, seed=4)
        val = tiny_dataset(9, 8, seed=5)
        runs = []
        for _ in range(2):
            params, semantic = build("sem-f", n=9, d1=3, d2=4, d=3, generic_point=False)
            best, history = fit(examples, val, params, semantic, epochs=4, batch_size=8, lr=0.003, seed=11)
            runs.append((best, history))
        assert runs[0][1] == runs[1][1]
        for name in runs[0][0].tensors:
            assert runs[0][0].tensors[name].tobytes() == runs[1][0].tensors[name].tobytes()

    def test_keeps_best_checkpoint_on_val(self):
        examples = tiny_dataset(9, 40, seed=6)
        val = tiny_dataset(9, 10, seed=7)
        params, _ = build("base", n=9, d1=3, generic_point=False)
        best, history = fit(examples, val, params, epochs=6, batch_size=10, lr=0.005, seed=2)
        best_epoch = max(history, key=lambda h: (h["val_recall"], -h["epoch"]))
        assert best.step == best_epoch["step"]

    def test_early_stopping_respects_patience(self):
        examples = tiny_dataset(6, 20, seed=8)
        val = [Example(prefix=[0], target=1)]
        params, _ = build("base", n=6, d1=3, generic_point=False)
        # recall@k with k = n is always 1, so no epoch after the first improves
        _, history = fit(examples, val, params, epochs=50, batch_size=10, lr=0.001, seed=0, val_k=6, patience=3)
        assert len(history) == 4  # first epoch sets the best, then patience runs out

    def test_frozen_semantic_table_unchanged(self):
        params, semantic = build("sem-f", n=8, d1=3, d2=4, d=3, generic_point=False)
        before = semantic.fingerprint
        examples = tiny_dataset(8, 25, seed=9)
        fit(examples, [], params, semantic, epochs=3, batch_size=5, lr=0.003, seed=1)
        from semsr.embeddings import fingerprint_matrix

        assert fingerprint_matrix(semantic.matrix) == before

    def test_divergence_retains_last_good_checkpoint(self):
        params, semantic = build("sem-f", n=8, d1=3, d2=4, d=3, generic_point=False)
        examples = tiny_dataset(8, 12, seed=10)
        snapshot = {k: v.copy() for k, v in params.tensors.items()}
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as info:
            fit(examples, [], params, semantic, epochs=50, batch_size=4, lr=1e200, seed=0)
        retained = info.value.params
        assert set(retained.tensors) == set(snapshot)
        assert all(np.all(np.isfinite(v)) for v in retained.tensors.values())

    @pytest.mark.parametrize("with_val", [False, True])
    def test_divergence_carries_the_snapshot_of_the_last_finished_epoch(self, monkeypatch, with_val):
        examples, val = tiny_dataset(8, 12, seed=10), tiny_dataset(8, 6, seed=12) if with_val else []
        settings = dict(batch_size=4, lr=0.003, seed=0, val_k=3)  # 3 batches per epoch
        params, semantic = build("sem-f", n=8, d1=3, d2=4, d=3, generic_point=False)
        finished, _ = fit(examples, val, params, semantic, epochs=2, **settings)
        assert not any(np.shares_memory(finished.tensors[k], params.tensors[k]) for k in params.tensors)

        calls, real = [], train.loss_and_grad

        def diverge_on_the_eighth_batch(*args):  # the second batch of epoch 3
            calls.append(1)
            if len(calls) == 8:
                raise NumericError("non-finite loss")
            return real(*args)

        monkeypatch.setattr(train, "loss_and_grad", diverge_on_the_eighth_batch)
        params, semantic = build("sem-f", n=8, d1=3, d2=4, d=3, generic_point=False)
        with pytest.raises(TrainingDiverged) as info:
            fit(examples, val, params, semantic, epochs=5, **settings)
        retained = info.value.params
        assert [h["epoch"] for h in info.value.history] == [1, 2]
        assert retained.step == finished.step and set(retained.tensors) == set(finished.tensors)
        for name, tensor in finished.tensors.items():
            assert retained.tensors[name].tobytes() == tensor.tobytes()
        assert not any(np.shares_memory(retained.tensors[k], params.tensors[k]) for k in params.tensors)

    def test_empty_train_set_rejected(self):
        params, _ = build("base")
        with pytest.raises(DataError, match="empty training set"):
            fit([], [], params)

    @pytest.mark.parametrize("key, value, message", [
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("batch_size", -1, "batch_size must be >= 1, got -1"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("patience", 0, "patience must be >= 1, got 0"),
        ("lr", -1.0, "lr must be finite and positive, got -1.0"),
        ("lr", math.nan, "lr must be finite and positive, got nan"),
        ("val_k", 0, "val_k must be >= 1, got 0"),
    ])
    def test_schedule_value_outside_its_rule_is_rejected_before_any_step(self, key, value, message):
        """Each of these once trained silently (a negative batch size, no
        epoch, gradient ascent) or ended in a bare ValueError."""
        params, _ = build("base", generic_point=False)
        before = {k: v.copy() for k, v in params.tensors.items()}
        with pytest.raises(DataError) as info:
            fit(tiny_dataset(7, 10, seed=1), tiny_dataset(7, 3, seed=2), params, **{key: value})
        assert str(info.value) == message
        assert params.step == 0 and all(np.array_equal(params.tensors[k], v) for k, v in before.items())

import dataclasses
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import count_item_side_builds, make_catalog, make_semantic, random_examples
from oracles import scalar_score_all
from semsr import model
from semsr.embeddings import SemanticItemTable, fit_projection
from semsr.errors import DataError, NumericError
from semsr.model import (
    VARIANTS,
    ModelParams,
    init_model,
    load_checkpoint,
    rank_examples,
    save_checkpoint,
    score_all,
    scorer,
    top_k,
)
from semsr.train import fit


def small_model(variant, n=5, d1=2, d2=2, d=2, seed=0):
    semantic = make_semantic(make_catalog(n), d2)
    params = init_model(variant, n, d1, d2, d, seed=seed, semantic=semantic if variant != "base" else None)
    return params, semantic


class TestScoreAll:
    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_scores_sum_to_one(self, variant):
        params, semantic = small_model(variant, n=12, d1=4, d2=6, d=3)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            prefix = list(rng.integers(0, 12, size=rng.integers(1, 6)))
            probs = score_all(prefix, params, semantic)
            assert probs.shape == (12,)
            assert abs(probs.sum() - 1.0) < 1e-6
            assert np.all(probs >= 0)

    def test_identical_items_give_uniform_scores_base(self):
        params, _ = small_model("base", n=6, d1=3)
        params.tensors["item_table"] = np.tile([0.3, -0.2, 0.5], (6, 1))
        probs = score_all([1, 4], params)
        np.testing.assert_allclose(probs, 1 / 6, atol=1e-12)

    def test_identical_items_give_uniform_scores_semf(self):
        params, semantic = small_model("sem-f", n=6, d1=3, d2=4, d=3)
        params.tensors["item_table"] = np.tile([0.3, -0.2, 0.5], (6, 1))
        semantic.matrix[:] = semantic.matrix[0]
        probs = score_all([1, 4], params, semantic)
        np.testing.assert_allclose(probs, 1 / 6, atol=1e-12)

    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_matches_scalar_oracle(self, variant):
        params, semantic = small_model(variant)
        for prefix in ([0], [3, 1], [2, 0, 4]):
            got = score_all(prefix, params, semantic)
            expected = scalar_score_all(prefix, params, semantic.matrix)
            np.testing.assert_allclose(got, expected, atol=1e-10, rtol=0)

    def test_nan_raises_naming_the_tensor(self):
        params, _ = small_model("base")
        params.tensors["item_table"][0, 0] = np.nan
        with pytest.raises(NumericError, match="s_m"):
            score_all([0, 1], params)

    def test_semf_requires_semantic_table(self):
        params, _ = small_model("sem-f")
        with pytest.raises(DataError, match="semantic"):
            score_all([0, 1], params, None)

    def test_empty_prefix_rejected(self):
        params, _ = small_model("base")
        with pytest.raises(DataError, match="non-empty"):
            score_all([], params)

    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    @pytest.mark.parametrize("prefix", [[-1], [5], [0, -2, 3]])
    def test_prefix_item_outside_the_catalog_rejected(self, variant, prefix):
        # -1 would wrap around to item n-1, and n would be a raw IndexError
        params, semantic = small_model(variant)
        with pytest.raises(DataError, match=r"prefix item (-1|5|-2) out of range 0\.\.4"):
            score_all(prefix, params, semantic)


class TestTopK:
    def test_simple_ordering(self):
        rl = top_k(np.array([0.1, 0.7, 0.2]), 2)
        assert rl.items.tolist() == [1, 2]

    def test_ties_break_by_ascending_index(self):
        rl = top_k(np.full(5, 0.2), 3)
        assert rl.items.tolist() == [0, 1, 2]

    def test_matches_full_sort_head(self):
        rng = np.random.default_rng(12)
        scores = rng.random(1000)
        rl = top_k(scores, 100)
        oracle = sorted(range(1000), key=lambda i: (-scores[i], i))[:100]
        assert rl.items.tolist() == oracle

    def test_full_k_is_a_permutation(self):
        scores = np.random.default_rng(1).random(40)
        rl = top_k(scores, 40)
        assert sorted(rl.items.tolist()) == list(range(40))

    def test_k_bounds(self):
        with pytest.raises(DataError):
            top_k(np.ones(3), 4)
        with pytest.raises(DataError):
            top_k(np.ones(3), 0)

    def test_ties_crossing_the_cut_keep_the_lowest_indices(self):
        rl = top_k(np.array([0.3, 0.5, 0.5, 0.5, 0.1]), 2)
        assert rl.items.tolist() == [1, 2]
        assert rl.scores.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        scores = np.array([0.3, 0.5, 0.1, 0.2])
        scores[2] = bad
        with pytest.raises(DataError, match="non-finite score"):
            top_k(scores, 2)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_stable_full_sort_on_heavy_ties(self, data):
        extra = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3, unique=True))
        pool = [0.0, -0.0, *extra]
        n = data.draw(st.integers(1, 60))
        scores = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        k = data.draw(st.integers(1, n))
        rl = top_k(scores, k)
        order = np.argsort(-scores, kind="stable")[:k]
        assert rl.items.tolist() == order.tolist()
        assert rl.scores.tobytes() == scores[order].tobytes()


class TestVariantEquivalence:
    def test_semi_holding_base_tensors_scores_bitwise_like_base(self):
        n, d1, d2, d = 9, 4, 5, 3
        semantic = make_semantic(make_catalog(n), d2)
        base = init_model("base", n, d1, d2, d, seed=7)
        semi = init_model("sem-i", n, d1, d2, d, seed=7, semantic=semantic)
        assert set(base.tensors) == set(semi.tensors)
        semi.tensors = {k: v.copy() for k, v in base.tensors.items()}
        prefix = [2, 8, 1]
        assert score_all(prefix, base).tobytes() == score_all(prefix, semi).tobytes()

    def test_semi_defaults_to_projected_init(self):
        n, d1, d2 = 20, 3, 6
        semantic = make_semantic(make_catalog(n), d2)
        semi = init_model("sem-i", n, d1, d2, 3, seed=7, semantic=semantic)
        norms = np.linalg.norm(semi.tensors["item_table"], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    @pytest.mark.parametrize("n, d1, d2", [(9, 3, 3), (200, 100, 120)])
    def test_semi_start_is_the_one_pass_normalization(self, n, d1, d2):
        semantic = make_semantic(make_catalog(n), d2)
        rows = fit_projection(semantic, d1).apply(semantic.matrix)
        expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        semi = init_model("sem-i", n, d1, d2, 3, seed=7, semantic=semantic)
        assert semi.tensors["item_table"].tobytes() == expected.tobytes()

    def test_semi_start_row_of_zero_names_its_item(self):
        matrix = np.random.default_rng(0).integers(-5, 6, size=(8, 4)).astype(float)
        matrix[5] = 0.0
        matrix[-1] -= matrix.sum(axis=0)  # every column sums to 0, so row 5 is the column mean
        with pytest.raises(DataError, match="^sem-i start: the semantic row of item 5 projects to zero$"):
            init_model("sem-i", 8, 3, 4, 3, seed=0, semantic=SemanticItemTable(matrix=matrix))


class TestRankInvariance:
    def test_uniform_scaling_of_fused_rows_keeps_order(self):
        params, semantic = small_model("sem-f", n=30, d1=4, d2=6, d=5)
        prefix = [3, 17, 9]
        before = np.argsort(-score_all(prefix, params, semantic), kind="stable")
        params.tensors["W5"] *= 3.7  # scales every fused item row uniformly
        after = np.argsort(-score_all(prefix, params, semantic), kind="stable")
        assert before.tolist() == after.tolist()


class TestRankExamples:
    def test_agrees_with_per_example_scoring(self, monkeypatch):
        from semsr.dataset import Example

        params, semantic = small_model("sem-f", n=15, d1=3, d2=5, d=4)
        rng = np.random.default_rng(0)
        examples = [
            Example(prefix=list(rng.integers(0, 15, size=rng.integers(1, 5))), target=0) for _ in range(9)
        ]
        monkeypatch.setattr(model, "SCORE_CHUNK", 4)
        ranked = rank_examples(params, semantic, examples, k=6)
        for ex, rl in zip(examples, ranked):
            expected = top_k(score_all(ex.prefix, params, semantic), 6)
            assert rl.items.tolist() == expected.items.tolist()
            np.testing.assert_allclose(rl.scores, expected.scores, atol=1e-12)

    def test_exactly_tied_probabilities_rank_by_index(self):
        params, _ = small_model("base", n=12, d1=3)
        table = params.tensors["item_table"]
        table[6:] = table[:6]  # items i and i + 6 score exactly alike
        examples = random_examples(np.random.default_rng(3), 12, 5, max_len=4)
        (probs,) = scorer(params).probabilities([ex.prefix for ex in examples])
        for p, rl in zip(probs, rank_examples(params, None, examples, k=7)):
            assert np.unique(p).size == 6
            oracle = sorted(range(12), key=lambda i: (-p[i], i))[:7]
            assert rl.items.tolist() == oracle
            assert rl.scores.tolist() == p[oracle].tolist()


class TestScoreChunks:
    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_chunk_boundaries_do_not_change_results(self, monkeypatch, variant):
        params, semantic = small_model(variant, n=15, d1=3, d2=5, d=4)
        examples = random_examples(np.random.default_rng(5), 15, 7, max_len=5)
        prefixes = [ex.prefix for ex in examples]
        whole = list(scorer(params, semantic).probabilities(prefixes))
        ranked = rank_examples(params, semantic, examples, k=6)
        monkeypatch.setattr(model, "SCORE_CHUNK", 2)
        small = list(scorer(params, semantic).probabilities(prefixes))
        assert [b.shape for b in whole] == [(7, 15)] and [b.shape for b in small] == [(2, 15)] * 3 + [(1, 15)]
        np.testing.assert_allclose(np.concatenate(small), whole[0], atol=1e-12, rtol=0)
        for ex, row, a, b in zip(examples, whole[0], ranked, rank_examples(params, semantic, examples, k=6)):
            np.testing.assert_allclose(row, score_all(ex.prefix, params, semantic), atol=1e-12, rtol=0)
            assert a.items.tolist() == b.items.tolist() == top_k(row, 6).items.tolist()
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-12, rtol=0)


class TestScorer:
    @pytest.mark.parametrize("table", ["another-fingerprint", "another-n"])
    def test_semf_rejects_a_table_it_was_not_trained_with(self, table):
        params, semantic = small_model("sem-f", n=6, d1=3, d2=4, d=3)
        other = {
            "another-fingerprint": SemanticItemTable(semantic.matrix[::-1]),  # same n and width
            "another-n": SemanticItemTable(np.vstack([semantic.matrix, semantic.matrix[:1]])),
        }[table]
        assert other.fingerprint != semantic.fingerprint
        examples = random_examples(np.random.default_rng(0), 6, 4, max_len=3)
        for call in (
            lambda: score_all([0, 1], params, other),
            lambda: rank_examples(params, other, examples, k=3),
            lambda: fit(examples, examples, params, other, epochs=1, seed=0),
        ):
            with pytest.raises(DataError, match="trained with semantic table"):
                call()

    @pytest.mark.parametrize("variant", ["base", "sem-i"])
    def test_base_and_semi_ignore_the_semantic_table(self, variant):
        params, semantic = small_model(variant, n=6, d1=3, d2=4, d=3)
        sc = scorer(params, SemanticItemTable(semantic.matrix[::-1]))
        assert sc.semantic is None
        (with_table,), (without,) = sc.probabilities([[0, 2]]), scorer(params).probabilities([[0, 2]])
        np.testing.assert_array_equal(with_table, without)

    @pytest.mark.parametrize("variant, builder", [("base", "normalized_item_matrix"), ("sem-f", "fused_item_matrix")])
    def test_rank_examples_builds_the_item_side_once(self, monkeypatch, variant, builder):
        params, semantic = small_model(variant, n=9, d1=3, d2=4, d=3)
        examples = random_examples(np.random.default_rng(1), 9, 7, max_len=4)
        monkeypatch.setattr(model, "SCORE_CHUNK", 2)
        builds = count_item_side_builds(monkeypatch)
        assert len(rank_examples(params, semantic, examples, k=4)) == 7  # four chunks
        assert builds == [builder]


class TestModelParams:
    def test_copy_keeps_every_field_and_owns_its_tensors(self):
        params, _ = small_model("sem-f")
        params.step = 9
        clone = params.copy()
        for f in dataclasses.fields(ModelParams):
            if f.name != "tensors":
                assert getattr(clone, f.name) == getattr(params, f.name), f.name
        assert clone.tensors.keys() == params.tensors.keys()
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(clone.tensors[name], tensor)
            assert not np.shares_memory(clone.tensors[name], tensor), name

    @pytest.mark.parametrize("variant, edit, message", [
        ("base", {"d1": 0}, "d1 must be >= 1, got 0"),
        ("base", {"d2": 0}, "d2 must be >= 1, got 0"),
        ("sem-f", {"d": 0}, "d must be >= 1, got 0"),
        ("base", {"seed": -1}, "seed must be >= 0, got -1"),
        ("sem-i", {"table": 4}, "semantic table is 6x4, but the model needs 6x8"),
        ("sem-f", {"table": 4}, "semantic table is 6x4, but the model needs 6x8"),
    ])
    def test_init_model_rejects_what_a_checkpoint_could_not_hold(self, variant, edit, message):
        args = {"d1": 2, "d2": 8, "d": 2, "seed": 0, "table": 8, **edit}
        width = args.pop("table")
        semantic = make_semantic(make_catalog(6), width) if variant != "base" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{message}"):
                init_model(variant, 6, semantic=semantic, **args)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(variant=st.sampled_from(VARIANTS), d1=st.integers(0, 4), d2=st.integers(0, 4), d=st.integers(0, 4),
           scale=st.floats() | st.just(16.0), seed=st.integers(-1, 2))
    def test_init_model_accepts_exactly_the_headers_a_checkpoint_reads_back(self, variant, d1, d2, d, scale, seed):
        assume(variant != "sem-i" or d1 <= d2)  # else the PCA start has too few directions
        semantic = make_semantic(make_catalog(6), max(d2, 1)) if variant != "base" else None
        header = {"variant": variant, "d1": d1, "d2": d2, "d": d, "scale": scale, "seed": seed}
        try:
            params, made = init_model(n=6, semantic=semantic, **header), True
        except DataError:  # save the header anyway, on the tensors of a model that init_model makes
            params, made = init_model(variant, 6, max(d1, 1), max(d2, 1), max(d, 1), max(seed, 0), semantic=semantic), False
            for key, value in header.items():
                setattr(params, key, value)
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(Path(tmp) / "ckpt", params)
            try:
                back = load_checkpoint(Path(tmp) / "ckpt")
            except DataError:
                back = None
        assert (back is not None) == made
        if made:
            assert _header(back) == _header(params)
            assert back.tensors.keys() == params.tensors.keys()
            for name, tensor in params.tensors.items():
                assert back.tensors[name].astype(np.float32).tobytes() == tensor.astype(np.float32).tobytes(), name


def _header(params: ModelParams) -> dict:
    return {f.name: getattr(params, f.name) for f in dataclasses.fields(ModelParams) if f.name != "tensors"}


class TestCheckpoints:
    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_roundtrip(self, tmp_path, variant):
        params, _ = small_model(variant, n=8, d1=3, d2=4, d=3)
        params.step = 17
        save_checkpoint(tmp_path / "ckpt", params)
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.variant == variant and back.step == 17
        assert back.scale == params.scale and back.seed == params.seed
        assert set(back.tensors) == set(params.tensors)
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(back.tensors[name], tensor.astype(np.float32).astype(np.float64))

    def test_blob_layout(self, tmp_path):
        # rank u64 LE, dims u64 LE each, float32 LE row-major
        params, semantic = small_model("sem-f", n=4, d1=2, d2=3, d=2)
        save_checkpoint(tmp_path / "ckpt", params)
        raw = (tmp_path / "ckpt" / "W4.bin").read_bytes()
        rank = struct.unpack_from("<Q", raw, 0)[0]
        assert rank == 2
        dims = struct.unpack_from("<QQ", raw, 8)
        assert dims == (2, 5)
        values = np.frombuffer(raw, dtype="<f4", offset=24)
        assert values.size == 10
        np.testing.assert_array_equal(
            values.reshape(2, 5), params.tensors["W4"].astype("<f4")
        )
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest == {
            "variant": "sem-f", "backbone": "attn-niser", "d1": 2, "d2": 3, "d": 2,
            "scale": 16.0, "seed": 0, "step": 0, "semantic_fingerprint": semantic.fingerprint,
        }

    def test_resave_replaces_the_directory(self, tmp_path):
        # a base model saved over a sem-f one must not inherit its attn.*/W4/W5 blobs
        fused, _ = small_model("sem-f", n=6, d1=2, d2=3, d=2)
        base, _ = small_model("base", n=6, d1=2, d2=3, d=2, seed=1)
        save_checkpoint(tmp_path / "ckpt", fused)
        (tmp_path / ".ckpt.new").mkdir()  # left behind by an interrupted save
        save_checkpoint(tmp_path / "ckpt", base)
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.variant == "base" and set(back.tensors) == set(base.tensors)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]

    def test_semf_manifest_needs_the_semantic_fingerprint(self, tmp_path):
        params, semantic = small_model("sem-f")
        save_checkpoint(tmp_path / "ckpt", params)
        assert load_checkpoint(tmp_path / "ckpt").semantic_fingerprint == semantic.fingerprint
        path = tmp_path / "ckpt" / "manifest.json"
        fields = json.loads(path.read_text())
        for value in (None, 7, [semantic.fingerprint]):  # a JSON null is no fingerprint "None"
            path.write_text(json.dumps({**fields, "semantic_fingerprint": value}))
            with pytest.raises(DataError, match="manifest.json: 'semantic_fingerprint' is missing or not a str"):
                load_checkpoint(tmp_path / "ckpt")
        del fields["semantic_fingerprint"]
        path.write_text(json.dumps(fields))
        with pytest.raises(DataError, match="manifest.json: 'semantic_fingerprint' is missing"):
            load_checkpoint(tmp_path / "ckpt")

    def test_zero_width_is_rejected_before_the_backbone_draws_its_tensors(self, tmp_path):
        params, _ = small_model("base")
        params.d1, params.tensors = 0, {"item_table": np.zeros((params.n, 0))}
        save_checkpoint(tmp_path / "ckpt", params)
        with pytest.raises(DataError, match="manifest.json: d1 must be >= 1, got 0$"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("variant", ["base", "sem-f"])
    def test_all_zero_item_row_is_rejected_naming_blob_and_row(self, tmp_path, variant):
        params, _ = small_model(variant)
        params.tensors["item_table"][3] = 0.0
        save_checkpoint(tmp_path / "ckpt", params)
        with pytest.raises(DataError, match=r"item_table\.bin: row 3 is all zero"):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_checkpoint(tmp_path / "nope")

    @pytest.mark.parametrize("edit", [{"d": None}, {"step": "many"}, {"scale": [1.0]}, {"variant": "sem-x"}])
    def test_malformed_manifest_rejected(self, tmp_path, edit):
        params, _ = small_model("base")
        save_checkpoint(tmp_path / "ckpt", params)
        path = tmp_path / "ckpt" / "manifest.json"
        fields = json.loads(path.read_text())
        for key, value in edit.items():
            if value is None:
                del fields[key]
            else:
                fields[key] = value
        path.write_text(json.dumps(fields))
        with pytest.raises(DataError, match="manifest.json"):
            load_checkpoint(tmp_path / "ckpt")

import hashlib

import numpy as np
import pytest

from helpers import clustered_semantic, make_catalog, make_semantic
from oracles import svd_projection
from semsr.dataset import ItemMeta
from semsr.embeddings import (
    SemanticItemTable,
    encode_text,
    fingerprint_matrix,
    fit_projection,
    load_semantic_table,
    pseudo_encode,
    save_semantic_binary,
    save_semantic_tsv,
)
from semsr.errors import DataError
from semsr.model import init_model


class TestLoadSemantic:
    def test_tsv_roundtrip(self, tmp_path):
        catalog = make_catalog(3)
        matrix = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        save_semantic_tsv(tmp_path / "emb.tsv", catalog, matrix)
        table = load_semantic_table(tmp_path / "emb.tsv", catalog)
        assert table.matrix.shape == (3, 4)
        np.testing.assert_allclose(table.matrix, matrix, rtol=0, atol=0)

    def test_missing_item_named_in_error(self, tmp_path):
        catalog = make_catalog(3)
        matrix = np.ones((3, 4))
        save_semantic_tsv(tmp_path / "emb.tsv", catalog, matrix)
        lines = (tmp_path / "emb.tsv").read_text().splitlines()
        (tmp_path / "emb.tsv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match=catalog.items[-1].id):
            load_semantic_table(tmp_path / "emb.tsv", catalog)

    def test_inconsistent_width_rejected(self, tmp_path):
        catalog = make_catalog(2)
        f = tmp_path / "emb.tsv"
        f.write_text(f"{catalog.items[0].id}\t1.0,2.0\n{catalog.items[1].id}\t1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="width"):
            load_semantic_table(f, catalog)

    @pytest.mark.parametrize("fault", ["non-finite", "repeated-id"])
    def test_bad_row_names_its_line(self, tmp_path, fault):
        a, b = (m.id for m in make_catalog(2).items)
        second = f"{b}\t1.0,inf" if fault == "non-finite" else f"{a}\t3.0,4.0"
        f = tmp_path / "emb.tsv"
        f.write_text(f"{a}\t1.0,2.0\n{second}\n{b}\t5.0,6.0\n")
        with pytest.raises(DataError, match="emb.tsv:2:"):
            load_semantic_table(f, make_catalog(2))

    def test_binary_roundtrip(self, tmp_path):
        catalog = make_catalog(5)
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((5, 8)).astype(np.float32).astype(np.float64)
        save_semantic_binary(tmp_path / "emb.bin", matrix)
        table = load_semantic_table(tmp_path / "emb.bin", catalog)
        np.testing.assert_array_equal(table.matrix, matrix)
        assert table.d2 == 8

    def test_binary_row_count_must_match_catalog(self, tmp_path):
        save_semantic_binary(tmp_path / "emb.bin", np.ones((4, 3)))
        with pytest.raises(DataError, match="catalog"):
            load_semantic_table(tmp_path / "emb.bin", make_catalog(5))

    def test_fingerprint_tracks_content(self):
        a = SemanticItemTable(matrix=np.ones((2, 3)))
        b = SemanticItemTable(matrix=np.ones((2, 3)))
        c = SemanticItemTable(matrix=np.ones((2, 3)) * 2)
        assert a.fingerprint == b.fingerprint != c.fingerprint

    def test_fingerprint_hashes_the_bytes_of_the_contiguous_copy(self):
        matrix = np.arange(60, dtype=float).reshape(6, 10) / 7.0
        for view in (matrix, matrix[:, ::3], matrix.T, matrix[1:4]):
            assert fingerprint_matrix(view) == hashlib.sha256(np.ascontiguousarray(view).tobytes()).hexdigest()


class TestPseudoEncode:
    def test_bitwise_deterministic(self):
        item = ItemMeta(id="x", title="wireless mouse", brand="acme")
        a = pseudo_encode(item, 16)
        b = pseudo_encode(item, 16)
        assert a.tobytes() == b.tobytes()

    def test_unit_norm(self):
        vec = pseudo_encode(ItemMeta(id="x", title="lamp"), 64)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_identical_metadata_gives_identical_vectors(self):
        a = ItemMeta(id="a", title="soap", brand="b1", price=3.5)
        b = ItemMeta(id="zzz", title="soap", brand="b1", price=3.5)
        assert pseudo_encode(a, 12).tobytes() == pseudo_encode(b, 12).tobytes()

    def test_different_text_differs(self):
        a = encode_text("red shoes", 32)
        b = encode_text("blue shoes", 32)
        assert not np.array_equal(a, b)


class TestProjection:
    def test_exact_subspace_reconstructs(self):
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(rng.standard_normal((10, 3)))[0]  # (10, 3)
        coords = rng.standard_normal((40, 3))
        table = SemanticItemTable(matrix=coords @ basis.T + rng.standard_normal(10) * 0.0)
        proj = fit_projection(table, 3)
        recon = proj.apply(table.matrix) @ proj.basis.T + proj.mean
        assert np.max(np.abs(recon - table.matrix)) < 1e-8

    def test_captured_variance_matches_eigen_oracle(self):
        rng = np.random.default_rng(5)
        table = SemanticItemTable(matrix=rng.standard_normal((50, 12)))
        proj = fit_projection(table, 4)
        centered = table.matrix - table.matrix.mean(axis=0)
        captured = float(np.sum(proj.apply(table.matrix) ** 2))
        eigvals = np.linalg.eigvalsh(centered.T @ centered)
        assert captured == pytest.approx(float(np.sum(eigvals[-4:])), rel=1e-10)

    def test_identical_rows_take_completion_path(self):
        table = SemanticItemTable(matrix=np.tile(np.arange(6.0), (8, 1)))
        with pytest.warns(UserWarning, match="completion"):
            proj = fit_projection(table, 3)
        gram = proj.basis.T @ proj.basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6

    def test_basis_orthonormal_and_sign_fixed(self):
        rng = np.random.default_rng(8)
        table = SemanticItemTable(matrix=rng.standard_normal((30, 9)))
        proj = fit_projection(table, 5)
        gram = proj.basis.T @ proj.basis
        assert np.max(np.abs(gram - np.eye(5))) < 1e-6
        for j in range(5):
            col = proj.basis[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_d1_too_large_rejected(self):
        table = SemanticItemTable(matrix=np.random.default_rng(0).standard_normal((4, 6)))
        with pytest.raises(DataError, match="exceeds"):
            fit_projection(table, 5)


class TestProjectionReference:
    def test_gapped_input_matches_svd_reference(self):
        # 20 clusters span 19 centered directions, well above the noise
        # (singular values 1.06 vs 0.54 across the cut), none repeated
        semantic, _ = clustered_semantic(100, 20, 64, noise=0.3)
        basis, mean = svd_projection(semantic.matrix, 19)
        proj = fit_projection(semantic, 19)
        assert np.max(np.abs(proj.basis - basis)) < 1e-10
        np.testing.assert_array_equal(proj.mean, mean)
        rows = (semantic.matrix - mean) @ basis
        expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        table = init_model("sem-i", 100, 19, 64, 8, seed=0, semantic=semantic).tensors["item_table"]
        assert np.max(np.abs(table - expected)) < 1e-10

    def test_near_rank_deficient_input_takes_completion_path(self):
        # rank 2 plus entries of order 1e-9: their squared size sits below
        # the noise floor of the Gram eigenvalues, so they are not rank
        rng = np.random.default_rng(12)
        exact = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 10))
        table = SemanticItemTable(matrix=exact + 1e-9 * rng.standard_normal((40, 10)))
        with pytest.warns(UserWarning, match="rank 2 < d1=4; padding with orthonormal completion"):
            proj = fit_projection(table, 4)
        assert np.max(np.abs(proj.basis.T @ proj.basis - np.eye(4))) < 1e-12


class TestInitTrainable:
    def test_random_mode_seeded(self):
        semantic = make_semantic(make_catalog(10), 5)
        a = init_model("base", 10, 6, 5, 3, seed=4).tensors["item_table"]
        b = init_model("base", 10, 6, 5, 3, seed=4).tensors["item_table"]
        fused = init_model("sem-f", 10, 6, 5, 3, seed=4, semantic=semantic).tensors["item_table"]
        assert a.tobytes() == b.tobytes() == fused.tobytes()
        assert np.all(np.abs(a) <= 0.1)

    def test_projection_preserves_nearest_neighbors(self):
        # 20 clusters of 5; 1-NN under projected cosine should agree with
        # 1-NN under full-width cosine for at least 70% of items.
        semantic, _ = clustered_semantic(100, 20, 64, noise=0.3)
        low = init_model("sem-i", 100, 48, 64, 8, seed=0, semantic=semantic).tensors["item_table"]

        def one_nn(matrix):
            unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
            sims = unit @ unit.T
            np.fill_diagonal(sims, -np.inf)
            return sims.argmax(axis=1)

        agree = np.mean(one_nn(semantic.matrix) == one_nn(low))
        assert agree >= 0.70

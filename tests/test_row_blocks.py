"""The row-blocked kernels are their one-pass forms, bit for bit.

encoder.softmax, normalize_rows and its backward, train.cross_entropy and
train.adam_step run over encoder.row_blocks. With BLOCK_BYTES shrunk to a
few rows, every shape below spans several blocks with a ragged last one,
and each result must be np.array_equal to the one-pass expression in
oracles. The CLI guard then trains, evaluates and dumps candidates for each
variant with the default and with tiny blocks: every file must match byte
for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adam_one_pass, cross_entropy_one_pass, normalize_rows_backward_one_pass, normalize_rows_one_pass, softmax_one_pass,
)
from semsr import encoder
from semsr.cli import main
from semsr.encoder import normalize_rows, normalize_rows_backward, row_blocks, softmax
from semsr.errors import NumericError
from semsr.model import ModelParams
from semsr.train import BETA1, BETA2, EPSILON, adam_step, cross_entropy, init_adam
from test_cli import BASE_CFG, write_fixture_dataset


def test_row_blocks_cover_every_row_once(monkeypatch):
    monkeypatch.setattr(encoder, "BLOCK_BYTES", 3 * 8 * 5)
    assert [(b.start, b.stop) for b in row_blocks(10, 5)] == [(0, 3), (3, 6), (6, 9), (9, 12)]
    assert [(b.start, b.stop) for b in row_blocks(2, 1000)] == [(0, 1), (1, 2)]  # at least one row per block
    assert list(row_blocks(0, 5)) == []


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_rows=st.integers(1, 13), row_len=st.integers(1, 300), block_rows=st.integers(1, 4),
    scale=st.sampled_from([1.0, 40.0]), seed=st.integers(0, 2**32 - 1), data=st.data(),
)
def test_blocked_kernels_equal_one_pass(n_rows, row_len, block_rows, scale, seed, data):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n_rows, row_len))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "BLOCK_BYTES", 8 * row_len * block_rows)

        # softmax, with all -inf rows (an empty attention set) and scattered -inf entries
        masked = x.copy()
        masked[data.draw(st.lists(st.integers(0, n_rows - 1), max_size=n_rows), label="-inf rows")] = -np.inf
        masked[rng.random(x.shape) < 0.2] = -np.inf
        for arr in (x, masked, x[0]):  # x[0]: a 1-D input is one row
            assert np.array_equal(softmax(arr), softmax_one_pass(arr))
        assert softmax(x[0]).shape == (row_len,)

        unit, norms = normalize_rows(x, "x")
        ref_unit, ref_norms = normalize_rows_one_pass(x)
        assert np.array_equal(unit, ref_unit) and np.array_equal(norms, ref_norms)
        d_unit = rng.standard_normal(x.shape)
        assert np.array_equal(normalize_rows_backward(unit, norms, d_unit), normalize_rows_backward_one_pass(unit, norms, d_unit))

        targets = rng.integers(0, row_len, size=n_rows)
        losses, delta = cross_entropy(x, targets)
        ref_losses, ref_delta = cross_entropy_one_pass(x, targets)
        assert np.array_equal(losses, ref_losses) and np.array_equal(delta, ref_delta)

        # Adam on a multi-block 2-D tensor and a multi-block 1-D one, over three steps
        tensors = {"item_table": x.copy(), "bb.q": rng.standard_normal(n_rows * block_rows + 1)}
        params = ModelParams("base", "attn-niser", row_len, 1, row_len, 16.0, 0, tensors=tensors)
        state = init_adam(params, lr=0.01)
        ref = {k: (v.copy(), np.zeros_like(v), np.zeros_like(v)) for k, v in tensors.items()}
        for t in range(1, 4):
            grads = {k: rng.standard_normal(v.shape) for k, v in tensors.items()}
            adam_step(params, grads, state)
            for name, (tensor, m, v) in ref.items():
                adam_one_pass(tensor, grads[name], m, v, t, 0.01, BETA1, BETA2, EPSILON)
        for name, (tensor, m, v) in ref.items():
            assert np.array_equal(params.tensors[name], tensor)
            assert np.array_equal(state.m[name], m) and np.array_equal(state.v[name], v)


def test_zero_row_in_a_later_block_raises(monkeypatch):
    monkeypatch.setattr(encoder, "BLOCK_BYTES", 2 * 8 * 3)
    rows = np.ones((7, 3))
    rows[5] = 0.0
    with pytest.raises(NumericError, match="zero-norm row in table"):
        normalize_rows(rows, "table")


def _run_variant(root, variant: str) -> dict[str, bytes]:
    """Train, evaluate (ranked lists dumped) and rerank one variant into
    root/<variant>; returns every output file's bytes by relative path."""
    cfg, out = str(root / "run.cfg"), root / variant
    ckpt = str(out / "checkpoint")
    assert main(["train", "--config", cfg, "--variant", variant, "--out", str(out)]) == 0
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--out", str(out / "eval"),
                 "--dump-candidates", str(out / "cands.jsonl")]) == 0
    assert main(["rerank", "--config", cfg, "--candidates", str(out / "cands.jsonl"),
                 "--ranker-checkpoint", ckpt, "--out", str(out / "rerank")]) == 0
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("variant", ["base", "sem-i", "sem-f"])
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, variant):
    runs = []
    for block_bytes in (encoder.BLOCK_BYTES, 8, 8 * 8 * 3):  # default, one row (one value for 1-D), 3 rows of d1=8
        root = tmp_path / str(block_bytes)
        root.mkdir()
        write_fixture_dataset(root)
        (root / "run.cfg").write_text(BASE_CFG)
        assert main(["ingest", "--config", str(root / "run.cfg")]) == 0
        monkeypatch.setattr(encoder, "BLOCK_BYTES", block_bytes)
        runs.append(_run_variant(root, variant))
    assert {"checkpoint/manifest.json", "checkpoint/item_table.bin", "history.json", "cands.jsonl"} <= set(runs[0])
    assert runs[1] == runs[0] and runs[2] == runs[0]

"""Fuzz the CLI's line-oriented inputs: a corrupted line in any of them must
exit 2 with one stderr line naming `<path>:<line>:`, and no traceback.

Each example takes the files of one working run, corrupts one random
non-blank line of one input, runs the command that reads it and restores
the file.
"""

import contextlib
import io
import json
import shutil
import struct

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsr import dataset as ds
from semsr.cli import main
from semsr.embeddings import pseudo_semantic_table, save_semantic_binary, save_semantic_tsv
from test_cli import BASE_CFG, write_fixture_dataset


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def put(key, value):
    """Set `key` of a JSON record; `value` may be a function of (record, n)."""
    return lambda rec, n: {**rec, key: value(rec, n) if callable(value) else value}


def drop(key):
    return lambda rec, n: {k: v for k, v in rec.items() if k != key}


def first_item(value):
    """Replace the first entry of the record's `items` list."""
    return put("items", lambda rec, n: [value(n) if callable(value) else value] + rec["items"][1:])


SESSION_EDITS = [
    drop("session_id"), drop("items"), put("session_id", None), put("session_id", [1]),
    put("items", "it1"), put("items", []), first_item(1.5), first_item(None), put("user_id", True),
]
ITEM_EDITS = [
    drop("id"), drop("title"), put("id", 1.5), put("id", [1]), put("id", True), put("title", None),
    put("title", 5), put("title", ""), put("price", "cheap"), put("price", [1]),
]
SPLIT_EDITS = [
    drop("session_id"), drop("items"), put("items", "12"), put("items", [1.9, True]), put("items", [0]),
    first_item(-1), first_item(lambda n: n),
]
CANDIDATE_EDITS = [
    drop("example"), drop("items"), drop("scores"), put("example", -1), put("example", "0"),
    put("items", "1"), first_item(-1), first_item(lambda n: n),
    put("scores", lambda rec, n: ["x"] + rec["scores"][1:]),
]
TSV_EDITS = [
    lambda line: line.replace("\t", " "),
    lambda line: line.split("\t")[0] + "\t",
    lambda line: line.split("\t")[0] + "\tabc," + line.split(",", 1)[1],
    lambda line: line.split("\t")[0] + "\tnan," + line.split(",", 1)[1],
]
CONFIG_EDITS = [
    lambda line: line.replace("=", " "),
    lambda line: "x" + line,
    lambda line: "= 5",
    lambda line: "d1 = 1.5",
    lambda line: "d1 = 0",
    lambda line: "lr = -1",
    lambda line: "ks = 0,5",
    lambda line: "ratios = 0.9,0.1",
    lambda line: "min_session_len = 1",
]

# input -> (command that reads it, edits of one decoded record or of one raw line)
INPUTS = {
    "sessions.jsonl": ("ingest", SESSION_EDITS),
    "items.jsonl": ("ingest", ITEM_EDITS),
    "data/catalog.json": ("eval", ITEM_EDITS + [put("colour", "red")]),
    "data/train.jsonl": ("eval", SPLIT_EDITS),
    "data/val.jsonl": ("eval", SPLIT_EDITS),
    "data/test.jsonl": ("eval", SPLIT_EDITS),
    "cands.jsonl": ("rerank", CANDIDATE_EDITS),
    "sem.tsv": ("train", TSV_EDITS),
    "run.cfg": ("eval", CONFIG_EDITS),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_fixture_dataset(root)
    (root / "run.cfg").write_text(BASE_CFG)
    (root / "sem.cfg").write_text(BASE_CFG + "semantic_path = sem.tsv\n")
    cfg = str(root / "run.cfg")
    assert run(["ingest", "--config", cfg])[0] == 0
    assert run(["train", "--config", cfg, "--variant", "base", "--out", str(root / "base")])[0] == 0
    assert run([
        "eval", "--config", cfg, "--checkpoint", str(root / "base" / "checkpoint"),
        "--out", str(root / "eval"), "--dump-candidates", str(root / "cands.jsonl"),
    ])[0] == 0
    catalog = ds.load_catalog(root / "data" / "catalog.json")
    save_semantic_tsv(root / "sem.tsv", catalog, pseudo_semantic_table(catalog, 12).matrix)
    return root


def command(root, name: str) -> list[str]:
    cfg, checkpoint, out = str(root / "run.cfg"), str(root / "base" / "checkpoint"), str(root / "out")
    return {
        "ingest": ["ingest", "--config", cfg, "--data-dir", out],
        "eval": ["eval", "--config", cfg, "--checkpoint", checkpoint, "--out", out],
        "rerank": ["rerank", "--config", cfg, "--candidates", str(root / "cands.jsonl"),
                   "--ranker-checkpoint", checkpoint, "--out", out],
        "train": ["train", "--config", str(root / "sem.cfg"), "--variant", "sem-f", "--out", out],
    }[name]


def corrupt(line: str, edit, n: int, data) -> str:
    if line.startswith("{"):
        if data.draw(st.booleans(), label="not JSON"):
            return line[: data.draw(st.integers(1, len(line) - 1), label="cut")]
        return json.dumps(edit(json.loads(line), n))
    return edit(line)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupted_line_is_exit_2_naming_it(workspace, data):
    name = data.draw(st.sampled_from(sorted(INPUTS)), label="input")
    cmd, edits = INPUTS[name]
    path = workspace / name
    original = path.read_text()
    lines = original.splitlines()
    idx = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]), label="line")
    n = ds.load_catalog(workspace / "data" / "catalog.json").n
    lines[idx] = corrupt(lines[idx], data.draw(st.sampled_from(edits), label="edit"), n, data)
    path.write_text("\n".join(lines) + "\n")
    try:
        code, err = run(command(workspace, cmd))
    finally:
        path.write_text(original)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{path}:{idx + 1}:" in err and "Traceback" not in err


def assert_exit_2_naming(code: int, err: str, path) -> None:
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err and "Traceback" not in err


def _manifest(text: str, key: str, literal: str) -> str:
    """The manifest JSON with `key`'s value replaced by the JSON literal."""
    fields = json.loads(text)
    fields[key] = "@"
    return json.dumps(fields).replace('"@"', literal)


CHECKPOINT_FAULTS = {
    # dims 2^32 x 2^32 x 16 multiply to 2^68, which wraps to 0 in int64: an empty blob must not pass
    "dims-overflow": ("item_table.bin", lambda raw: struct.pack("<4Q", 3, 2**32, 2**32, 16)),
    "nan-in-blob": ("item_table.bin", lambda raw: raw[:-4] + struct.pack("<f", float("nan"))),
    "inf-in-blob": ("bb.W1.bin", lambda raw: raw[:-4] + struct.pack("<f", float("-inf"))),
    "infinite-scale": ("manifest.json", lambda raw: _manifest(raw.decode(), "scale", "1e999").encode()),
    "fractional-d1": ("manifest.json", lambda raw: _manifest(raw.decode(), "d1", "8.7").encode()),
    "negative-step": ("manifest.json", lambda raw: _manifest(raw.decode(), "step", "-5").encode()),
    "boolean-seed": ("manifest.json", lambda raw: _manifest(raw.decode(), "seed", "true").encode()),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_bad_checkpoint_is_exit_2_naming_the_file(workspace, tmp_path, fault):
    name, edit = CHECKPOINT_FAULTS[fault]
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(workspace / "base" / "checkpoint", ckpt)
    (ckpt / name).write_bytes(edit((ckpt / name).read_bytes()))
    code, err = run(["eval", "--config", str(workspace / "run.cfg"), "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
    assert_exit_2_naming(code, err, ckpt / name)


@pytest.mark.parametrize("fault", ["zero-width", "nan-value"])
def test_bad_semantic_binary_is_exit_2_naming_the_file(workspace, fault):
    catalog = ds.load_catalog(workspace / "data" / "catalog.json")
    matrix = np.zeros((catalog.n, 0)) if fault == "zero-width" else pseudo_semantic_table(catalog, 12).matrix
    if fault == "nan-value":
        matrix[catalog.n // 2, 3] = np.nan
    path = workspace / f"{fault}.bin"
    save_semantic_binary(path, matrix)
    (workspace / f"{fault}.cfg").write_text(BASE_CFG + f"semantic_path = {path.name}\n")
    for variant in ("sem-i", "sem-f"):
        code, err = run(["train", "--config", str(workspace / f"{fault}.cfg"), "--variant", variant,
                         "--out", str(workspace / f"{fault}-out")])
        assert_exit_2_naming(code, err, path)

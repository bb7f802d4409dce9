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
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tree
from semsr import dataset as ds
from semsr import llm
from semsr.cli import main
from semsr.embeddings import f32_bytes, pseudo_semantic_table, save_semantic_binary, save_semantic_tsv
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
    lambda line: "seed = -1",
    lambda line: "shots = 0",
    lambda line: "patience = 0",
    lambda line: "strategy = foo",
]

# input -> (command that reads it, edits of one decoded record or of one raw line)
INPUTS = {
    "sessions.jsonl": ("ingest", SESSION_EDITS),
    "items.jsonl": ("ingest", ITEM_EDITS),
    "data/catalog.json": ("eval", ITEM_EDITS + [put("colour", "red")]),
    "data/train.jsonl": ("train", SPLIT_EDITS),
    "data/val.jsonl": ("train", SPLIT_EDITS),
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


@pytest.mark.parametrize("name, split", [("train", "test"), ("test", "bogus"), ("val", "train")])
def test_split_record_naming_another_split_is_exit_2_naming_its_line(workspace, name, split):
    """The file decides a session's split: a record whose own "split" says
    otherwise is an error, not a session moved to another split."""
    path = workspace / "data" / f"{name}.jsonl"
    original = path.read_text()
    lines = original.splitlines()
    lines[-1] = json.dumps({**json.loads(lines[-1]), "split": split})
    path.write_text("\n".join(lines) + "\n")
    try:
        code, err = run(command(workspace, INPUTS[f"data/{name}.jsonl"][0]))
    finally:
        path.write_text(original)
    assert_exit_2_naming(code, err, f"{path}:{len(lines)}: session: ")


@pytest.mark.parametrize("key, value", [("session_id", [1, {"a": 2}]), ("user_id", {"x": [3]})])
def test_split_id_that_is_not_a_string_is_exit_2_naming_its_line(workspace, key, value):
    """A split file's ids follow ingest's rule: a string or an integer."""
    path = workspace / "data" / "test.jsonl"
    original = path.read_text()
    lines = original.splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), key: value})
    path.write_text("\n".join(lines) + "\n")
    try:
        code, err = run(command(workspace, "eval"))
    finally:
        path.write_text(original)
    assert_exit_2_naming(code, err, f"{path}:1: session: '{key}' must be a string or an integer")


def _manifest(text: str, key: str, literal: str) -> str:
    """The manifest JSON with `key`'s value replaced by the JSON literal."""
    fields = json.loads(text)
    fields[key] = "@"
    return json.dumps(fields).replace('"@"', literal)


def _zero_last_row(raw: bytes) -> bytes:
    """An (n, d1) blob -- rank, n and d1 as u64 LE, then float32 values -- with its last row zeroed."""
    width = struct.unpack_from("<Q", raw, 16)[0]
    return raw[: -4 * width] + bytes(4 * width)


CHECKPOINT_FAULTS = {
    # dims 2^32 x 2^32 x 16 multiply to 2^68, which wraps to 0 in int64: an empty blob must not pass
    "dims-overflow": ("item_table.bin", lambda raw: struct.pack("<4Q", 3, 2**32, 2**32, 16)),
    "nan-in-blob": ("item_table.bin", lambda raw: raw[:-4] + struct.pack("<f", float("nan"))),
    "inf-in-blob": ("bb.W1.bin", lambda raw: raw[:-4] + struct.pack("<f", float("-inf"))),
    "infinite-scale": ("manifest.json", lambda raw: _manifest(raw.decode(), "scale", "1e999").encode()),
    "fractional-d1": ("manifest.json", lambda raw: _manifest(raw.decode(), "d1", "8.7").encode()),
    "negative-step": ("manifest.json", lambda raw: _manifest(raw.decode(), "step", "-5").encode()),
    "boolean-seed": ("manifest.json", lambda raw: _manifest(raw.decode(), "seed", "true").encode()),
    "unknown-backbone": ("manifest.json", lambda raw: _manifest(raw.decode(), "backbone", '"nope"').encode()),
    "boolean-scale": ("manifest.json", lambda raw: _manifest(raw.decode(), "scale", "true").encode()),
    "string-scale": ("manifest.json", lambda raw: _manifest(raw.decode(), "scale", '"16"').encode()),
    "ragged-payload": ("bb.q.bin", lambda raw: raw + b"\0\0"),
    "rank-0-no-payload": ("bb.q.bin", lambda raw: struct.pack("<Q", 0)),
    "empty-payload-huge-dims": ("item_table.bin", lambda raw: struct.pack("<3Q", 2, 2**62, 0)),
    "misshapen-backbone-tensor": ("bb.W2.bin", lambda raw: struct.pack("<Q", 2) + f32_bytes(np.ones((3, 3)))),
    "missing-backbone-tensor": ("bb.W2.bin", lambda raw: None),
    "unknown-backbone-tensor": ("bb.extra.bin", lambda raw: struct.pack("<Q", 1) + f32_bytes(np.ones(3))),
    "zero-row-in-item-table": ("item_table.bin", _zero_last_row),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_bad_checkpoint_is_exit_2_naming_the_file(workspace, tmp_path, fault):
    """Each edit maps the file's bytes (None if there is none) to new bytes, or to None to delete it."""
    name, edit = CHECKPOINT_FAULTS[fault]
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(workspace / "base" / "checkpoint", ckpt)
    path = ckpt / name
    content = edit(path.read_bytes() if path.exists() else None)
    if content is None:
        path.unlink()
    else:
        path.write_bytes(content)
    code, err = run(["eval", "--config", str(workspace / "run.cfg"), "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
    assert_exit_2_naming(code, err, ckpt / name)


@pytest.mark.parametrize("fault", ["zero-width", "nan-value", "one-byte-short", "one-byte-long"])
def test_bad_semantic_binary_is_exit_2_naming_the_file(workspace, fault):
    catalog = ds.load_catalog(workspace / "data" / "catalog.json")
    matrix = np.zeros((catalog.n, 0)) if fault == "zero-width" else pseudo_semantic_table(catalog, 12).matrix
    if fault == "nan-value":
        matrix[catalog.n // 2, 3] = np.nan
    path = workspace / f"{fault}.bin"
    save_semantic_binary(path, matrix)
    if fault.startswith("one-byte"):
        raw = path.read_bytes()
        path.write_bytes(raw[:-1] if fault == "one-byte-short" else raw + b"\0")
    (workspace / f"{fault}.cfg").write_text(BASE_CFG + f"semantic_path = {path.name}\n")
    for variant in ("sem-i", "sem-f"):
        code, err = run(["train", "--config", str(workspace / f"{fault}.cfg"), "--variant", variant,
                         "--out", str(workspace / f"{fault}-out")])
        assert_exit_2_naming(code, err, path)


@pytest.mark.parametrize(
    "line",
    [
        "lr = inf", "lr = nan", "scale = inf", "timeout = nan", "timeout = -1", "ratios = nan,0.5,0.5",
        "seed = -1", "shots = -1", "shots = 0", "patience = 0", "patience = -1", "strategy = foo", "--seed -1",
    ],
)
def test_non_finite_or_negative_config_value_is_exit_2_naming_its_line(tmp_path, line):
    """A config line, or a flag (named `command line:`) when `line` starts with --."""
    write_fixture_dataset(tmp_path)
    cfg = tmp_path / "run.cfg"
    flag = line.startswith("--")
    cfg.write_text(BASE_CFG + ("" if flag else line + "\n"))
    code, err = run(["ingest", "--config", str(cfg), "--data-dir", str(tmp_path / "data")] + (line.split() if flag else []))
    assert_exit_2_naming(code, err, "command line: " if flag else f"{cfg}:{BASE_CFG.count(chr(10)) + 1}: ")
    assert not (tmp_path / "data").exists()


def test_template_that_is_not_utf8_is_exit_2_naming_it(workspace, tmp_path):
    templates = tmp_path / "templates"
    shutil.copytree(Path(llm.__file__).parent / "templates", templates)
    (templates / "system.txt").write_bytes(b"\xff\xfe" + (templates / "system.txt").read_bytes())
    (tmp_path / "mock.json").write_text("{}")
    cfg = workspace / "tpl.cfg"
    cfg.write_text(BASE_CFG + f"templates_dir = {templates}\nmock_responses = {tmp_path / 'mock.json'}\n"
                   "mock_default = thing number 1\n")
    code, err = run(["prompt", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert_exit_2_naming(code, err, templates / "system.txt")


def test_sem_i_start_row_of_zero_is_exit_2_naming_the_semantic_source(workspace):
    """Item 3's semantic row is the column mean (every column of the integer
    table sums to 0 exactly), so its centered PCA projection is zero."""
    catalog = ds.load_catalog(workspace / "data" / "catalog.json")
    matrix = np.random.default_rng(0).integers(-5, 6, size=(catalog.n, 12)).astype(float)
    matrix[3] = 0.0
    matrix[-1] -= matrix.sum(axis=0)
    path, out = workspace / "mean-row.tsv", workspace / "mean-row-out"
    save_semantic_tsv(path, catalog, matrix)
    (workspace / "mean-row.cfg").write_text(BASE_CFG + f"semantic_path = {path.name}\n")
    code, err = run(["train", "--config", str(workspace / "mean-row.cfg"), "--variant", "sem-i", "--out", str(out)])
    assert_exit_2_naming(code, err, path)
    assert "item 3 " in err and not out.exists()


def test_dump_candidates_into_a_new_directory_creates_it(workspace, tmp_path):
    cands = tmp_path / "nodir" / "c.jsonl"
    code, err = run(command(workspace, "eval")[:-1] + [str(tmp_path / "out"), "--dump-candidates", str(cands)])
    assert code == 0, err
    assert cands.read_text() == (workspace / "cands.jsonl").read_text()
    assert (tmp_path / "out" / "report.json").exists()


def test_dump_candidates_that_cannot_be_written_leaves_no_report(workspace, tmp_path):
    (tmp_path / "cands").mkdir()
    code, err = run(command(workspace, "eval")[:-1] + [str(tmp_path / "out"), "--dump-candidates", str(tmp_path / "cands")])
    assert_exit_2_naming(code, err, tmp_path / "cands")
    assert not (tmp_path / "out" / "report.json").exists()


def test_ingest_that_cannot_replace_a_split_leaves_the_data_dir_as_it_was(tmp_path):
    """A re-ingest that would write 12 items, over a data dir of 25 whose
    val.jsonl is now a directory, changes no file: the old catalog and
    manifest still describe the old splits."""
    write_fixture_dataset(tmp_path)
    (tmp_path / "run.cfg").write_text(BASE_CFG)
    (tmp_path / "rare.cfg").write_text(BASE_CFG.replace("min_item_freq = 2", "min_item_freq = 13"))
    assert run(["ingest", "--config", str(tmp_path / "run.cfg")])[0] == 0
    data = tmp_path / "data"
    (data / "val.jsonl").unlink()
    (data / "val.jsonl").mkdir()
    before = tree(tmp_path)
    code, err = run(["ingest", "--config", str(tmp_path / "rare.cfg")])
    assert_exit_2_naming(code, err, data / "val.jsonl")
    assert tree(tmp_path) == before
    assert len((data / "catalog.json").read_text().splitlines()) == 25
    assert json.loads((data / "manifest.json").read_text())["n_items"] == 25


def test_train_that_cannot_write_its_history_leaves_no_checkpoint(workspace, tmp_path):
    (tmp_path / "out" / "history.json").mkdir(parents=True)
    before = tree(tmp_path)
    code, err = run(["train", "--config", str(workspace / "run.cfg"), "--variant", "base", "--out", str(tmp_path / "out")])
    assert_exit_2_naming(code, err, tmp_path / "out" / "history.json")
    assert tree(tmp_path) == before


def test_eval_that_cannot_write_its_report_leaves_no_candidates(workspace, tmp_path):
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    before = tree(tmp_path)
    cands = tmp_path / "c" / "cands.jsonl"
    code, err = run(command(workspace, "eval")[:-1] + [str(tmp_path / "out"), "--dump-candidates", str(cands)])
    assert_exit_2_naming(code, err, tmp_path / "out" / "report.json")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("absolute", [False, True])
def test_dump_candidates_onto_the_report_is_exit_2_leaving_the_tree_as_it_was(workspace, tmp_path, monkeypatch, absolute):
    """Given relative, the two targets were once one output and the report was
    lost; given absolute, the second rename failed after the first was done."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "report.json").write_text("old report\n")
    before = tree(tmp_path)
    dump = tmp_path / "o" / "report.json" if absolute else Path("o") / "report.json"
    code, err = run(command(workspace, "eval")[:-1] + ["o", "--dump-candidates", str(dump)])
    assert_exit_2_naming(code, err, (tmp_path / "o" / "report.json").resolve())
    assert tree(tmp_path) == before


@pytest.mark.parametrize("line", ["timeout = 1e10", "endpoint_url = localhost:8080/v1/chat", "endpoint_url = file://{reply}",
                                  "endpoint_url = http://127.0.0.1:99999/"])
def test_endpoint_that_cannot_be_sent_to_is_exit_2_naming_its_line(workspace, tmp_path, monkeypatch, line):
    """A timeout past the socket's limit, a URL without a scheme, a local file
    and a port that the resolver would wrap to another (99999 to 34463) are
    each refused before any request is made."""
    opened = []

    def urlopen(*args, **kwargs):
        opened.append(args)
        raise urllib.error.URLError("no request may be made")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    (tmp_path / "reply.json").write_text(json.dumps({"text": "thing number 1"}))
    cfg = workspace / "endpoint.cfg"
    cfg.write_text(BASE_CFG + "endpoint_url = http://127.0.0.1:9/\n" + line.format(reply=tmp_path / "reply.json") + "\n")
    code, err = run(["prompt", "--config", str(cfg), "--out", str(tmp_path / "out")])
    key = line.split(" ")[0]
    assert_exit_2_naming(code, err, f"{cfg}:{BASE_CFG.count(chr(10)) + 2}: config: {key} must be ")
    assert not opened and not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, what", [("items.jsonl", "metadata"), ("data/catalog.json", "catalog")])
@pytest.mark.parametrize("price, read", [('"nan"', "'nan'"), ("1e999", "inf")])
def test_price_that_is_not_finite_is_exit_2_naming_its_line(workspace, name, what, price, read):
    """NaN and Infinity are not JSON, so no catalog may hold them."""
    path, before = workspace / name, tree(workspace)
    lines = before[path].decode().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "price": "?"}).replace('"?"', price)
    path.write_text("\n".join(lines) + "\n")
    try:
        code, err = run(command(workspace, INPUTS[name][0]))
    finally:
        path.write_bytes(before[path])
    assert_exit_2_naming(code, err, f"{path}:3: {what}: price must be a finite number, got {read}\n")
    assert tree(workspace) == before

import dataclasses
import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import semsr.dataset as ds
from helpers import count_item_side_builds, make_catalog, raw_serving, serving
from oracles import rr_at_k
from semsr import config, model
from semsr.cli import main
from semsr.config import RunConfig, load_config
from semsr.embeddings import pseudo_semantic_table, save_semantic_tsv
from semsr.dataset import Example
from semsr.errors import DataError, check_values
from semsr.llm import HttpClient, build_fewshot_strategy, build_prompt, load_templates, prompt_hash
from semsr.metrics import evaluate
from semsr.model import load_checkpoint, save_checkpoint, score_all
from semsr.retrieval import read_candidates, rerank
from semsr.train import fit


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = RunConfig()
        assert (cfg.d1, cfg.d2, cfg.d) == (100, 1024, 100)
        assert cfg.batch_size == 100 and cfg.lr == 0.001
        assert cfg.scale == 16.0
        assert cfg.ks == (20, 100)
        assert cfg.min_item_freq == 5 and cfg.min_session_len == 2
        assert cfg.ratios == (0.8, 0.1, 0.1)

    def test_file_values_and_overrides(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\nvariant = sem-f\nd1 = 8\nks = 5,10\nseed = 3\n")
        cfg = load_config(f, overrides={"seed": 9})
        assert cfg.variant == "sem-f" and cfg.d1 == 8
        assert cfg.ks == (5, 10)
        assert cfg.seed == 9  # flag wins

    @pytest.mark.parametrize("key", ["learning_rate", "init", "beta1", "beta2", "epsilon", "backbone"])
    def test_unknown_key_rejected(self, tmp_path, key):
        f = tmp_path / "run.cfg"
        f.write_text(f"{key} = 0.1\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(f))}:1: config: unknown config key"):
            load_config(f)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("data_dir = data\n")
        cfg = load_config(f)
        assert cfg.data_dir == str(tmp_path / "data")

    def test_relative_flag_path_is_kept_as_given(self, tmp_path):
        """A relative path in the file resolves against the file's directory;
        the same value given as a flag is left to the working directory."""
        f = tmp_path / "conf" / "run.cfg"
        f.parent.mkdir()
        f.write_text("checkpoint = runs/x/checkpoint\nout_dir = out\n")
        cfg = load_config(f)
        assert (cfg.checkpoint, cfg.out_dir) == (str(f.parent / "runs/x/checkpoint"), str(f.parent / "out"))
        cfg = load_config(f, overrides={"checkpoint": "runs/x/checkpoint", "out_dir": "out"})
        assert (cfg.checkpoint, cfg.out_dir) == ("runs/x/checkpoint", "out")

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n# run.cfg\n", 1)[1].split("```", 1)[0]
        f = tmp_path / "run.cfg"
        f.write_text("# run.cfg\n" + block)
        cfg = load_config(f)
        assert cfg.data_dir == str(tmp_path / "data")
        assert cfg.d2 == 1024 and cfg.out_dir == str(tmp_path / "runs" / "base")
        assert cfg.ks == (20, 100) and cfg.min_item_freq == 2

    def test_readme_library_block_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
        write_fixture_dataset(tmp_path)
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("RankedList(items=")

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("mock_default = item#7  # trailing comment\n")
        assert load_config(f).mock_default == "item#7"

    def test_bad_variant_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("variant = fancy\n")
        with pytest.raises(DataError, match="variant"):
            load_config(f)

    @pytest.mark.parametrize("key", ["val_k", "max_retries"])
    def test_count_below_one_rejected_by_name(self, tmp_path, key):
        f = tmp_path / "run.cfg"
        f.write_text(f"{key} = 0\n")
        with pytest.raises(DataError, match=f"{key} must be >= 1"):
            load_config(f)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("d1", "0", "d1 must be >= 1, got 0"),
            ("lr", "-1", "lr must be finite and positive, got -1.0"),
            ("ks", "0,5", "ks must be all >= 1, got (0, 5)"),
            ("min_item_freq", "0", "min_item_freq must be >= 1, got 0"),
            ("min_session_len", "1", "min_session_len must be >= 2, got 1"),
            ("ratios", "0.9,0.1", "ratios must be three values >= 0 that sum to 1, got (0.9, 0.1)"),
            ("ratios", "1.2,-0.1,-0.1", "ratios must be three values >= 0 that sum to 1, got (1.2, -0.1, -0.1)"),
            ("seed", "-1", "seed must be >= 0, got -1"),
            ("shots", "0", "shots must be >= 1, got 0"),
            ("patience", "0", "patience must be >= 1, got 0"),
            ("strategy", "foo", "strategy must be one of ('fs', 'zcot', 'fscot'), got 'foo'"),
        ],
    )
    def test_out_of_range_value_names_its_source(self, tmp_path, key, value, message):
        f = tmp_path / "run.cfg"
        f.write_text(f"seed = 3\n{key} = {value}\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{f}:2: config: {message}')}$"):
            load_config(f)
        f.write_text("seed = 3\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'command line: {message}')}$"):
            load_config(f, overrides={key: value})

    def test_config_rules_are_the_rules_of_the_code_that_takes_each_value(self, tmp_path):
        """Every numeric or choice field has a rule and its default passes it;
        a bad value reads, after its config line or `command line: `, word for
        word what each library call that takes the value raises."""
        defaults, bad = RunConfig(), _bad_values()
        names = {f.name for f in dataclasses.fields(RunConfig)}
        ruled = {name for name in names if getattr(defaults, name) is not None}
        assert ruled <= config._RULES.keys()
        for name in ruled:
            check_values(config._RULES, **{name: getattr(defaults, name)})
        assert bad.keys() == config._RULES.keys() & names
        f = tmp_path / "run.cfg"
        for key, (value, calls) in bad.items():
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            f.write_text("seed = 3\n")
            with pytest.raises(DataError) as from_flag:
                load_config(f, overrides={key: text})
            message = str(from_flag.value).removeprefix("command line: ")
            assert message.startswith(f"{key} must be ") and message.endswith(f", got {value!r}"), key
            f.write_text(f"seed = 3\n{key} = {text}\n")
            with pytest.raises(DataError) as from_line:
                load_config(f)
            assert str(from_line.value) == f"{f}:2: config: {message}"
            for call in calls:
                with pytest.raises(DataError) as from_library:
                    call(value)
                assert str(from_library.value) == message, key


def _bad_values() -> dict:
    """{config key: (a value outside its rule, the library calls that take the value)}"""
    params, examples, catalog = model.init_model("base", 4, 2, 2, 2, seed=0), [Example([0], 1)], make_catalog(4)

    def header(key):
        return lambda v: model.init_model(**{"variant": "base", "n": 4, "d1": 2, "d2": 2, "d": 2, "seed": 0, key: v})

    def schedule(key):
        return lambda v: fit(examples, [], params.copy(), **{key: v})

    return {
        "variant": ("fancy", [header("variant")]),
        "scale": (0.0, [header("scale")]),
        **{key: (0, [header(key)]) for key in ("d1", "d2", "d")},
        "seed": (-1, [header("seed"), schedule("seed"), lambda v: ds.split_by_user([], seed=v)]),
        **{key: (0, [schedule(key)]) for key in ("epochs", "batch_size", "patience", "val_k")},
        "lr": (-1.0, [schedule("lr")]),
        "min_item_freq": (0, [lambda v: ds.preprocess([], {}, min_item_freq=v)]),
        "min_session_len": (1, [lambda v: ds.preprocess([], {}, min_session_len=v)]),
        "ratios": ((0.9, 0.1), [lambda v: ds.split_by_user([], ratios=v)]),
        "ks": ((0, 5), [lambda v: evaluate([[1]], [1], ks=v)]),
        "strategy": ("foo", [lambda v: build_fewshot_strategy(v, [], catalog)]),
        "shots": (0, [lambda v: build_fewshot_strategy("fs", [], catalog, n_shots=v)]),
        "endpoint_url": ("file:///x", [HttpClient]),
        "timeout": (1e10, [lambda v: HttpClient("http://localhost/", timeout=v)]),
        "max_retries": (0, [lambda v: HttpClient("http://localhost/", max_retries=v)]),
        "threads": (0, []),  # only the CLI reads it
    }


def write_fixture_dataset(root: Path, n_items=25, n_users=40, seed=0):
    rng = np.random.default_rng(seed)
    items = [
        {"id": f"it{j}", "title": f"thing number {j}", "brand": f"b{j % 4}", "price": round(float(rng.uniform(1, 50)), 2)}
        for j in range(n_items)
    ]
    (root / "items.jsonl").write_text("".join(json.dumps(it) + "\n" for it in items))
    sessions = []
    for u in range(n_users):
        for s in range(int(rng.integers(1, 4))):
            length = int(rng.integers(2, 7))
            seq = [f"it{int(x)}" for x in rng.integers(0, n_items, size=length)]
            sessions.append({"session_id": f"u{u}-s{s}", "user_id": f"u{u}", "items": seq})
    (root / "sessions.jsonl").write_text("".join(json.dumps(s) + "\n" for s in sessions))
    return sessions


BASE_CFG = """
sessions_path = sessions.jsonl
metadata_path = items.jsonl
data_dir = data
min_item_freq = 2
min_session_len = 2
d1 = 8
d2 = 12
d = 8
epochs = 2
batch_size = 16
patience = 5
seed = 7
ks = 5,10
val_k = 10
"""


@pytest.fixture()
def workspace(tmp_path):
    write_fixture_dataset(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG)
    assert main(["ingest", "--config", str(cfg)]) == 0
    return tmp_path


class TestIngestCommand:
    def test_manifest_statistics(self, workspace):
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        n = manifest["n_items"]
        parts = [ds.load_sessions(workspace / "data" / f"{name}.jsonl", n, split=name) for name in ("train", "val", "test")]
        # counting oracle over the written splits
        assert manifest["avg_session_len"] == pytest.approx(
            sum(len(part.items) for part in parts) / sum(len(part) for part in parts)
        )
        assert manifest["n_train_examples"] == len(parts[0].items) - len(parts[0])
        n_catalog_lines = len((workspace / "data" / "catalog.json").read_text().splitlines())
        assert manifest["n_items"] == n_catalog_lines
        assert manifest["seed"] == 7

    def test_idempotent_given_same_inputs(self, workspace):
        files = sorted((workspace / "data").glob("*"))
        before = {f.name: f.read_bytes() for f in files}
        assert main(["ingest", "--config", str(workspace / "run.cfg")]) == 0
        after = {f.name: f.read_bytes() for f in sorted((workspace / "data").glob("*"))}
        assert before == after

    def test_non_numeric_price_is_exit_2_naming_the_line(self, tmp_path, capsys):
        write_fixture_dataset(tmp_path)
        items = tmp_path / "items.jsonl"
        lines = items.read_text().splitlines(keepends=True)
        lines[2] = json.dumps({**json.loads(lines[2]), "price": "cheap"}) + "\n"
        items.write_text("".join(lines))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        assert main(["ingest", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{items}:3:" in err and "price" in err and err.count("\n") == 1

    def test_missing_metadata_is_exit_2(self, tmp_path, capsys):
        write_fixture_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("items.jsonl", "missing.jsonl"))
        assert main(["ingest", "--config", str(cfg)]) == 2
        assert "missing.jsonl" in capsys.readouterr().err


class TestTrainEvalCommands:
    def test_train_eval_roundtrip(self, workspace):
        cfg = str(workspace / "run.cfg")
        assert main(["train", "--config", cfg, "--variant", "base", "--out", str(workspace / "base")]) == 0
        assert (workspace / "base" / "checkpoint" / "manifest.json").exists()
        history = json.loads((workspace / "base" / "history.json").read_text())
        assert len(history) == 2 and all("train_loss" in h for h in history)

        assert main([
            "eval", "--config", cfg, "--checkpoint", str(workspace / "base" / "checkpoint"),
            "--out", str(workspace / "eval"),
            "--dump-candidates", str(workspace / "eval" / "candidates.jsonl"),
        ]) == 0
        report = json.loads((workspace / "eval" / "report.json").read_text())
        assert set(report["K"]) == {"5", "10"}
        for row in report["K"].values():
            assert 0.0 <= row["mrr"] <= row["recall"] <= 1.0
        assert (workspace / "eval" / "candidates.jsonl").exists()
        assert not [p for p in workspace.rglob(".*") if p.suffix in (".new", ".old")]

    def test_train_writes_its_outputs_in_one_call(self, workspace, monkeypatch):
        """The checkpoint is staged once, beside history.json, not again inside its own staging."""
        calls = []

        def counted(writers, _write=ds.write_outputs):
            calls.append(sorted(Path(target).name for target, _ in writers))
            return _write(writers)

        monkeypatch.setattr(ds, "write_outputs", counted)
        monkeypatch.setattr(model, "write_outputs", counted)
        assert main(["train", "--config", str(workspace / "run.cfg"), "--out", str(workspace / "m")]) == 0
        assert calls == [["checkpoint", "history.json"]]

    def test_training_is_deterministic(self, workspace):
        cfg = str(workspace / "run.cfg")
        for out in ("r1", "r2"):
            assert main(["train", "--config", cfg, "--variant", "sem-f", "--out", str(workspace / out)]) == 0
        a = workspace / "r1" / "checkpoint"
        b = workspace / "r2" / "checkpoint"
        for blob in sorted(a.glob("*")):
            assert blob.read_bytes() == (b / blob.name).read_bytes(), blob.name
        assert (workspace / "r1" / "history.json").read_bytes() == (workspace / "r2" / "history.json").read_bytes()

    def test_semi_trains_with_pseudo_semantic(self, workspace):
        cfg = str(workspace / "run.cfg")
        assert main(["train", "--config", cfg, "--variant", "sem-i", "--out", str(workspace / "semi")]) == 0
        manifest = json.loads((workspace / "semi" / "checkpoint" / "manifest.json").read_text())
        assert manifest["variant"] == "sem-i"

    def test_eval_without_checkpoint_is_exit_2(self, workspace):
        assert main(["eval", "--config", str(workspace / "run.cfg")]) == 2

    def test_relative_flag_paths_resolve_against_the_working_directory(self, workspace, monkeypatch):
        cfg = str(workspace / "run.cfg")
        assert main(["train", "--config", cfg, "--variant", "base", "--out", str(workspace / "base")]) == 0
        (workspace / "cwd").mkdir()
        monkeypatch.chdir(workspace / "cwd")
        assert main(["eval", "--config", cfg, "--checkpoint", "../base/checkpoint", "--out", "ev"]) == 0
        assert (workspace / "cwd" / "ev" / "report.json").exists() and not (workspace / "ev").exists()

    def test_eval_with_manifest_key_missing_is_exit_2(self, workspace, capsys):
        cfg = str(workspace / "run.cfg")
        assert main(["train", "--config", cfg, "--variant", "base", "--out", str(workspace / "base")]) == 0
        manifest = workspace / "base" / "checkpoint" / "manifest.json"
        fields = json.loads(manifest.read_text())
        del fields["d1"]
        manifest.write_text(json.dumps(fields))
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(manifest.parent)]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "'d1'" in err

    @pytest.mark.parametrize(
        "path, content, named",
        [
            ("base/checkpoint/item_table.bin", b"\x02\x00\x00\x00", "item_table.bin"),
            ("data/test.jsonl", b'{"items": [0, 1], "split": "test"}\n', "test.jsonl:"),
            ("data/catalog.json", b'{"id": "extra", "title": "t", "colour": "red"}\n', "catalog.json:"),
            ("data/test.jsonl", b'{"session_id": "x", "items": [-1, 3], "split": "test"}\n', "test.jsonl:"),
            ("data/test.jsonl", b'{"session_id": "x", "items": [1000000, 3], "split": "test"}\n', "test.jsonl:"),
        ],
        ids=["short-blob", "session-without-id", "catalog-unknown-key", "negative-item", "item-past-catalog"],
    )
    def test_malformed_artefact_is_exit_2_naming_the_file(self, workspace, capsys, path, content, named):
        cfg = str(workspace / "run.cfg")
        assert main(["train", "--config", cfg, "--variant", "base", "--out", str(workspace / "base")]) == 0
        target = workspace / path
        if target.suffix == ".bin":
            target.write_bytes(content)
        else:
            target.write_bytes(target.read_bytes() + content)
            named += str(len(target.read_text().splitlines()))
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(workspace / "base" / "checkpoint")]) == 2
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "fault, variant, named",
        [
            ("item-table-5-rows-long", "base", "m/checkpoint:"),
            ("item-table-3-rows-short", "base", "m/checkpoint:"),
            ("semantic-16-wide", "sem-f", "sem16.tsv"),
            ("w4-column-short", "sem-f", "W4.bin"),
            ("w4-in-base", "base", "m/checkpoint/W4.bin"),
            ("manifest-d1-huge", "base", "m/checkpoint/item_table.bin"),
        ],
        ids=["item-table-long", "item-table-short", "semantic-too-wide", "w4-column-short", "w4-in-base", "d1-huge"],
    )
    def test_checkpoint_that_does_not_fit_is_exit_2(self, workspace, capsys, fault, variant, named):
        cfg = workspace / "run.cfg"
        ckpt = workspace / "m" / "checkpoint"
        assert main(["train", "--config", str(cfg), "--variant", variant, "--out", str(ckpt.parent)]) == 0
        params = load_checkpoint(ckpt)
        table = params.tensors["item_table"]
        if fault == "item-table-5-rows-long":
            params.tensors["item_table"] = np.concatenate([table, table[:5]])
        elif fault == "item-table-3-rows-short":
            params.tensors["item_table"] = table[:-3]
        elif fault == "w4-column-short":
            params.tensors["W4"] = params.tensors["W4"][:, :-1]
        elif fault == "w4-in-base":
            params.tensors["W4"] = np.zeros((8, 20))
        elif fault == "manifest-d1-huge":  # refused by the table's width before the backbone draws 10^12 values
            params.d1 = 10**6
        else:
            catalog = ds.load_catalog(workspace / "data" / "catalog.json")
            semantic = pseudo_semantic_table(catalog, 16)
            lines = [f"{m.id}\t{','.join(map(repr, row))}\n" for m, row in zip(catalog.items, semantic.matrix.tolist())]
            (workspace / "sem16.tsv").write_text("".join(lines))
            cfg.write_text(BASE_CFG + "semantic_path = sem16.tsv\n")
        save_checkpoint(ckpt, params)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1 and "Traceback" not in err

    def test_retrain_into_the_same_out_replaces_the_checkpoint(self, workspace):
        cfg = str(workspace / "run.cfg")
        for variant in ("sem-f", "base"):
            assert main(["train", "--config", cfg, "--variant", variant, "--out", str(workspace / "m")]) == 0
        assert main(["eval", "--config", cfg, "--checkpoint", str(workspace / "m" / "checkpoint"), "--out", str(workspace / "e")]) == 0
        assert not (workspace / "m" / "checkpoint" / "W4.bin").exists()

    def test_semf_scored_with_another_semantic_export_is_exit_2(self, workspace, capsys):
        # two exports of the same width: a sem-f checkpoint only scores with its own
        catalog = ds.load_catalog(workspace / "data" / "catalog.json")
        matrix = pseudo_semantic_table(catalog, 12).matrix
        for name, rows in (("a.tsv", matrix), ("b.tsv", matrix[::-1])):
            save_semantic_tsv(workspace / name, catalog, rows)
            (workspace / f"{name}.cfg").write_text(BASE_CFG + f"semantic_path = {name}\n")
        ckpt = workspace / "m" / "checkpoint"
        assert main(["train", "--config", str(workspace / "a.tsv.cfg"), "--variant", "sem-f", "--out", str(ckpt.parent)]) == 0
        assert sorted(p.name for p in ckpt.parent.iterdir()) == ["checkpoint", "history.json"]
        cands = workspace / "e" / "cands.jsonl"
        assert main([
            "eval", "--config", str(workspace / "a.tsv.cfg"), "--checkpoint", str(ckpt),
            "--out", str(workspace / "e"), "--dump-candidates", str(cands),
        ]) == 0
        for argv in (
            ["eval", "--checkpoint", str(ckpt), "--out", str(workspace / "e")],
            ["rerank", "--candidates", str(cands), "--ranker-checkpoint", str(ckpt), "--out", str(workspace / "r")],
        ):
            capsys.readouterr()
            assert main([argv[0], "--config", str(workspace / "b.tsv.cfg"), *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert str(ckpt / "manifest.json") in err and "b.tsv" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("variant, builder", [("base", "normalized_item_matrix"), ("sem-f", "fused_item_matrix")])
    def test_eval_and_rerank_build_the_item_side_once(self, workspace, monkeypatch, variant, builder):
        cfg, ckpt, cands = str(workspace / "run.cfg"), str(workspace / "m" / "checkpoint"), str(workspace / "cands.jsonl")
        assert main(["train", "--config", cfg, "--variant", variant, "--out", str(workspace / "m")]) == 0
        monkeypatch.setattr(model, "SCORE_CHUNK", 3)  # several chunks per command
        builds = count_item_side_builds(monkeypatch)
        assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--out", str(workspace / "e"), "--dump-candidates", cands]) == 0
        assert builds == [builder]
        builds.clear()
        assert main(["rerank", "--config", cfg, "--candidates", cands, "--ranker-checkpoint", ckpt, "--out", str(workspace / "r")]) == 0
        assert builds == [builder]

    def test_divergence_is_exit_1_with_checkpoint_retained(self, workspace, capsys):
        cfg = workspace / "diverge.cfg"
        cfg.write_text(BASE_CFG + "lr = 1e200\nvariant = sem-f\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg), "--out", str(workspace / "div")])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        assert (workspace / "div" / "checkpoint" / "manifest.json").exists()


def rerank_inputs(workspace, ranker_variant="base"):
    """Train a ranker and a sem-i candidate model, dump its candidates."""
    cfg = str(workspace / "run.cfg")
    assert main(["train", "--config", cfg, "--variant", ranker_variant, "--out", str(workspace / "ranker")]) == 0
    assert main(["train", "--config", cfg, "--variant", "sem-i", "--out", str(workspace / "cand")]) == 0
    assert main([
        "eval", "--config", cfg, "--checkpoint", str(workspace / "cand" / "checkpoint"),
        "--out", str(workspace / "cand-eval"),
        "--dump-candidates", str(workspace / "cand-eval" / "candidates.jsonl"),
    ]) == 0
    return workspace / "cand-eval" / "candidates.jsonl"


def run_rerank(workspace, candidates, out="rerank"):
    return main([
        "rerank", "--config", str(workspace / "run.cfg"), "--candidates", str(candidates),
        "--ranker-checkpoint", str(workspace / "ranker" / "checkpoint"), "--out", str(workspace / out),
    ])


def _first(recs, **fields):
    return [{**recs[0], **fields}] + recs[1:]


# Each entry breaks the parsed records of a good candidate file; n is the catalog size.
BAD_CANDIDATES = {
    "negative-item": lambda recs, n: _first(recs, items=[-1] + recs[0]["items"][1:]),
    "fractional-item": lambda recs, n: _first(recs, items=[1.7] + recs[0]["items"][1:]),
    "item-outside-catalog": lambda recs, n: _first(recs, items=[n] + recs[0]["items"][1:]),
    "non-finite-score": lambda recs, n: _first(recs, scores=[float("nan")] + recs[0]["scores"][1:]),
    "score-count": lambda recs, n: _first(recs, scores=recs[0]["scores"][:-1]),
    "list-record": lambda recs, n: [[1, 2, 3]] + recs[1:],
    "duplicate-example": lambda recs, n: recs[:1] + [{**recs[1], "example": 0}] + recs[2:],
    "gap-in-example-ids": lambda recs, n: recs[:-1] + [{**recs[-1], "example": len(recs) + 4}],
    "extra-example": lambda recs, n: recs + [{**recs[-1], "example": len(recs)}],
}


class TestRerankCommand:
    def test_rerank_preserves_recall(self, workspace):
        candidates = rerank_inputs(workspace)
        assert run_rerank(workspace, candidates) == 0
        rerank_report = json.loads((workspace / "rerank" / "rerank_report.json").read_text())
        eval_report = json.loads((workspace / "cand-eval" / "report.json").read_text())
        for k in ("5", "10"):
            assert rerank_report["K"][k]["recall"] == eval_report["K"][k]["recall"]

    @pytest.mark.parametrize("ranker_variant", ["base", "sem-f"])
    def test_mrr_matches_per_example_oracle(self, workspace, monkeypatch, ranker_variant):
        candidates = rerank_inputs(workspace, ranker_variant)
        monkeypatch.setattr(model, "SCORE_CHUNK", 3)
        assert run_rerank(workspace, candidates) == 0
        report = json.loads((workspace / "rerank" / "rerank_report.json").read_text())

        ranker = load_checkpoint(workspace / "ranker" / "checkpoint")
        catalog = ds.load_catalog(workspace / "data" / "catalog.json")
        semantic = pseudo_semantic_table(catalog, ranker.d2) if ranker_variant == "sem-f" else None
        examples = ds.expand_incremental(ds.load_sessions(workspace / "data" / "test.jsonl", catalog.n, split="test"))
        assert len(examples) > 3  # the report crossed chunk boundaries
        cands = read_candidates(candidates, catalog.n)
        for k in (5, 10):
            rr_after, rr_before = [], []
            for ex, cand in zip(examples, cands):
                rr_after.append(rr_at_k(rerank(cand, score_all(ex.prefix, ranker, semantic), k).items, ex.target, k))
                rr_before.append(rr_at_k(cand.items, ex.target, k))
            assert report["K"][str(k)]["mrr"] == math.fsum(rr_after) / len(examples)
            assert report["K"][str(k)]["mrr_before"] == math.fsum(rr_before) / len(examples)

    def test_report_has_the_eval_layout_plus_mrr_before(self, workspace):
        candidates = rerank_inputs(workspace)
        assert run_rerank(workspace, candidates) == 0
        report = json.loads((workspace / "rerank" / "rerank_report.json").read_text())
        eval_report = json.loads((workspace / "cand-eval" / "report.json").read_text())
        assert report.keys() - {"ranker_variant"} == eval_report.keys() - {"variant"}
        for k, row in eval_report["K"].items():
            assert report["K"][k].keys() == row.keys() | {"mrr_before"}
            assert report["K"][k]["mrr_before"] == row["mrr"]

    def test_eval_and_rerank_read_only_the_catalog_and_the_test_split(self, workspace):
        candidates = rerank_inputs(workspace)
        checkpoint = str(workspace / "cand" / "checkpoint")
        reports = []
        for run in ("with", "without"):
            if run == "without":
                (workspace / "data" / "train.jsonl").unlink()
                (workspace / "data" / "val.jsonl").unlink()
            assert main(["eval", "--config", str(workspace / "run.cfg"), "--checkpoint", checkpoint,
                         "--out", str(workspace / f"eval-{run}")]) == 0
            assert run_rerank(workspace, candidates, f"rerank-{run}") == 0
            reports.append([(workspace / f"{cmd}-{run}" / name).read_bytes()
                            for cmd, name in (("eval", "report.json"), ("rerank", "rerank_report.json"))])
        assert reports[0] == reports[1]

    def test_report_is_byte_identical_across_runs(self, workspace):
        candidates = rerank_inputs(workspace, "sem-f")
        assert run_rerank(workspace, candidates, "r1") == 0
        assert run_rerank(workspace, candidates, "r2") == 0
        first = (workspace / "r1" / "rerank_report.json").read_bytes()
        assert first == (workspace / "r2" / "rerank_report.json").read_bytes()

    def test_repeated_cutoff_is_counted_once(self, workspace):
        candidates = rerank_inputs(workspace)
        for ks, out in (("5", "once"), ("5,5", "twice")):
            assert main([
                "rerank", "--config", str(workspace / "run.cfg"), "--candidates", str(candidates),
                "--ranker-checkpoint", str(workspace / "ranker" / "checkpoint"), "--k", ks, "--out", str(workspace / out),
            ]) == 0
        once = (workspace / "once" / "rerank_report.json").read_bytes()
        assert once == (workspace / "twice" / "rerank_report.json").read_bytes()

    def test_ranker_that_does_not_fit_the_catalog_is_exit_2(self, workspace, capsys):
        candidates = rerank_inputs(workspace)
        ckpt = workspace / "ranker" / "checkpoint"
        params = load_checkpoint(ckpt)
        params.tensors["item_table"] = params.tensors["item_table"][:-3]
        save_checkpoint(ckpt, params)
        capsys.readouterr()
        assert run_rerank(workspace, candidates) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("fault", sorted(BAD_CANDIDATES))
    def test_bad_candidate_file_is_exit_2(self, workspace, capsys, fault):
        candidates = rerank_inputs(workspace)
        n_items = ds.load_catalog(workspace / "data" / "catalog.json").n
        recs = [json.loads(line) for line in candidates.read_text().splitlines()]
        candidates.write_text("".join(json.dumps(r) + "\n" for r in BAD_CANDIDATES[fault](recs, n_items)))
        capsys.readouterr()
        assert run_rerank(workspace, candidates) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(candidates) in err and "Traceback" not in err


def write_title_mock(workspace, every=1):
    """mock.json mapping the fs prompt of every `every`-th test example to
    its target's title, the way `prompt` will build it at seed 7."""
    data = workspace / "data"
    catalog = ds.load_catalog(data / "catalog.json")
    train = ds.load_sessions(data / "train.jsonl", catalog.n, split="train")
    test = ds.load_sessions(data / "test.jsonl", catalog.n, split="test")
    strategy = build_fewshot_strategy("fs", train, catalog, n_shots=3, seed=7)
    templates = load_templates()
    mapping = {}
    for ex in list(ds.expand_incremental(test))[::every]:
        titles = [catalog.title(i) for i in ex.prefix]
        system, user = build_prompt(strategy, titles, templates=templates)
        mapping[prompt_hash(system, user)] = catalog.title(ex.target)
    (workspace / "mock.json").write_text(json.dumps(mapping))


class TestPromptCommand:
    def test_prompt_with_exact_title_mock(self, workspace):
        write_title_mock(workspace)
        cfg = workspace / "run.cfg"
        cfg.write_text(BASE_CFG + "mock_responses = mock.json\nstrategy = fs\n")
        reports = []
        for threads in ("1", "4"):  # the pool keeps example order, so the report is the same bytes
            out = workspace / f"prompt-{threads}"
            assert main(["prompt", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
            reports.append((out / "prompt_report_fs.json").read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["strategy"] == "fs"
        assert report["K"]["5"]["recall"] == 1.0
        assert report["K"]["5"]["mrr"] == 1.0

    def test_prompt_candidates_rerank_with_their_recall(self, workspace):
        """LLM retrieval, then a trained ranker: `rerank` over the lists that
        `prompt --dump-candidates` wrote keeps the prompt report's Recall."""
        write_title_mock(workspace, every=2)
        cfg = workspace / "run.cfg"
        cfg.write_text(BASE_CFG + "mock_responses = mock.json\nmock_default = thing number 3\nstrategy = fs\n")
        candidates = workspace / "prompt" / "candidates.jsonl"
        assert main(["prompt", "--config", str(cfg), "--out", str(workspace / "prompt"),
                     "--dump-candidates", str(candidates)]) == 0
        assert main(["train", "--config", str(cfg), "--variant", "base", "--out", str(workspace / "ranker")]) == 0
        assert run_rerank(workspace, candidates) == 0
        prompt_report = json.loads((workspace / "prompt" / "prompt_report_fs.json").read_text())
        rerank_report = json.loads((workspace / "rerank" / "rerank_report.json").read_text())
        for k in ("5", "10"):
            assert 0 < rerank_report["K"][k]["recall"] == prompt_report["K"][k]["recall"] < 1
            assert rerank_report["K"][k]["mrr_before"] == prompt_report["K"][k]["mrr"]

    def test_prompt_without_client_is_exit_2(self, workspace):
        assert main(["prompt", "--config", str(workspace / "run.cfg")]) == 2

    @pytest.mark.parametrize("server", [partial(serving, b"[1, 2]"), partial(raw_serving, b"not an HTTP reply\r\n\r\n")],
                             ids=["without-text", "not-http"])
    def test_failed_reply_is_exit_1(self, workspace, capsys, server):
        with server() as (url, _):
            cfg = workspace / "http.cfg"
            cfg.write_text(BASE_CFG + f"endpoint_url = {url}\nmax_retries = 1\nstrategy = zcot\n")
            capsys.readouterr()
            assert main(["prompt", "--config", str(cfg), "--out", str(workspace / "p")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: generation failed after 1 attempts") and err.count("\n") == 1


class TestExitCodes:
    def test_missing_config_is_exit_2(self):
        assert main(["train", "--config", "/nonexistent/run.cfg"]) == 2

    def test_bad_config_value_is_exit_2_naming_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = base\nd1 = lots  # not a number\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and "d1" in err
        assert "Traceback" not in err

    def test_bad_flag_value_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = base\n")
        assert main(["eval", "--config", str(cfg), "--k", "20,lots"]) == 2
        assert "command line: bad value for ks" in capsys.readouterr().err

    def test_unknown_strategy_flag_is_exit_2_naming_the_command_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = base\n")
        assert main(["prompt", "--config", str(cfg), "--strategy", "foo"]) == 2
        assert capsys.readouterr().err == "error: command line: strategy must be one of ('fs', 'zcot', 'fscot'), got 'foo'\n"

    def test_unknown_variant_flag_is_exit_2_naming_the_command_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = base\n")
        assert main(["train", "--config", str(cfg), "--variant", "fancy"]) == 2
        assert capsys.readouterr().err == "error: command line: variant must be one of ('base', 'sem-i', 'sem-f'), got 'fancy'\n"

    def test_threads_is_a_prompt_flag_only(self):
        """Each command takes only the flags it reads: `--threads` is prompt's,
        `--variant` train's, and `--k` is read by eval, rerank and prompt."""
        pairs = [("train", "--threads"), ("ingest", "--variant"), ("eval", "--variant"), ("rerank", "--variant"),
                 ("prompt", "--variant"), ("ingest", "--k"), ("train", "--k")]
        for command, flag in pairs:
            with pytest.raises(SystemExit) as info:
                main([command, "--config", "x", flag, "2"])
            assert info.value.code == 2, (command, flag)

    def test_unknown_command_is_argparse_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "--config", "x"])
        assert info.value.code == 2

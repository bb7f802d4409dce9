import json
from pathlib import Path

import numpy as np
import pytest

import semsr.dataset as ds
from semsr.cli import main
from semsr.config import RunConfig, load_config
from semsr.errors import DataError
from semsr.llm import build_fewshot_strategy, build_prompt, load_templates, prompt_hash


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = RunConfig()
        assert (cfg.d1, cfg.d2, cfg.d) == (100, 1024, 100)
        assert cfg.batch_size == 100 and cfg.lr == 0.001
        assert cfg.scale == 16.0 and cfg.beta1 == 0.9
        assert cfg.ks == (20, 100)
        assert cfg.min_item_freq == 5 and cfg.min_session_len == 2
        assert cfg.ratios == (0.8, 0.1, 0.1)
        assert cfg.backbone == "attn-niser"

    def test_file_values_and_overrides(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\nvariant = sem-f\nd1 = 8\nks = 5,10\nseed = 3\n")
        cfg = load_config(f, overrides={"seed": 9})
        assert cfg.variant == "sem-f" and cfg.d1 == 8
        assert cfg.ks == (5, 10)
        assert cfg.seed == 9  # flag wins

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("learning_rate = 0.1\n")
        with pytest.raises(DataError, match="unknown config key"):
            load_config(f)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("data_dir = data\n")
        cfg = load_config(f)
        assert cfg.data_dir == str(tmp_path / "data")

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n# run.cfg\n", 1)[1].split("```", 1)[0]
        f = tmp_path / "run.cfg"
        f.write_text("# run.cfg\n" + block)
        cfg = load_config(f)
        assert cfg.data_dir == str(tmp_path / "data")
        assert cfg.d2 == 1024 and cfg.out_dir == str(tmp_path / "runs" / "base")
        assert cfg.ks == (20, 100) and cfg.min_item_freq == 2

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("mock_default = item#7  # trailing comment\n")
        assert load_config(f).mock_default == "item#7"

    def test_bad_variant_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("variant = fancy\n")
        with pytest.raises(DataError, match="variant"):
            load_config(f)


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
        sessions = []
        for name in ("train", "val", "test"):
            sessions += ds.load_sessions(workspace / "data" / f"{name}.jsonl")
        # counting oracle over the written splits
        assert manifest["avg_session_len"] == pytest.approx(
            sum(len(s.items) for s in sessions) / len(sessions)
        )
        train = ds.load_sessions(workspace / "data" / "train.jsonl", split="train")
        assert manifest["n_train_examples"] == sum(len(s.items) - 1 for s in train)
        n_catalog_lines = len((workspace / "data" / "catalog.json").read_text().splitlines())
        assert manifest["n_items"] == n_catalog_lines
        assert manifest["seed"] == 7

    def test_idempotent_given_same_inputs(self, workspace):
        files = sorted((workspace / "data").glob("*"))
        before = {f.name: f.read_bytes() for f in files}
        assert main(["ingest", "--config", str(workspace / "run.cfg")]) == 0
        after = {f.name: f.read_bytes() for f in sorted((workspace / "data").glob("*"))}
        assert before == after

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

    def test_divergence_is_exit_1_with_checkpoint_retained(self, workspace, capsys):
        cfg = workspace / "diverge.cfg"
        cfg.write_text(BASE_CFG + "lr = 1e200\nvariant = sem-f\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg), "--out", str(workspace / "div")])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        assert (workspace / "div" / "checkpoint" / "manifest.json").exists()


class TestRerankCommand:
    def test_rerank_preserves_recall(self, workspace):
        cfg = str(workspace / "run.cfg")
        assert main(["train", "--config", cfg, "--variant", "base", "--out", str(workspace / "ranker")]) == 0
        assert main(["train", "--config", cfg, "--variant", "sem-i", "--out", str(workspace / "cand")]) == 0
        assert main([
            "eval", "--config", cfg, "--checkpoint", str(workspace / "cand" / "checkpoint"),
            "--out", str(workspace / "cand-eval"),
            "--dump-candidates", str(workspace / "cand-eval" / "candidates.jsonl"),
        ]) == 0
        assert main([
            "rerank", "--config", cfg,
            "--candidates", str(workspace / "cand-eval" / "candidates.jsonl"),
            "--ranker-checkpoint", str(workspace / "ranker" / "checkpoint"),
            "--out", str(workspace / "rerank"),
        ]) == 0
        rerank_report = json.loads((workspace / "rerank" / "rerank_report.json").read_text())
        eval_report = json.loads((workspace / "cand-eval" / "report.json").read_text())
        for k in ("5", "10"):
            assert rerank_report["K"][k]["recall"] == pytest.approx(eval_report["K"][k]["recall"])


class TestPromptCommand:
    def test_prompt_with_exact_title_mock(self, workspace):
        data = workspace / "data"
        catalog = ds.load_catalog(data / "catalog.json")
        train = ds.load_sessions(data / "train.jsonl", split="train")
        test = ds.load_sessions(data / "test.jsonl", split="test")
        examples = ds.expand_incremental(test)
        strategy = build_fewshot_strategy("fs", train, catalog, n_shots=3, seed=7)
        templates = load_templates()
        mapping = {}
        for ex in examples:
            titles = [catalog.title(i) for i in ex.prefix]
            system, user = build_prompt(strategy, titles, step=1, templates=templates)
            mapping[prompt_hash(system, user)] = catalog.title(ex.target)
        (workspace / "mock.json").write_text(json.dumps(mapping))
        cfg = workspace / "run.cfg"
        cfg.write_text(BASE_CFG + "mock_responses = mock.json\nstrategy = fs\n")
        assert main(["prompt", "--config", str(cfg), "--out", str(workspace / "prompt")]) == 0
        report = json.loads((workspace / "prompt" / "prompt_report_fs.json").read_text())
        assert report["strategy"] == "fs"
        assert report["K"]["5"]["recall"] == 1.0
        assert report["K"]["5"]["mrr"] == 1.0

    def test_prompt_without_client_is_exit_2(self, workspace):
        assert main(["prompt", "--config", str(workspace / "run.cfg")]) == 2


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
        assert main(["train", "--config", str(cfg), "--k", "20,lots"]) == 2
        assert "command line: bad value for ks" in capsys.readouterr().err

    def test_threads_is_a_prompt_flag_only(self):
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", "x", "--threads", "2"])
        assert info.value.code == 2

    def test_unknown_command_is_argparse_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "--config", "x"])
        assert info.value.code == 2

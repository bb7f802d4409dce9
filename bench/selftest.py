"""Self-test of the benchmark: the generator is deterministic and agrees
with semsr's filtering, and BENCHMARK.json is valid and matches the
metrics the harness prints.

    python3 bench/selftest.py
"""

import json
import re
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TINY = gen.Shape(items=300, sessions=400, max_len=6, d2=8, clusters=5)


def check_generator(work: Path) -> None:
    from semsr import dataset as ds
    from semsr.embeddings import load_semantic_table

    files = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate(TINY, seed, work / tag)
        files[tag] = {name: (work / tag / name).read_bytes() for name in ("sessions.jsonl", "items.jsonl", "semantic.semb")}
    assert files["a"] == files["b"], "same seed gave different files"
    assert files["a"]["sessions.jsonl"] != files["c"]["sessions.jsonl"], "different seeds gave the same sessions"

    info = gen.generate(TINY, 7, work / "a")
    sessions = ds.ingest_sessions(work / "a" / "sessions.jsonl")
    metadata = ds.load_metadata(work / "a" / "items.jsonl")
    catalog, _ = ds.preprocess(sessions, metadata, min_item_freq=gen.MIN_ITEM_FREQ, min_session_len=gen.MIN_SESSION_LEN)
    assert catalog.n == info["n"], f"generator kept {info['n']} items, semsr keeps {catalog.n}"
    table = load_semantic_table(work / "a" / "semantic.semb", catalog)
    assert table.matrix.shape == (catalog.n, TINY.d2)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p for p in spec["paths"])
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    names = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.add(w["name"])
    assert names == set(run.WORKLOADS), "BENCHMARK.json workloads differ from bench/run.py"

    seen = set()
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            keys = {"name", "unit", "better", "bound"} if group == "end_to_end" else {"name", "unit", "better"}
            assert set(m) == keys, m
            assert NAME.match(m["name"]) and m["name"] not in seen, m["name"]
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
            seen.add(m["name"])
    for w in spec["workloads"]:
        assert NAME.match(w["name"]) and w["name"] not in seen
        seen.add(w["name"])

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END, "end-to-end metrics differ from bench/run.py"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER, "per-layer metrics differ"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    setup = e2e["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["bound"] <= setup["bound"] for m in e2e.values()), "setup_s must have the largest bound"


def check_summary() -> None:
    s = run.summarize(range(100))
    assert s["n"] == 100 and s["median"] == 49.5 and s["p"] == 90.0
    assert run.summarize(range(30))["p"] is None


def main() -> int:
    work = BENCH_DIR / "work" / "selftest"
    try:
        check_generator(work)
        check_benchmark_json()
        check_summary()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

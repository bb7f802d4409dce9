"""semsr benchmark: one seeded workload per run, a closed loop with one client.

    python3 bench/run.py --workload fusion-train --seed 1 --seconds 20 --trace 0

A run generates its inputs from the seed (bench/gen.py) and hands semsr
only those files. It sets the system up from them several times, then
walks the README's path -- fit, eval, rerank, prompt -- calling the same
public functions as `semsr ingest/train/eval/rerank/prompt`, each stage
for a fixed share of --seconds, and checks the outputs as it goes.

The last line of stdout is the result JSON. With --trace 0 its metrics
are the end-to-end ones; with --trace 1 the run repeats its untraced work
with spans on and reports per-layer metrics plus the tracing overhead.
Lines before it give the run metadata and, per timing, the median, the
highest percentile with at least ten samples beyond it, and the count.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

D1 = D = 100
BATCH = 100
KS = (20, 100)
VAL_EXAMPLES = 100
EVAL_EXAMPLES = 200  # fixed test subset ranked per eval sample and cycled by request loops
CHECK_EXAMPLES = 5  # per model: rank_examples must agree with score_all + top_k
SETUP_REPS = 3  # at least; set-up repeats until SETUP_SECONDS have passed
SETUP_SECONDS = 5.0
MIN_RERANK_REQUESTS = 100  # per run, so the timings line has a p90 with ten samples beyond it
MOCK_REPLY = "compact lamp c7 no.1234"
# Work per round of a traced run, fixed so that per-layer times compare across commits.
TRACE_COUNTS = {"fit": 1, "eval_base": 1, "eval_semf": 1, "rerank": 25, "rerank_semf": 2, "prompt": 10}
STAGES = ("fit", "eval_base", "eval_semf", "rerank", "rerank_semf", "prompt")


@dataclass(frozen=True)
class Workload:
    shape: str  # a bench/gen.py shape
    id_variant: str  # the ID-only model: base, or sem-i (same scoring as base)
    fit_role: str  # the model `fit` trains: "id", or "fused" (sem-f)
    train_examples: int  # size of the fixed training set of one fit
    rounds: int  # passes over the stages; each fit is one sample, so slow fits need more
    shares: tuple  # share of --seconds per stage, in STAGES order


# Why each workload: fusion-train stresses the width-1024 semantic attention
# forward/backward and its per-example gradients; catalog-train stresses the
# dense n=20k scoring side of loss_and_grad, Adam over the 20k-row table, the
# PCA set-up, and read-only ranking at catalog size. Every workload walks every
# stage, because each result must carry every end-to-end metric.
WORKLOADS = {
    "fusion-train": Workload("fusion", "base", "fused", 100, 8, (0.6, 0.06, 0.1, 0.08, 0.08, 0.08)),
    "catalog-train": Workload("catalog", "sem-i", "id", 500, 4, (0.4, 0.12, 0.18, 0.12, 0.1, 0.08)),
}

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "ex/s",
    "train_loss": "nats",
    "eval_base_examples_per_s": "ex/s",
    "eval_semf_examples_per_s": "ex/s",
    "rerank_examples_per_s": "ex/s",
    "rerank_p50_ms": "ms",
    "rerank_semf_examples_per_s": "ex/s",
    "prompt_examples_per_s": "ex/s",
    "peak_rss_mb": "MB",
}


def _pin_blas_threads() -> None:
    # One BLAS thread: on a small shared machine a second BLAS thread that
    # loses its core stalls the first, which makes timings swing by 2x.
    # BLAS pools size themselves at import, so this runs before numpy loads.
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def summarize(samples) -> dict:
    """Median, the highest of p99.9/p99/p95/p90/p75 with at least ten
    samples beyond it (None when there are fewer than 40), and the count."""
    import numpy as np

    arr = np.asarray(samples, dtype=np.float64)
    out = {"n": int(arr.size), "median": float(np.median(arr)) if arr.size else math.nan, "p": None, "p_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if arr.size * (100 - p) / 100 >= 10:
            out["p"], out["p_value"] = p, float(np.percentile(arr, p))
            break
    return out


def spread_by_length(examples, count: int, rng) -> list:
    """`count` examples at evenly spaced ranks of prefix length (random
    among equal lengths), in an order whose every run of consecutive
    examples spans the length range. Encoder work grows with prefix
    length, so this keeps the work of a call, and of a request loop that
    stops early, nearly the same from seed to seed."""
    import numpy as np

    order = sorted(rng.permutation(len(examples)), key=lambda i: len(examples[i].prefix))
    picks = np.linspace(0, len(order) - 1, min(count, len(order))).round().astype(int)
    m = len(picks)
    stride = max(1, round(0.382 * m))
    while math.gcd(stride, m) != 1:
        stride += 1
    return [examples[order[picks[j * stride % m]]] for j in range(m)]


class Budget:
    """Loop indices of a closed loop: exactly `count`, or as many as fit in
    `seconds` (at least `min_count`). `done` counts the iterations run."""

    def __init__(self, seconds: float, min_count: int = 1, count: int | None = None):
        self.seconds, self.min_count, self.count = seconds, min_count, count
        self.done = 0

    def __iter__(self):
        start = time.perf_counter()
        while (
            self.done < self.count
            if self.count is not None
            else self.done < self.min_count or time.perf_counter() - start < self.seconds
        ):
            yield self.done
            self.done += 1


class Run:
    """State of one benchmark run: generated files, the ready system, samples and counts."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.files = work / "data"
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.quality: dict[str, float] = {}

    # -- bookkeeping -------------------------------------------------------

    def record(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, what: str, ops: int) -> None:
        self.failed += ops
        print(f"failed ({ops} operations): {what}", file=sys.stderr)

    def request(self, rid):
        if self.tracer is not None:
            self.tracer.request = rid

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Files to a ready system, as ingest/train/eval/prompt load it."""
        from semsr import dataset as ds
        from semsr import embeddings, llm, model

        import numpy as np

        t0 = time.perf_counter()
        sessions = ds.ingest_sessions(self.files / "sessions.jsonl")
        metadata = ds.load_metadata(self.files / "items.jsonl")
        catalog, processed = ds.preprocess(sessions, metadata, min_item_freq=2, min_session_len=2)
        train_s, val_s, test_s = ds.split_by_user(processed, seed=self.seed)
        train_ex = ds.expand_incremental(train_s)
        val_ex = ds.expand_incremental(val_s)
        test_ex = ds.expand_incremental(test_s)
        semantic = embeddings.load_semantic_table(self.files / "semantic.semb", catalog)
        models = {}
        for role, variant in (("id", self.wl.id_variant), ("fused", "sem-f")):
            params = model.init_model(
                variant, catalog.n, D1, semantic.d2, D, self.seed,
                semantic=semantic if variant != "base" else None,
            )
            model.save_checkpoint(self.work / f"checkpoint-{role}", params)
            models[role] = model.load_checkpoint(self.work / f"checkpoint-{role}")
        index = llm.build_title_index(catalog, semantic.d2)
        strategy = llm.build_fewshot_strategy("fs", train_s, catalog, 3, self.seed)
        templates = llm.load_templates()
        elapsed = time.perf_counter() - t0

        rng = np.random.default_rng(self.seed)
        if min(len(train_ex), len(val_ex), len(test_ex)) == 0:
            raise RuntimeError("generated data left a split empty")
        self.catalog = catalog
        self.semantic = semantic
        self.loaded = models
        self.models = dict(models)
        self.checked: set[str] = set()
        self.candidates: dict = {}
        self.generate_calls = 0
        self.index = index
        self.strategy = strategy
        self.templates = templates
        self.train_sub = spread_by_length(train_ex, self.wl.train_examples, rng)
        self.val_sub = spread_by_length(val_ex, VAL_EXAMPLES, rng)
        self.eval_sub = spread_by_length(test_ex, EVAL_EXAMPLES, rng)
        self.k = min(max(KS), catalog.n)
        self.ks = tuple(min(k, catalog.n) for k in KS)
        return elapsed

    def semantic_for(self, params):
        return self.semantic if params.variant == "sem-f" else None

    # -- stages --------------------------------------------------------------

    def stage_fit(self, loop) -> None:
        from semsr import train
        from semsr.embeddings import fingerprint_matrix

        role = self.wl.fit_role
        start = self.loaded[role]
        semantic = self.semantic_for(start)
        batches = math.ceil(len(self.train_sub) / BATCH)
        trained = None
        for i in loop:
            self.request(f"fit:{i}")
            self.attempted += batches
            params = start.copy()
            try:
                t0 = time.perf_counter()
                best, history = train.fit(
                    self.train_sub, self.val_sub, params, semantic,
                    epochs=1, batch_size=BATCH, seed=self.seed, val_k=self.k,
                )
                elapsed = time.perf_counter() - t0
            except Exception:
                self.fail(f"fit raised: {traceback.format_exc(limit=3)}", batches)
                continue
            loss = history[0]["train_loss"]
            if not math.isfinite(loss):
                self.fail(f"non-finite training loss {loss}", batches)
            elif semantic is not None and fingerprint_matrix(semantic.matrix) != semantic.fingerprint:
                self.fail("semantic table changed during fit", batches)
            elif "train_loss" in self.quality and loss != self.quality["train_loss"]:
                self.fail(f"fit is not deterministic: loss {loss} != {self.quality['train_loss']}", batches)
            else:
                self.quality["train_loss"] = loss
                self.record("train_examples_per_s", len(self.train_sub) / elapsed)
                trained = best
        if trained is not None:
            self.models[role] = trained

    def stage_eval(self, role: str, metric: str, loop) -> None:
        from semsr import metrics, model

        params = self.models[role]
        targets = [ex.target for ex in self.eval_sub]
        for i in loop:
            self.request(f"{metric}:{i}")
            self.attempted += len(self.eval_sub)
            try:
                t0 = time.perf_counter()
                ranked = model.rank_examples(params, self.semantic_for(params), self.eval_sub, self.k)
                elapsed = time.perf_counter() - t0
                result = metrics.evaluate(ranked, targets, self.ks)
            except Exception:
                self.fail(f"eval raised: {traceback.format_exc(limit=3)}", len(self.eval_sub))
                continue
            bad = self._check_ranked(ranked, targets, result)
            if role not in self.checked:
                self.checked.add(role)
                bad |= self._check_against_score_all(params, ranked)
            if bad:
                self.fail(f"{metric}: {len(bad)} examples failed checks", len(bad))
                continue
            self.record(metric, len(self.eval_sub) / elapsed)
            self.candidates[role] = ranked
            self.quality[f"{role}_recall20"] = result.per_k[self.ks[0]]["recall"]
            self.quality[f"{role}_mrr20"] = result.per_k[self.ks[0]]["mrr"]

    def _check_ranked(self, ranked, targets, result) -> set:
        """Recall@20 and MRR@20 recomputed by brute force from the lists."""
        k = self.ks[0]
        hits, rr = 0, 0.0
        for rl, target in zip(ranked, targets):
            items = [int(x) for x in rl.items]
            if len(items) != self.k or len(set(items)) != self.k:
                return set(range(len(ranked)))
            if target in items[:k]:
                hits += 1
                rr += 1.0 / (items.index(target) + 1)
        got = result.per_k[k]
        if abs(got["recall"] - hits / len(ranked)) > 1e-12 or abs(got["mrr"] - rr / len(ranked)) > 1e-12:
            return set(range(len(ranked)))
        return set()

    def _check_against_score_all(self, params, ranked) -> set:
        """On a fixed sample, rank_examples agrees with score_all + top_k."""
        from semsr import model

        bad = set()
        for j, ex in enumerate(self.eval_sub[:CHECK_EXAMPLES]):
            probs = model.score_all(ex.prefix, params, self.semantic_for(params))
            if not (model.top_k(probs, self.k).items == ranked[j].items).all():
                bad.add(j)
        return bad

    def stage_rerank(self, ranker_role: str, candidate_role: str, metric: str, loop) -> None:
        """Per request: score_all with the ranker, then rerank the other
        model's candidates at every K, as cmd_rerank does."""
        from semsr import metrics, model, retrieval

        ranker = self.models[ranker_role]
        semantic = self.semantic_for(ranker)
        candidates = self.candidates.get(candidate_role)
        m = len(self.eval_sub)
        served, t_loop = 0, time.perf_counter()
        for i in loop:
            self.request(f"{metric}:{i}")
            self.attempted += 1
            if candidates is None:
                self.fail(f"{metric}: no {candidate_role} candidates, its eval failed", 1)
                continue
            ex, cand = self.eval_sub[i % m], candidates[i % m]
            try:
                t0 = time.perf_counter()
                scores = model.score_all(ex.prefix, ranker, semantic)
                reranked = {k: retrieval.rerank(cand, scores, k) for k in self.ks}
                elapsed = time.perf_counter() - t0
            except Exception:
                self.fail(f"rerank raised: {traceback.format_exc(limit=3)}", 1)
                continue
            if any(
                metrics.recall_at_k(reranked[k], ex.target, k) != metrics.recall_at_k(cand, ex.target, k)
                for k in self.ks
            ):
                self.fail(f"{metric}: re-ranking changed recall", 1)
                continue
            self.record(f"{metric}_s", elapsed)
            served += 1
        if served:
            self.record(f"{metric}_examples_per_s", served / (time.perf_counter() - t_loop))

    def stage_prompt(self, loop) -> None:
        from semsr import llm, retrieval
        from semsr.embeddings import encode_text

        client = llm.MockClient({}, default=MOCK_REPLY)
        expected = retrieval.query(self.index, encode_text(MOCK_REPLY, self.index.width), self.k).items
        m = len(self.eval_sub)
        served, t_loop = 0, time.perf_counter()
        for i in loop:
            self.request(f"prompt:{i}")
            self.attempted += 1
            ex = self.eval_sub[i % m]
            try:
                t0 = time.perf_counter()
                rl = llm.recommend_via_llm(
                    ex.prefix, self.catalog, client, self.strategy, self.index, self.k, templates=self.templates
                )
                elapsed = time.perf_counter() - t0
            except Exception:
                self.fail(f"prompt raised: {traceback.format_exc(limit=3)}", 1)
                continue
            if len(rl) != self.k or not (rl.items == expected).all():
                self.fail("prompt: resolved list differs from the title query", 1)
                continue
            self.record("prompt_s", elapsed)
            served += 1
        if served:
            self.record("prompt_examples_per_s", served / (time.perf_counter() - t_loop))
        self.generate_calls += client.calls

    def run_stages(self, counts: list | None = None) -> tuple[list, dict]:
        """Rounds of every stage in pipeline order, each stage taking its
        share of --seconds / rounds, so that every metric samples the
        whole run rather than one stretch of it. With `counts` (from an
        earlier call) each loop repeats that call's iterations instead.
        Returns (iterations, wall seconds), each per round and stage."""
        calls = {
            "fit": lambda loop: self.stage_fit(loop),
            "eval_base": lambda loop: self.stage_eval("id", "eval_base_examples_per_s", loop),
            "eval_semf": lambda loop: self.stage_eval("fused", "eval_semf_examples_per_s", loop),
            "rerank": lambda loop: self.stage_rerank("id", "fused", "rerank", loop),
            "rerank_semf": lambda loop: self.stage_rerank("fused", "id", "rerank_semf", loop),
            "prompt": lambda loop: self.stage_prompt(loop),
        }
        rounds = self.wl.rounds
        done, wall = [], []
        for r in range(rounds):
            done.append({})
            wall.append({})
            for stage, share in zip(STAGES, self.wl.shares):
                min_count = math.ceil(MIN_RERANK_REQUESTS / rounds) if stage == "rerank" else 1
                loop = Budget(share * self.seconds / rounds, min_count, None if counts is None else counts[r][stage])
                t0 = time.perf_counter()
                calls[stage](loop)
                wall[r][stage] = time.perf_counter() - t0
                done[r][stage] = loop.done
        return done, wall

    # -- results -------------------------------------------------------------

    def end_to_end(self, setup_times) -> tuple[dict, dict]:
        """(metric values, per-timing summaries)."""
        stats = {"setup_s": summarize(setup_times)}
        for name in self.samples:
            stats[name] = summarize(self.samples[name])
        values = {name: stats[name]["median"] if name in stats else math.nan for name in END_TO_END}
        values["train_loss"] = self.quality.get("train_loss", math.nan)
        values["rerank_p50_ms"] = 1e3 * stats["rerank_s"]["median"] if "rerank_s" in stats else math.nan
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return values, stats


def _blas_threads():
    """Effective OpenBLAS thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_metadata(args, data_info: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "git_commit": _git_commit(),
        "data": data_info,
        "closed_loop_clients": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="semsr benchmark (one workload per run)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semsr" / "__init__.py").is_file():
        print(f"error: semsr sources not found under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import gen

    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        data_info = gen.generate(gen.SHAPES[run.wl.shape], args.seed, run.files)
        meta = run_metadata(args, data_info)
        print("run: " + json.dumps(meta, sort_keys=True))

        setup_times = [run.setup() for _ in Budget(SETUP_SECONDS, SETUP_REPS)]
        counts, wall = run.run_stages([dict(TRACE_COUNTS)] * run.wl.rounds if args.trace else None)
        values, stats = run.end_to_end(setup_times)
        print("stages: " + json.dumps({"count": counts, "wall_s": wall, "setup_reps": len(setup_times)}, sort_keys=True))
        print("timings: " + json.dumps(stats, sort_keys=True))
        print("quality: " + json.dumps(run.quality, sort_keys=True))

        if args.trace:
            from tracing import PER_LAYER, Tracer, instrument, layer_metrics

            # The traced pass repeats the fixed work just timed without spans.
            # Overhead compares rounds after the first: the first round of a
            # process also pays page faults for the large gradient buffers.
            untraced = sum(sum(row.values()) for row in wall[1:]) + stats["setup_s"]["median"]
            tracer = Tracer()
            run.tracer = tracer
            requests = {loop: sum(row[loop] for row in counts) for loop in ("rerank", "rerank_semf")}
            with instrument(tracer):
                run.request("setup")
                traced_setup = run.setup()
                _, wall_traced = run.run_stages(counts)
            traced = sum(sum(row.values()) for row in wall_traced[1:]) + traced_setup
            metrics_out = layer_metrics(tracer, requests, run.generate_calls)
            metrics_out["trace.overhead_s"] = traced - untraced
            metrics_out["trace.overhead_frac"] = (traced - untraced) / untraced
            tracer.write(BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.jsonl")
            print(
                "trace: "
                + json.dumps({"spans": len(tracer.spans), "untraced_s": untraced, "traced_s": traced}, sort_keys=True)
            )
            units = PER_LAYER
        else:
            metrics_out = values
            units = END_TO_END

        print(f"failed_frac: {run.failed / max(run.attempted, 1):.6f} ({run.failed}/{run.attempted})")
        for name, value in metrics_out.items():
            print(f"  {name:<38} {value:>14.6g} {units[name]}")
        finite = all(math.isfinite(v) for v in metrics_out.values())
        result = {
            "correct": run.failed == 0 and finite,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics_out.items()},
        }
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

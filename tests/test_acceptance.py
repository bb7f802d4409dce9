"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines on stdout as well)."""

import functools
import json
import math
import time

import numpy as np

import semsr.dataset as ds
from helpers import clustered_semantic, make_catalog, make_semantic
from oracles import numeric_grad, rel_err, rr_at_k, scalar_score_all
from semsr.cli import main
from semsr.dataset import Example
from semsr.embeddings import fingerprint_matrix
from semsr.encoder import attention_forward, get_backbone, init_attention_tensors
from semsr.llm import build_fewshot_strategy, build_prompt, load_templates, prompt_hash
from semsr.metrics import evaluate, recall_at_k
from semsr.model import init_model, rank_examples, save_checkpoint, score_all
from semsr.retrieval import RankedList, build_index, rerank
from semsr.train import fit, loss_and_grad


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            print(f"criterion {number} ({name}): PASS{' — ' + detail if detail else ''}")

        return wrapper

    return decorate


def _random_config(rng):
    return {
        "n": int(rng.integers(7, 51)),
        "d1": int(rng.integers(3, 9)),
        "d2": int(rng.integers(4, 13)),
        "d": int(rng.integers(3, 9)),
    }


def _model_at_generic_point(variant, cfg, seed):
    semantic = make_semantic(make_catalog(cfg["n"], tag=f"a{seed}"), cfg["d2"])
    params = init_model(
        variant, cfg["n"], cfg["d1"], cfg["d2"], cfg["d"], seed=seed,
        semantic=semantic if variant != "base" else None,
    )
    params.tensors["item_table"] = np.random.default_rng(seed + 999).standard_normal((cfg["n"], cfg["d1"]))
    return params, semantic


@criterion(1, "gradient correctness")
def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for variant, reps in (("base", 3), ("sem-f", 2)):
        for rep in range(reps):
            cfg = _random_config(rng)
            params, semantic = _model_at_generic_point(variant, cfg, seed=rep)
            sem = semantic if variant == "sem-f" else None
            # batch of four examples, the first with an L = 1 prefix
            batch = [
                Example(prefix=[int(x) for x in rng.integers(0, cfg["n"], size=L)], target=int(rng.integers(0, cfg["n"])))
                for L in (1, 2, 3, 5)
            ]
            _, grads = loss_and_grad(batch, params, sem)

            def loss():
                return loss_and_grad(batch, params, sem)[0].mean_loss

            for name, tensor in params.tensors.items():
                fd = numeric_grad(loss, tensor, h=1e-4)
                analytic = grads[name].reshape(-1)
                for a, f in zip(analytic, fd):
                    err = rel_err(a, f)
                    worst = max(worst, err)
                    assert err < 1e-4, f"{variant}/{name}: rel err {err:.2e}"
                checked += tensor.size
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    return f"{checked} entries, worst rel err {worst:.2e}, {elapsed:.1f}s"


@criterion(2, "forward oracle equivalence")
def test_criterion_2_forward_oracle():
    worst = 0.0
    for variant in ("base", "sem-f"):
        params, semantic = _model_at_generic_point(variant, {"n": 5, "d1": 2, "d2": 2, "d": 2}, seed=0)
        # hand-set every tensor to fixed patterned values
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            salt = sum(ord(ch) for ch in name)
            flat[:] = [((salt + 3 * i) % 11 - 5) / 10 for i in range(flat.size)]
        semantic.matrix[:] = np.array([[(i + 2 * j) % 5 - 2 for j in range(2)] for i in range(5)]) / 3.0
        for prefix in ([0], [3, 1], [2, 0, 4], [1, 1, 2, 4]):
            got = score_all(prefix, params, semantic if variant == "sem-f" else None)
            expected = scalar_score_all(prefix, params, semantic.matrix)
            worst = max(worst, float(np.max(np.abs(got - np.array(expected)))))
            assert worst < 1e-10
    return f"max |diff| {worst:.2e}"


@criterion(3, "normalization suite")
def test_criterion_3_normalization():
    rng = np.random.default_rng(7)
    # attention weights over 1000 random instances
    for _ in range(1000):
        w = int(rng.integers(2, 10))
        L = int(rng.integers(2, 12))
        p = init_attention_tensors(w, rng)
        _, alphas, _ = attention_forward(np.arange(L), rng.standard_normal((L, w)), p, [L])
        assert abs(alphas.sum() - 1.0) < 1e-6
    # score vectors and backbone outputs over 1000 instances (500 per variant)
    for variant in ("base", "sem-f"):
        cfg = {"n": 30, "d1": 5, "d2": 8, "d": 6}
        params, semantic = _model_at_generic_point(variant, cfg, seed=1)
        sem = semantic if variant == "sem-f" else None
        backbone = get_backbone(params.backbone)
        theta = params.scoped("bb.")
        for _ in range(500):
            prefix = [int(x) for x in rng.integers(0, 30, size=rng.integers(1, 8))]
            probs = score_all(prefix, params, sem)
            assert abs(probs.sum() - 1.0) < 1e-6
            s_m, _ = backbone.forward(params.tensors["item_table"][prefix], theta, [len(prefix)])
            assert abs(np.linalg.norm(s_m[0]) - 1.0) < 1e-6
    # index rows: 1000 random rows at random scales
    index = build_index(rng.standard_normal((1000, 24)) * rng.uniform(0.05, 20.0, (1000, 1)))
    assert np.all(np.abs(np.linalg.norm(index.matrix, axis=1) - 1.0) < 1e-6)
    return "1000 instances per check"


@criterion(4, "re-ranking contract")
def test_criterion_4_reranking():
    rng = np.random.default_rng(11)
    n, length = 300, 120
    ks = (20, 100)
    mrr_changes = {k: 0 for k in ks}
    for _ in range(500):
        items = rng.permutation(n)[:length]
        cand = RankedList(items=items, scores=np.sort(rng.random(length))[::-1])
        ranker = rng.random(n)
        target = int(rng.integers(0, n))
        for k in ks:
            out = rerank(cand, ranker, k)
            assert recall_at_k(out, target, k) == recall_at_k(cand, target, k)
            again = rerank(out, ranker, k)
            assert out.items.tolist() == again.items.tolist()
            if rr_at_k(out.items, target, k) != rr_at_k(cand.items, target, k):
                mrr_changes[k] += 1
    assert all(count > 0 for count in mrr_changes.values()), "ranker never changed any reciprocal rank"
    return f"500 lists; recall preserved at K=20,100; MRR changed for {mrr_changes[20]}/{mrr_changes[100]} lists"


@criterion(5, "metric oracle")
def test_criterion_5_metric_oracle():
    rng = np.random.default_rng(13)
    lists, targets = [], []
    for _ in range(200):
        lists.append(rng.permutation(400)[:150].tolist())
        targets.append(int(rng.integers(0, 400)))
    ks = (1, 5, 20, 100, 150)
    result = evaluate(lists, targets, ks=ks)

    def oracle_rank(items, target):
        for pos, item in enumerate(items):
            if item == target:
                return pos + 1
        return None

    for k in ks:
        recalls, rrs = [], []
        for l, t in zip(lists, targets):
            rank = oracle_rank(l[:k], t)
            recalls.append(1.0 if rank else 0.0)
            rrs.append(1.0 / rank if rank else 0.0)
        assert abs(result.per_k[k]["recall"] - math.fsum(recalls) / 200) < 1e-12
        assert abs(result.per_k[k]["mrr"] - math.fsum(rrs) / 200) < 1e-12
        assert result.per_k[k]["mrr"] <= result.per_k[k]["recall"]
    for a, b in zip(ks, ks[1:]):
        assert result.per_k[a]["recall"] <= result.per_k[b]["recall"]
        assert result.per_k[a]["mrr"] <= result.per_k[b]["mrr"]
    return "200 lists within 1e-12 of the brute-force mean"


def _within_cluster_examples(rng, clusters, n_clusters, count, train):
    by_cluster = [np.nonzero(clusters == c)[0] for c in range(n_clusters)]
    examples = []
    while len(examples) < count:
        c = int(rng.integers(0, n_clusters))
        length = int(rng.integers(3, 9))
        items = [int(x) for x in rng.choice(by_cluster[c], size=length, replace=True)]
        if train:
            examples.extend(Example(prefix=items[:k], target=items[k]) for k in range(1, length))
        else:
            examples.append(Example(prefix=items[:-1], target=items[-1]))
    return examples[:count]


@criterion(6, "directional fusion benefit")
def test_criterion_6_fusion_benefit():
    n_items, n_clusters, d2 = 200, 20, 64
    d1 = d = 48
    seed = 123
    semantic, clusters = clustered_semantic(n_items, n_clusters, d2, noise=0.35)
    rng = np.random.default_rng(seed)
    train_examples = _within_cluster_examples(rng, clusters, n_clusters, 2000, train=True)
    test_examples = _within_cluster_examples(rng, clusters, n_clusters, 500, train=False)

    # generator sanity: a nearest-centroid oracle must solve this data
    oracle_hits = 0
    for ex in test_examples:
        session_vec = semantic.matrix[ex.prefix].mean(axis=0)
        top = np.argsort(-(semantic.matrix @ session_vec), kind="stable")[:20]
        oracle_hits += int(ex.target in top)
    oracle_recall = oracle_hits / len(test_examples)
    assert oracle_recall >= 0.90, f"generator not separable enough: oracle R@20 {oracle_recall:.2f}"

    results = {}
    for variant in ("base", "sem-i", "sem-f"):
        started = time.monotonic()
        params = init_model(
            variant, n_items, d1, d2, d, seed=seed,
            semantic=semantic if variant != "base" else None,
        )
        best, _ = fit(
            train_examples, [], params, semantic if variant == "sem-f" else None,
            epochs=4, batch_size=100, lr=0.001, seed=seed,
        )
        assert time.monotonic() - started < 300, f"{variant} training exceeded 5 minutes"
        ranked = rank_examples(best, semantic if variant == "sem-f" else None, test_examples, 100)
        results[variant] = evaluate(ranked, [ex.target for ex in test_examples], ks=(20, 100))

    base20 = results["base"].per_k[20]["recall"]
    semf20 = results["sem-f"].per_k[20]["recall"]
    base100 = results["base"].per_k[100]["recall"]
    semi100 = results["sem-i"].per_k[100]["recall"]
    assert semf20 >= base20 + 0.05, f"sem-f R@20 {semf20:.3f} vs base {base20:.3f}"
    assert semi100 >= base100, f"sem-i R@100 {semi100:.3f} vs base {base100:.3f}"
    return (
        f"oracle R@20 {oracle_recall:.2f}; base R@20 {base20:.3f} -> sem-f {semf20:.3f}; "
        f"base R@100 {base100:.3f} -> sem-i {semi100:.3f}"
    )


@criterion(7, "freeze and determinism")
def test_criterion_7_freeze_and_determinism(tmp_path):
    n, d1, d2, d = 15, 4, 6, 4
    semantic = make_semantic(make_catalog(n), d2)
    fingerprint_before = semantic.fingerprint
    rng = np.random.default_rng(3)
    train_examples = [
        Example(prefix=[int(x) for x in rng.integers(0, n, size=rng.integers(1, 5))], target=int(rng.integers(0, n)))
        for _ in range(60)
    ]
    val_examples = train_examples[:10]
    reports = []
    for run in ("one", "two"):
        params = init_model("sem-f", n, d1, d2, d, seed=5, semantic=semantic)
        best, history = fit(
            train_examples, val_examples, params, semantic,
            epochs=3, batch_size=16, lr=0.002, seed=5,
        )
        save_checkpoint(tmp_path / run, best)
        ranked = rank_examples(best, semantic, val_examples, 10)
        reports.append((history, evaluate(ranked, [e.target for e in val_examples], ks=(5, 10)).to_json_dict()))
    assert fingerprint_matrix(semantic.matrix) == fingerprint_before, "semantic table mutated by training"
    blobs_one = sorted((tmp_path / "one").glob("*"))
    assert blobs_one, "checkpoint not written"
    for blob in blobs_one:
        assert blob.read_bytes() == (tmp_path / "two" / blob.name).read_bytes(), blob.name
    assert reports[0] == reports[1]
    return "fingerprint stable; checkpoints and reports bitwise identical"


_PROMPT_CFG = (
    "sessions_path = sessions.jsonl\nmetadata_path = items.jsonl\ndata_dir = data\n"
    "min_item_freq = 1\nmin_session_len = 2\nd2 = 32\nks = 1,5\nseed = 2\nshots = 2\n"
)


def _prompt_workspace(tmp_path):
    rng = np.random.default_rng(0)
    items = [{"id": f"p{j}", "title": f"product number {j}"} for j in range(20)]
    (tmp_path / "items.jsonl").write_text("".join(json.dumps(i) + "\n" for i in items))
    sessions = []
    for u in range(30):
        length = int(rng.integers(2, 6))
        seq = [f"p{int(x)}" for x in rng.integers(0, 20, size=length)]
        sessions.append({"session_id": f"s{u}", "user_id": f"u{u}", "items": seq})
    (tmp_path / "sessions.jsonl").write_text("".join(json.dumps(s) + "\n" for s in sessions))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_PROMPT_CFG)
    assert main(["ingest", "--config", str(cfg)]) == 0
    return cfg


def _exact_title_mock(tmp_path, kind, seed, shots):
    data = tmp_path / "data"
    catalog = ds.load_catalog(data / "catalog.json")
    train = ds.load_sessions(data / "train.jsonl", catalog.n, split="train")
    test = ds.load_sessions(data / "test.jsonl", catalog.n, split="test")
    strategy = build_fewshot_strategy(kind, train, catalog, n_shots=shots, seed=seed)
    templates = load_templates()
    mapping = {}
    for ex in ds.expand_incremental(test):
        titles = [catalog.title(i) for i in ex.prefix]
        system, user = build_prompt(strategy, titles, templates=templates)
        if strategy.steps == 1:
            mapping[prompt_hash(system, user)] = catalog.title(ex.target)
        else:
            rationale = f"the customer is browsing items like {titles[-1]}"
            mapping[prompt_hash(system, user)] = rationale
            system2, user2 = build_prompt(strategy, titles, rationale=rationale, templates=templates)
            mapping[prompt_hash(system2, user2)] = catalog.title(ex.target)
    path = tmp_path / f"mock_{kind}.json"
    path.write_text(json.dumps(mapping))
    return path


@criterion(8, "LLM baseline pipeline")
def test_criterion_8_llm_pipeline(tmp_path):
    _prompt_workspace(tmp_path)
    recalls = {}
    for kind in ("fs", "zcot", "fscot"):
        mock = _exact_title_mock(tmp_path, kind, seed=2, shots=2)
        cfg = tmp_path / f"run_{kind}.cfg"
        cfg.write_text(_PROMPT_CFG + f"mock_responses = {mock.name}\n")
        out = tmp_path / f"prompt-{kind}"
        code = main(["prompt", "--config", str(cfg), "--strategy", kind, "--out", str(out)])
        assert code == 0, f"{kind} command failed"
        report = json.loads((out / f"prompt_report_{kind}.json").read_text())
        assert report["strategy"] == kind
        assert set(report["K"]) == {"1", "5"}
        recalls[kind] = report["K"]["1"]["recall"]
        assert recalls[kind] == 1.0, f"{kind}: exact-title recall@1 {recalls[kind]}"
    return "fs/zcot/fscot all 1.0 recall@1 end-to-end"

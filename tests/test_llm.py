import re
import tracemalloc

import numpy as np
import pytest

from helpers import make_catalog, make_sessions, raw_serving, serving
from oracles import index_one_pass
from semsr import dataset as ds
from semsr.embeddings import encode_text, pseudo_semantic_table
from semsr.errors import DataError, GenerationError
from semsr.llm import (
    HttpClient,
    MockClient,
    PromptStrategy,
    build_fewshot_strategy,
    build_prompt,
    build_title_index,
    load_templates,
    prompt_hash,
    recommend_via_llm,
)
from semsr.retrieval import query
from test_cli import write_fixture_dataset

SHOTS = [(["red mug", "blue mug"], "mug rack"), (["tent", "sleeping bag"], "camping stove")]


class TestBuildPrompt:
    def test_deterministic(self):
        strategy = PromptStrategy(kind="fs", shots=SHOTS)
        a = build_prompt(strategy, ["hiking boots", "wool socks"])
        b = build_prompt(strategy, ["hiking boots", "wool socks"])
        assert a == b

    def test_fs_prompt_contains_each_shot_once(self):
        strategy = PromptStrategy(kind="fs", shots=SHOTS)
        _, user = build_prompt(strategy, ["desk lamp"])
        assert user.count("Next item:") == 2
        assert user.count("mug rack") == 1
        assert user.count("camping stove") == 1
        assert user.index("mug rack") < user.index("Current session")

    def test_zcot_prompt_has_no_shots_block(self):
        _, user = build_prompt(PromptStrategy(kind="zcot"), ["desk lamp"])
        assert "Next item:" not in user
        assert "desk lamp" in user

    def test_step_two_includes_rationale(self):
        strategy = PromptStrategy(kind="fscot", shots=SHOTS)
        _, user = build_prompt(strategy, ["desk lamp"], rationale="they furnish an office")
        assert "they furnish an office" in user

    def test_fs_has_no_step_two(self):
        with pytest.raises(DataError, match="second step"):
            build_prompt(PromptStrategy(kind="fs", shots=SHOTS), ["a"], rationale="r")

    def test_rationale_selects_the_step(self):
        strategy = PromptStrategy(kind="zcot")
        _, first = build_prompt(strategy, ["a"])
        _, second = build_prompt(strategy, ["a"], rationale="r")
        assert "Do not name a specific product yet" in first and "Session analysis" not in first
        assert "Session analysis:\nr" in second

    def test_empty_session_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            build_prompt(PromptStrategy(kind="zcot"), [])


class TestStrategyInvariants:
    def test_fs_requires_shots(self):
        with pytest.raises(DataError, match="shot"):
            PromptStrategy(kind="fs")

    def test_zcot_forbids_shots(self):
        with pytest.raises(DataError, match="must not"):
            PromptStrategy(kind="zcot", shots=SHOTS)

    def test_unknown_kind(self):
        with pytest.raises(DataError, match=re.escape("strategy must be one of ('fs', 'zcot', 'fscot'), got 'one-shot'")):
            PromptStrategy(kind="one-shot")

    def test_sampling_from_train_split(self):
        seqs = [list(range(i, i + 2 + i % 4)) for i in range(10)]  # distinct, of lengths 2 to 5
        sessions, catalog = make_sessions(seqs, split="train"), make_catalog(15)
        a = build_fewshot_strategy("fscot", sessions, catalog, n_shots=3, seed=4)
        b = build_fewshot_strategy("fscot", sessions, catalog, n_shots=3, seed=4)
        assert a.shots == b.shots
        # each shot is one session: the titles of its first L-1 items, then its last; in session order
        whole = [([catalog.title(j) for j in seq[:-1]], catalog.title(seq[-1])) for seq in seqs]
        picked = [whole.index(shot) for shot in a.shots]
        assert len(set(picked)) == 3 and picked == sorted(picked)

    def test_zcot_sampling_is_empty(self):
        assert build_fewshot_strategy("zcot", [], make_catalog(2), seed=0).shots == []


class TestMockClient:
    def test_replays_by_prompt_hash(self):
        client = MockClient({prompt_hash("sys", "usr"): "an answer"})
        assert client.generate("sys", "usr") == "an answer"

    def test_missing_hash_without_default_fails(self):
        client = MockClient({})
        with pytest.raises(GenerationError, match="no response"):
            client.generate("sys", "usr")

    def test_default_response(self):
        client = MockClient({}, default="fallback title")
        assert client.generate("sys", "usr") == "fallback title"

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", '{"hash": 3}'], ids=["invalid", "list", "non-text"])
    def test_malformed_response_file_names_it(self, tmp_path, content):
        f = tmp_path / "mock.json"
        f.write_text(content)
        with pytest.raises(DataError, match="mock.json"):
            MockClient.from_file(f)


class TestRecommend:
    def setup_method(self):
        self.catalog = make_catalog(20)
        self.index = build_title_index(self.catalog, 32)
        self.templates = load_templates()

    def _mock_for(self, strategy, session_items, responses):
        """Build the replay map by walking the same prompts the pipeline will."""
        titles = [self.catalog.title(i) for i in session_items]
        mapping = {}
        system, user = build_prompt(strategy, titles, templates=self.templates)
        mapping[prompt_hash(system, user)] = responses[0]
        if strategy.steps == 2:
            system, user = build_prompt(strategy, titles, rationale=responses[0].strip(), templates=self.templates)
            mapping[prompt_hash(system, user)] = responses[1]
        return MockClient(mapping)

    def test_exact_title_ranks_first(self):
        strategy = PromptStrategy(kind="fs", shots=SHOTS)
        session = [3, 8]
        client = self._mock_for(strategy, session, [self.catalog.title(7)])
        result = recommend_via_llm(session, self.catalog, client, strategy, self.index, k=5)
        assert result.items[0] == 7
        assert abs(result.scores[0] - 1.0) < 1e-6

    def test_unrelated_text_still_fills_k(self):
        strategy = PromptStrategy(kind="fs", shots=SHOTS)
        session = [0, 1]
        client = self._mock_for(strategy, session, ["completely unrelated text xyzzy"])
        result = recommend_via_llm(session, self.catalog, client, strategy, self.index, k=6)
        assert len(result) == 6

    def test_two_step_round_trip(self):
        strategy = PromptStrategy(kind="fscot", shots=SHOTS)
        session = [2, 5, 9]
        client = self._mock_for(strategy, session, ["they want product 11", self.catalog.title(11)])
        result = recommend_via_llm(session, self.catalog, client, strategy, self.index, k=4)
        assert client.calls == 2
        assert result.items[0] == 11

    def test_paraphrase_vector_lands_near_item(self):
        # encoder that maps "about:<title>" next to the title's own vector
        def encoder(text):
            if text.startswith("about:"):
                base = encode_text(text[len("about:"):], 32)
                bump = encode_text("noise", 32)
                v = base + 0.15 * bump
                return v / np.linalg.norm(v)
            return encode_text(text, 32)

        strategy = PromptStrategy(kind="fs", shots=SHOTS)
        session = [1, 2]
        client = self._mock_for(strategy, session, ["about:" + self.catalog.title(7)])
        result = recommend_via_llm(session, self.catalog, client, strategy, self.index, k=3, encoder=encoder)
        # cosine oracle over the fixture agrees
        sims = self.index.matrix @ encoder("about:" + self.catalog.title(7))
        assert 7 in result.items[:3]
        assert result.items.tolist() == sorted(range(20), key=lambda i: (-sims[i], i))[:3]

    def test_empty_generation_is_an_error(self):
        strategy = PromptStrategy(kind="fs", shots=SHOTS)
        client = self._mock_for(strategy, [0], ["   "])
        with pytest.raises(GenerationError, match="empty"):
            recommend_via_llm([0], self.catalog, client, strategy, self.index, k=3)

    def test_empty_rationale_is_an_error(self):
        strategy = PromptStrategy(kind="zcot")
        client = self._mock_for(strategy, [0, 4], ["", "unused"])
        with pytest.raises(GenerationError, match="rationale"):
            recommend_via_llm([0, 4], self.catalog, client, strategy, self.index, k=3)

    def test_totality_over_many_sessions(self):
        # every session either returns exactly k items or raises a typed error
        strategy = PromptStrategy(kind="fs", shots=SHOTS)
        rng = np.random.default_rng(0)
        for trial in range(25):
            session = [int(x) for x in rng.integers(0, 20, size=rng.integers(1, 6))]
            if trial % 3 == 0:
                client = MockClient({})  # no reply configured
                with pytest.raises(GenerationError):
                    recommend_via_llm(session, self.catalog, client, strategy, self.index, k=8)
            else:
                client = self._mock_for(strategy, session, [self.catalog.title(int(rng.integers(0, 20)))])
                assert len(recommend_via_llm(session, self.catalog, client, strategy, self.index, k=8)) == 8


class TestHttpClient:
    def test_requires_url(self):
        with pytest.raises(DataError, match="url"):
            HttpClient("")

    def test_unreachable_endpoint_exhausts_retries(self):
        client = HttpClient("http://127.0.0.1:9/", timeout=0.2, max_retries=2, backoff=0.0)
        with pytest.raises(GenerationError, match="2 attempts"):
            client.generate("sys", "usr")

    @pytest.mark.parametrize("body, text", [
        (b'{"text": "a title"}', "a title"),
        (b'{"choices": [{"message": {"content": "a title"}}]}', "a title"),
    ])
    def test_reads_the_text_of_either_reply_shape(self, body, text):
        with serving(body) as (url, requests):
            assert HttpClient(url, timeout=10, max_retries=2, backoff=0.0).generate("sys", "usr") == text
        assert len(requests) == 1

    @pytest.mark.parametrize("body", [
        b"[1, 2]", b'"x"', b"5", b'{"choices": "x"}', b'{"choices": [{"message": null}]}', b"\xff\xfe",
        b'{"text": null}', b'{"text": 5}', b"{}", b'{"choices": []}',
    ])
    def test_reply_without_a_string_text_is_a_failed_attempt(self, body):
        with serving(body) as (url, requests):
            client = HttpClient(url, timeout=10, max_retries=2, backoff=0.0)
            with pytest.raises(GenerationError, match="2 attempts"):
                client.generate("sys", "usr")
        assert len(requests) == 2

    @pytest.mark.parametrize("reply", [
        b"not an HTTP reply\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"text\": ",
        b"",
    ], ids=["bad-status-line", "incomplete-read", "remote-disconnected"])
    def test_malformed_reply_is_a_failed_attempt(self, reply):
        with raw_serving(reply) as (url, connections):
            client = HttpClient(url, timeout=10, max_retries=2, backoff=0.0)
            with pytest.raises(GenerationError, match="2 attempts"):
                client.generate("sys", "usr")
        assert len(connections) == 2


class TestTitleIndex:
    def test_every_title_retrieves_itself(self):
        catalog = make_catalog(15)
        index = build_title_index(catalog, 24)
        for j in (0, 7, 14):
            result = query(index, encode_text(catalog.title(j), 24), k=1)
            assert result.items[0] == j
            assert abs(result.scores[0] - 1.0) < 1e-6

    def test_equals_the_one_pass_oracle_bitwise_on_the_cli_fixture(self, tmp_path):
        write_fixture_dataset(tmp_path)
        catalog, _ = ds.preprocess(ds.ingest_sessions(tmp_path / "sessions.jsonl"),
                                   ds.load_metadata(tmp_path / "items.jsonl"), 2, 2)
        expected = index_one_pass([encode_text(m.title, 12) for m in catalog.items])
        assert build_title_index(catalog, 12).matrix.tobytes() == expected.tobytes()

    def test_zero_title_vector_past_the_first_block_names_its_item(self):
        catalog = make_catalog(400)  # width 300 gives row blocks of 109 rows

        def encoder(title):
            return np.zeros(300) if title == catalog.title(250) else encode_text(title, 300)

        with pytest.raises(DataError, match="zero-norm row for item 250$"):
            build_title_index(catalog, 300, encoder)

    def test_title_of_another_width_names_its_item(self):
        catalog = make_catalog(12)

        def encoder(title):
            return encode_text(title, 9 if title == catalog.title(7) else 8)

        with pytest.raises(DataError, match=r"item 7 has shape \(9,\), expected \(8,\)"):
            build_title_index(catalog, 8, encoder)

    def test_build_holds_the_index_about_once(self):
        """Peak traced memory of the build stays near the index's own bytes:
        no per-title list, stack or normalized copy beside it. The pseudo
        semantic table fills its rows through the same loop."""
        catalog = make_catalog(4000)
        for build in (lambda: build_title_index(catalog, 256).matrix, lambda: pseudo_semantic_table(catalog, 256).matrix):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                matrix = build()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * matrix.nbytes, peak / matrix.nbytes

import json
from collections import Counter

import numpy as np
import pytest

from semsr.dataset import (
    RawSession,
    Session,
    dataset_manifest,
    expand_incremental,
    ingest_sessions,
    load_catalog,
    load_metadata,
    load_sessions,
    preprocess,
    read_records,
    save_catalog,
    save_sessions,
    split_by_user,
)
from semsr.errors import DataError


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def metadata_records(ids):
    return [{"id": i, "title": f"title {i}"} for i in ids]


class TestIngest:
    def test_parses_sessions_in_file_order(self, tmp_path):
        f = tmp_path / "sessions.jsonl"
        write_jsonl(f, [
            {"session_id": "s1", "items": ["a", "b", "c"]},
            {"session_id": "s2", "user_id": "u9", "items": ["a", "b", "c", "d", "e"]},
        ])
        sessions = ingest_sessions(f)
        assert [s.id for s in sessions] == ["s1", "s2"]
        assert [len(s.items) for s in sessions] == [3, 5]
        assert sessions[1].user_id == "u9"

    def test_missing_items_field_names_line(self, tmp_path):
        f = tmp_path / "sessions.jsonl"
        write_jsonl(f, [{"session_id": "s1", "items": ["a", "b"]}, {"session_id": "s2"}])
        with pytest.raises(DataError, match=":2"):
            ingest_sessions(f)

    def test_malformed_json_names_line(self, tmp_path):
        f = tmp_path / "sessions.jsonl"
        f.write_text('{"session_id": "s1", "items": ["a"]}\nnot json\n')
        with pytest.raises(DataError, match=":2"):
            ingest_sessions(f)

    def test_reader_names_input_faults_and_lets_program_faults_through(self, tmp_path):
        f = tmp_path / "lines.txt"
        f.write_bytes(b"ok\n\xff\n")
        with pytest.raises(DataError, match="lines.txt:2: thing: 'utf-8'"):
            read_records(f, "thing", str)
        f.write_text("ok\n")
        with pytest.raises(KeyError):
            read_records(f, "thing", lambda line: {}[line])

    def test_duplicate_session_id_kept_with_warning(self, tmp_path):
        f = tmp_path / "sessions.jsonl"
        write_jsonl(f, [
            {"session_id": "dup", "items": ["a", "b"]},
            {"session_id": "dup", "items": ["c", "d"]},
        ])
        with pytest.warns(UserWarning, match="duplicate session_id"):
            sessions = ingest_sessions(f)
        assert len(sessions) == 2
        assert [s.items for s in sessions] == [["a", "b"], ["c", "d"]]

    def test_empty_file_is_an_error(self, tmp_path):
        f = tmp_path / "sessions.jsonl"
        f.write_text("")
        with pytest.raises(DataError, match="empty"):
            ingest_sessions(f)

    def test_integer_user_id_zero_is_a_group_key(self, tmp_path):
        f = tmp_path / "sessions.jsonl"
        write_jsonl(f, [
            {"session_id": "s1", "user_id": 0, "items": ["a", "b"]},
            {"session_id": "s2", "user_id": 0, "items": ["b", "c"]},
        ])
        assert [s.user_id for s in ingest_sessions(f)] == ["0", "0"]


def brute_force_filter(seqs, min_freq, min_len):
    """Oracle: repeatedly apply both rules until nothing changes."""
    seqs = [list(s) for s in seqs]
    while True:
        freq = Counter(i for s in seqs for i in s)
        nxt = [[i for i in s if freq[i] >= min_freq] for s in seqs]
        nxt = [s for s in nxt if len(s) >= min_len]
        if nxt == seqs:
            return seqs
        seqs = nxt


class TestPreprocess:
    def test_default_thresholds(self):
        import inspect

        sig = inspect.signature(preprocess)
        assert sig.parameters["min_item_freq"].default == 5
        assert sig.parameters["min_session_len"].default == 2

    def test_nothing_filtered_at_threshold_one(self):
        sessions = [RawSession(id="s", items=["a", "b"])]
        meta = {m["id"]: _meta(m) for m in metadata_records(["a", "b"])}
        catalog, out = preprocess(sessions, meta, min_item_freq=1, min_session_len=2)
        assert catalog.n == 2
        assert [catalog.items[i].id for i in out[0].items] == ["a", "b"]

    def test_rare_item_removed_and_short_sessions_dropped(self):
        # item "x" appears 4 times; everything else is frequent
        seqs = [["a", "b", "x"], ["a", "b"], ["a", "b", "x"], ["a", "x", "b"],
                ["x", "c"], ["a", "c"], ["b", "c"], ["a", "c"], ["b", "c"], ["a", "b"]]
        sessions = [RawSession(id=f"s{i}", items=s) for i, s in enumerate(seqs)]
        meta = {m["id"]: _meta(m) for m in metadata_records(["a", "b", "c", "x"])}
        catalog, out = preprocess(sessions, meta, min_item_freq=5, min_session_len=2)
        assert "x" not in catalog.index
        expected = brute_force_filter(seqs, 5, 2)
        got = [[catalog.items[i].id for i in s.items] for s in out]
        assert got == expected

    def test_fixed_point_reached(self):
        # chain where removing one item cascades
        rng = np.random.default_rng(7)
        ids = [f"i{j}" for j in range(12)]
        seqs = [[ids[int(x)] for x in rng.integers(0, 12, size=rng.integers(2, 6))] for _ in range(30)]
        sessions = [RawSession(id=f"s{i}", items=s) for i, s in enumerate(seqs)]
        meta = {m["id"]: _meta(m) for m in metadata_records(ids)}
        catalog, out = preprocess(sessions, meta, min_item_freq=4, min_session_len=2)
        # re-running the filter on the output changes nothing
        got = [[catalog.items[i].id for i in s.items] for s in out]
        assert brute_force_filter(got, 4, 2) == got
        freq = Counter(i for s in got for i in s)
        assert all(c >= 4 for c in freq.values())
        assert all(len(s) >= 2 for s in got)

    def test_all_filtered_is_an_error(self):
        sessions = [RawSession(id="s", items=["a", "b"])]
        meta = {m["id"]: _meta(m) for m in metadata_records(["a", "b"])}
        with pytest.raises(DataError, match="empty dataset"):
            preprocess(sessions, meta, min_item_freq=3, min_session_len=2)

    def test_unknown_items_dropped_with_warning(self):
        sessions = [RawSession(id="s", items=["a", "ghost", "b"])]
        meta = {m["id"]: _meta(m) for m in metadata_records(["a", "b"])}
        with pytest.warns(UserWarning, match="without metadata"):
            catalog, out = preprocess(sessions, meta, min_item_freq=1, min_session_len=2)
        assert catalog.n == 2
        assert len(out[0].items) == 2


def _meta(rec):
    from semsr.dataset import ItemMeta

    return ItemMeta(id=rec["id"], title=rec["title"])


def _sessions_for_users(n_users, per_user=1):
    out = []
    for u in range(n_users):
        for s in range(per_user):
            out.append(Session(id=f"u{u}-s{s}", items=[0, 1], user_id=f"u{u}"))
    return out


class TestSplit:
    def test_ten_keys_split_exactly(self):
        train, val, test = split_by_user(_sessions_for_users(10), seed=3)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_deterministic_for_a_seed(self):
        sessions = _sessions_for_users(25, per_user=2)
        a = split_by_user(sessions, seed=11)
        b = split_by_user(sessions, seed=11)
        assert [[s.id for s in part] for part in a] == [[s.id for s in part] for part in b]

    def test_thousand_keys_within_one_of_ratio(self):
        train, val, test = split_by_user(_sessions_for_users(1000), seed=0)
        assert abs(len(train) - 800) <= 1
        assert abs(len(val) - 100) <= 1
        assert abs(len(test) - 100) <= 1

    def test_users_are_atomic(self):
        sessions = _sessions_for_users(20, per_user=3)
        parts = split_by_user(sessions, seed=5)
        seen = {}
        for name, part in zip(("train", "val", "test"), parts):
            for s in part:
                assert seen.setdefault(s.user_id, name) == name
                assert s.split == name
        assert sum(len(p) for p in parts) == len(sessions)

    def test_too_few_keys(self):
        with pytest.raises(DataError, match="3 grouping keys"):
            split_by_user(_sessions_for_users(2))

    def test_bad_ratios(self):
        with pytest.raises(DataError, match="sum to 1"):
            split_by_user(_sessions_for_users(10), ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [(0.9, 0.1), (1.2, -0.1, -0.1)])
    def test_ratios_must_be_three_non_negative_values(self, ratios):
        with pytest.raises(DataError, match="^ratios must be three values >= 0 that sum to 1$"):
            split_by_user(_sessions_for_users(20), ratios=ratios)


class TestExpand:
    def test_train_session_expands_incrementally(self):
        s = Session(id="s", items=[4, 7, 9], split="train")
        got = expand_incremental([s])
        assert [(e.prefix, e.target) for e in got] == [([4], 7), ([4, 7], 9)]

    def test_test_session_yields_one_example(self):
        s = Session(id="s", items=[4, 7, 9], split="test")
        got = expand_incremental([s])
        assert [(e.prefix, e.target) for e in got] == [([4, 7], 9)]

    def test_expansion_count_matches_summation(self):
        rng = np.random.default_rng(1)
        sessions = [
            Session(id=f"s{i}", items=[int(x) for x in rng.integers(0, 50, size=rng.integers(2, 12))], split="train")
            for i in range(100)
        ]
        got = expand_incremental(sessions)
        assert len(got) == sum(len(s.items) - 1 for s in sessions)

    def test_unsplit_session_rejected(self):
        with pytest.raises(DataError, match="no split"):
            expand_incremental([Session(id="s", items=[1, 2])])


class TestPersistence:
    def test_catalog_roundtrip(self, tmp_path):
        from helpers import make_catalog

        catalog = make_catalog(5)
        save_catalog(tmp_path / "catalog.json", catalog)
        back = load_catalog(tmp_path / "catalog.json")
        assert [m.id for m in back.items] == [m.id for m in catalog.items]
        assert back.index == catalog.index

    def test_catalog_repeated_id_names_its_line(self, tmp_path):
        f = tmp_path / "catalog.json"
        write_jsonl(f, [{"id": "a", "title": "A"}, {"id": "b", "title": "B"}, {"id": "a", "title": "C"}])
        with pytest.raises(DataError, match="catalog.json:3: catalog: duplicate item id 'a'"):
            load_catalog(f)

    def test_sessions_roundtrip(self, tmp_path):
        sessions = [Session(id="a", items=[0, 1, 2], user_id="u", split="train")]
        save_sessions(tmp_path / "train.jsonl", sessions)
        back = load_sessions(tmp_path / "train.jsonl", 3)
        assert back == sessions

    @pytest.mark.parametrize("items", ["12", [1.9, True], [3]], ids=["string", "float-and-bool", "one-item"])
    def test_split_items_must_be_a_list_of_integers(self, tmp_path, items):
        f = tmp_path / "train.jsonl"
        write_jsonl(f, [{"session_id": "a", "items": [0, 1]}, {"session_id": "b", "items": items}])
        with pytest.raises(DataError, match="train.jsonl:2: .*'items'"):
            load_sessions(f, 4)

    def test_manifest_counts(self):
        splits = {
            "train": [Session(id="a", items=[0, 1, 2], split="train"), Session(id="b", items=[0, 1], split="train")],
            "val": [Session(id="c", items=[1, 2], split="val")],
            "test": [Session(id="d", items=[2, 0, 1, 2], split="test")],
        }
        from helpers import make_catalog

        m = dataset_manifest(make_catalog(3), splits, seed=9)
        assert m["n_items"] == 3
        assert m["n_train"] == 2 and m["n_train_examples"] == 3
        assert m["n_test"] == 1 and m["n_test_examples"] == 1
        assert m["avg_session_len"] == pytest.approx((3 + 2 + 2 + 4) / 4)
        assert m["seed"] == 9


class TestMetadata:
    def test_missing_title_rejected(self, tmp_path):
        f = tmp_path / "items.jsonl"
        write_jsonl(f, [{"id": "a"}])
        with pytest.raises(DataError, match="title"):
            load_metadata(f)

    @pytest.mark.parametrize(
        "name, record, error",
        [
            ("items.jsonl", {"id": 0, "title": "zero"}, None),
            ("catalog.json", {"id": 0, "title": "zero"}, None),
            ("items.jsonl", {"id": "b", "title": ["t"]}, "title"),
            ("catalog.json", {"id": "b", "title": None}, "title"),
            ("catalog.json", {"id": "b", "title": "t", "price": "abc"}, "price"),
        ],
        ids=["metadata-id-0", "catalog-id-0", "metadata-list-title", "catalog-null-title", "catalog-text-price"],
    )
    def test_one_rule_for_both_item_files(self, tmp_path, name, record, error):
        f = tmp_path / name
        write_jsonl(f, [{"id": "a", "title": "A"}, record])
        if name == "items.jsonl":
            load = load_metadata
        else:
            load = lambda path: {m.id: m for m in load_catalog(path).items}  # noqa: E731
        if error is None:
            assert load(f)["0"].title == "zero"
        else:
            with pytest.raises(DataError, match=f"{name}:2: .*{error}"):
                load(f)

    def test_optional_fields_parsed(self, tmp_path):
        f = tmp_path / "items.jsonl"
        write_jsonl(f, [{"id": "a", "title": "T", "brand": "B", "price": 12.5, "color": "red"}])
        meta = load_metadata(f)
        assert meta["a"].price == 12.5
        assert meta["a"].description is None

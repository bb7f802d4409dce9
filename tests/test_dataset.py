import gc
import json
import re
import tempfile
import types
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import tree
from semsr import dataset
from semsr.dataset import (
    SPLITS,
    RawSession,
    Session,
    Sessions,
    dataset_manifest,
    expand_incremental,
    ingest_sessions,
    load_catalog,
    load_metadata,
    load_sessions,
    preprocess,
    read_json,
    read_records,
    save_catalog,
    save_sessions,
    split_by_user,
    write_json,
    write_outputs,
    write_records,
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
        sessions = Sessions.from_records([RawSession(id="s", items=["a", "b"])])
        meta = {m["id"]: _meta(m) for m in metadata_records(["a", "b"])}
        catalog, out = preprocess(sessions, meta, min_item_freq=1, min_session_len=2)
        assert catalog.n == 2
        assert [catalog.items[i].id for i in out[0].items] == ["a", "b"]

    def test_rare_item_removed_and_short_sessions_dropped(self):
        # item "x" appears 4 times; everything else is frequent
        seqs = [["a", "b", "x"], ["a", "b"], ["a", "b", "x"], ["a", "x", "b"],
                ["x", "c"], ["a", "c"], ["b", "c"], ["a", "c"], ["b", "c"], ["a", "b"]]
        sessions = Sessions.from_records([RawSession(id=f"s{i}", items=s) for i, s in enumerate(seqs)])
        meta = {m["id"]: _meta(m) for m in metadata_records(["a", "b", "c", "x"])}
        catalog, out = preprocess(sessions, meta, min_item_freq=5, min_session_len=2)
        assert "x" not in catalog.index
        expected = brute_force_filter(seqs, 5, 2)
        got = [[catalog.items[i].id for i in s.items] for s in out]
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(
        seqs=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=30),
        n_known=st.integers(1, 10),
        min_freq=st.integers(1, 4),
        min_len=st.integers(2, 3),
    )
    def test_fixed_point_reached(self, seqs, n_known, min_freq, min_len):
        """Items i0..i{n_known-1} have metadata; the filter's output is the
        brute-force fixed point over the sessions restricted to them."""
        ids = [[f"i{x}" for x in seq] for seq in seqs]
        sessions = Sessions.from_records([RawSession(id=f"s{j}", items=seq) for j, seq in enumerate(ids)])
        meta = {m["id"]: _meta(m) for m in metadata_records([f"i{x}" for x in range(n_known)])}
        expected = brute_force_filter([[i for i in seq if i in meta] for seq in ids], min_freq, min_len)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # items without metadata are dropped with a warning
            if not expected:
                with pytest.raises(DataError, match="empty dataset"):
                    preprocess(sessions, meta, min_item_freq=min_freq, min_session_len=min_len)
                return
            catalog, out = preprocess(sessions, meta, min_item_freq=min_freq, min_session_len=min_len)
        assert [m.id for m in catalog.items] == sorted({i for seq in expected for i in seq})
        assert [[catalog.items[i].id for i in s.items] for s in out] == expected

    def test_all_filtered_is_an_error(self):
        sessions = Sessions.from_records([RawSession(id="s", items=["a", "b"])])
        meta = {m["id"]: _meta(m) for m in metadata_records(["a", "b"])}
        with pytest.raises(DataError, match="empty dataset"):
            preprocess(sessions, meta, min_item_freq=3, min_session_len=2)

    def test_unknown_items_dropped_with_warning(self):
        sessions = Sessions.from_records([RawSession(id="s", items=["a", "ghost", "b"])])
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
    return Sessions.from_records(out)


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

    def test_assignment_is_pinned_for_a_seed(self):
        # recorded from the reference implementation: 12 keys at 0.6/0.2/0.2 apportion to 7/3/2
        sessions = Sessions.from_records([*_sessions_for_users(7, per_user=2), *(Session(id=f"anon{j}", items=[1, 0]) for j in range(5))])
        parts = split_by_user(sessions, ratios=(0.6, 0.2, 0.2), seed=4)
        assert [[s.id for s in part] for part in parts] == [
            ["u2-s0", "u2-s1", "u3-s0", "u3-s1", "u4-s0", "u4-s1", "u5-s0", "u5-s1", "anon0", "anon1", "anon2"],
            ["u1-s0", "u1-s1", "anon3", "anon4"],
            ["u0-s0", "u0-s1", "u6-s0", "u6-s1"],
        ]

    def test_too_few_keys(self):
        with pytest.raises(DataError, match="3 grouping keys"):
            split_by_user(_sessions_for_users(2))

    def test_bad_ratios(self):
        with pytest.raises(DataError, match="sum to 1"):
            split_by_user(_sessions_for_users(10), ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [(0.9, 0.1), (1.2, -0.1, -0.1)])
    def test_ratios_must_be_three_non_negative_values(self, ratios):
        with pytest.raises(DataError, match=f"^{re.escape(f'ratios must be three values >= 0 that sum to 1, got {ratios}')}$"):
            split_by_user(_sessions_for_users(20), ratios=ratios)


class TestExpand:
    def test_train_session_expands_incrementally(self):
        s = Session(id="s", items=[4, 7, 9], split="train")
        got = expand_incremental(Sessions.from_records([s]))
        assert [(e.prefix, e.target) for e in got] == [([4], 7), ([4, 7], 9)]

    def test_test_session_yields_one_example(self):
        s = Session(id="s", items=[4, 7, 9], split="test")
        got = expand_incremental(Sessions.from_records([s]))
        assert [(e.prefix, e.target) for e in got] == [([4, 7], 9)]

    def test_expansion_count_matches_summation(self):
        rng = np.random.default_rng(1)
        sessions = Sessions.from_records([
            Session(id=f"s{i}", items=[int(x) for x in rng.integers(0, 50, size=rng.integers(2, 12))], split="train")
            for i in range(100)
        ])
        got = expand_incremental(sessions)
        assert len(got) == sum(len(s.items) - 1 for s in sessions)

    def test_unsplit_session_rejected(self):
        with pytest.raises(DataError, match="no split"):
            expand_incremental(Sessions.from_records([Session(id="s", items=[1, 2])]))


ITEM_IDS = ["a", "b", "c", "d", "e", "f", 7, 8, "9"]  # JSON integers ingest as their digits


def _log_record(session_id, user, items):
    rec = {"session_id": session_id, "items": items}
    if user != "absent":
        rec["user_id"] = user
    return rec


def _pipeline(steps, path, metadata, min_freq, min_len, seed):
    """(catalog ids, every split's (id, items, user, split), every
    example, manifest) through `steps`, the module holding the five
    pipeline functions, or the DataError text; and the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            catalog, processed = steps.preprocess(steps.ingest_sessions(path), metadata, min_freq, min_len)
            parts = steps.split_by_user(processed, seed=seed)
        except DataError as exc:
            return str(exc), [str(w.message) for w in caught]
    examples = [list(steps.expand_incremental(part)) for part in parts]
    rows = [[(s.id, s.items, s.user_id, s.split) for s in part] for part in parts]
    manifest = steps.dataset_manifest(catalog, dict(zip(SPLITS, parts)), seed)
    return ([m.id for m in catalog.items], rows, examples, manifest), [str(w.message) for w in caught]


class TestColumnarAgainstRecords:
    @settings(max_examples=150, deadline=None)
    @given(
        log=st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1", "s2", "s3", "s4", "s5", "s6", 7]),  # repeated session ids
                st.sampled_from(["u0", "u1", "u2", 3, "", None, "absent"]),  # shared, empty or missing users
                st.lists(st.sampled_from(ITEM_IDS), min_size=1, max_size=7),
            ),
            min_size=1,
            max_size=40,
        ),
        described=st.sets(st.sampled_from([str(i) for i in ITEM_IDS]), min_size=1),  # the rest lack metadata
        min_freq=st.integers(1, 3),
        min_len=st.integers(2, 4),
        seed=st.integers(0, 2**32),
    )
    def test_tables_give_the_record_pipeline_outputs(self, log, described, min_freq, min_len, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path, items = Path(tmp) / "sessions.jsonl", Path(tmp) / "items.jsonl"
            write_jsonl(path, [_log_record(*entry) for entry in log])
            write_jsonl(items, metadata_records(sorted(described)))
            metadata = load_metadata(items)
            expected = _pipeline(oracles, path, metadata, min_freq, min_len, seed)
            got = _pipeline(dataset, path, metadata, min_freq, min_len, seed)
            assert got == expected
            if isinstance(got[0], tuple):  # indexing builds what iteration builds
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    _, processed = preprocess(ingest_sessions(path), metadata, min_freq, min_len)
                for part in split_by_user(processed, seed=seed):
                    examples = expand_incremental(part)
                    assert [part[np.int64(i)] for i in range(len(part))] == list(part)
                    assert [examples[np.int64(j)] for j in range(len(examples))] == list(examples)


def _tracked_held(root) -> int:
    """The GC-tracked objects reachable from `root`, leaving out types,
    modules and functions (the code, not the data)."""
    seen, stack, count = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return count


def test_pipeline_outputs_hold_as_many_tracked_objects_at_any_size(tmp_path):
    """The cyclic collector walks every tracked object it finds alive, so
    tables whose object count grows with the log would make each full
    collection cost more per session ingested."""

    def held(n_sessions: int) -> int:
        rng = np.random.default_rng(0)
        write_jsonl(tmp_path / "items.jsonl", metadata_records([f"i{j}" for j in range(50)]))
        write_jsonl(tmp_path / "sessions.jsonl", [
            {"session_id": f"s{k}", "user_id": f"u{k % 97}", "items": [f"i{j}" for j in rng.integers(0, 50, size=rng.integers(2, 8))]}
            for k in range(n_sessions)
        ])
        raw = ingest_sessions(tmp_path / "sessions.jsonl")
        catalog, processed = preprocess(raw, load_metadata(tmp_path / "items.jsonl"), min_item_freq=1)
        assert catalog.n == 50
        parts = split_by_user(processed, seed=0)
        outputs = [raw, catalog, processed, parts, [expand_incremental(part) for part in parts]]
        gc.collect()
        return _tracked_held(outputs)

    small, large = held(500), held(5000)
    assert abs(large - small) <= 10, (small, large)


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

    def test_write_json_is_the_one_encoding(self, tmp_path):
        """Sorted keys at every depth, two-space indent, one trailing newline."""
        write_json(tmp_path / "out.json", {"b": [1, {"z": 0.5, "a": None}], "a": {"y": "t", "x": True}})
        assert (tmp_path / "out.json").read_text() == (
            '{\n  "a": {\n    "x": true,\n    "y": "t"\n  },\n'
            '  "b": [\n    1,\n    {\n      "a": null,\n      "z": 0.5\n    }\n  ]\n}\n'
        )

    def test_write_outputs_changes_nothing_when_a_writer_raises(self, tmp_path):
        """A file and a directory already staged, then a writer that fails
        under a parent it needed made: every target is as it was, and no
        staged entry or made directory is left."""
        write_json(tmp_path / "report.json", {"old": 1})
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "w.bin").write_bytes(b"old")
        before = tree(tmp_path)

        def checkpoint(path):
            path.mkdir()
            (path / "w.bin").write_bytes(b"new")

        def failing(path):
            path.write_text("half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_outputs([
                (tmp_path / "report.json", partial(write_json, payload={"new": 1})),
                (tmp_path / "ckpt", checkpoint),
                (tmp_path / "made" / "deep" / "cands.jsonl", failing),
            ])
        assert tree(tmp_path) == before
        assert not list(tmp_path.rglob(".*"))

    def test_write_records_is_one_sorted_object_per_line(self, tmp_path):
        write_records(tmp_path / "out.jsonl", [{"b": 1, "a": [2, 0.5]}, {"z": None, "c": "t"}])
        assert (tmp_path / "out.jsonl").read_text() == '{"a": [2, 0.5], "b": 1}\n{"c": "t", "z": null}\n'

    @pytest.mark.parametrize(
        "content, message",
        [(None, "thing not found"), (b'{"a": "\xff"}', "thing: 'utf-8' codec"),
         (b'{"a": 1', "thing: invalid JSON"), (b"[1, 2]\n", "thing: record is not a JSON object")],
        ids=["missing", "not-utf8", "invalid", "list"],
    )
    def test_read_json_fault_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(str(path))) as info:
            read_json(path, "thing")
        assert message in str(info.value)

    def test_sessions_roundtrip(self, tmp_path):
        sessions = Sessions.from_records([Session(id="a", items=[0, 1, 2], user_id="u", split="train")])
        save_sessions(tmp_path / "train.jsonl", sessions)
        back = load_sessions(tmp_path / "train.jsonl", 3, split="train")
        assert back == sessions

    @pytest.mark.parametrize("items", ["12", [1.9, True], [3]], ids=["string", "float-and-bool", "one-item"])
    def test_split_items_must_be_a_list_of_integers(self, tmp_path, items):
        f = tmp_path / "train.jsonl"
        write_jsonl(f, [{"session_id": "a", "items": [0, 1]}, {"session_id": "b", "items": items}])
        with pytest.raises(DataError, match="train.jsonl:2: .*'items'"):
            load_sessions(f, 4, split="train")

    def test_manifest_counts(self):
        splits = {
            "train": Sessions.from_records([Session(id="a", items=[0, 1, 2], split="train"), Session(id="b", items=[0, 1], split="train")]),
            "val": Sessions.from_records([Session(id="c", items=[1, 2], split="val")]),
            "test": Sessions.from_records([Session(id="d", items=[2, 0, 1, 2], split="test")]),
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

"""Tests for WAL + snapshot persistence, including crash recovery."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.persistence import JournaledStore, PersistentStoreError


@pytest.fixture()
def directory(tmp_path):
    return tmp_path / "store"


class TestBasicDurability:
    def test_insert_survives_reopen(self, directory):
        with JournaledStore.open(directory) as store:
            doc = store.insert({"name": "Ada"})
        with JournaledStore.open(directory) as reopened:
            assert reopened.get(doc.doc_id).payload == {"name": "Ada"}

    def test_update_survives_reopen(self, directory):
        with JournaledStore.open(directory) as store:
            doc = store.insert({"v": 1})
            store.update(doc.doc_id, {"v": 2})
        with JournaledStore.open(directory) as reopened:
            assert reopened.get(doc.doc_id).payload == {"v": 2}

    def test_delete_survives_reopen(self, directory):
        with JournaledStore.open(directory) as store:
            doc = store.insert({"v": 1})
            store.delete(doc.doc_id)
        with JournaledStore.open(directory) as reopened:
            assert doc.doc_id not in reopened

    def test_fresh_directory_is_empty(self, directory):
        with JournaledStore.open(directory) as store:
            assert len(store) == 0

    def test_reads_pass_through(self, directory):
        with JournaledStore.open(directory) as store:
            doc = store.insert({"x": 1})
            assert doc.doc_id in store
            assert len(store) == 1


class TestSnapshots:
    def test_snapshot_truncates_wal(self, directory):
        with JournaledStore.open(directory) as store:
            store.insert({"a": 1})
            store.insert({"b": 2})
            assert store.entries_since_snapshot == 2
            store.snapshot()
            assert store.entries_since_snapshot == 0
            assert (directory / "wal.jsonl").read_text() == ""

    def test_recovery_from_snapshot_only(self, directory):
        with JournaledStore.open(directory) as store:
            doc = store.insert({"a": 1})
            store.snapshot()
        with JournaledStore.open(directory) as reopened:
            assert reopened.get(doc.doc_id).payload == {"a": 1}

    def test_recovery_from_snapshot_plus_tail(self, directory):
        with JournaledStore.open(directory) as store:
            first = store.insert({"a": 1})
            store.snapshot()
            second = store.insert({"b": 2})
            store.update(first.doc_id, {"a": 99})
        with JournaledStore.open(directory) as reopened:
            assert reopened.get(first.doc_id).payload == {"a": 99}
            assert reopened.get(second.doc_id).payload == {"b": 2}

    def test_bad_snapshot_format_rejected(self, directory):
        directory.mkdir(parents=True)
        (directory / "snapshot.json").write_text(
            json.dumps({"format": "bogus", "documents": {}})
        )
        with pytest.raises(PersistentStoreError):
            JournaledStore.open(directory)


class TestCrashScenarios:
    def test_torn_wal_tail_recovers_prefix(self, directory):
        with JournaledStore.open(directory) as store:
            kept = store.insert({"a": 1})
        # Simulate a crash mid-append: garbage half-line at the end.
        with open(directory / "wal.jsonl", "a") as wal:
            wal.write('{"op": "insert", "id": "torn", "payl')
        with JournaledStore.open(directory) as reopened:
            assert kept.doc_id in reopened
            assert "torn" not in reopened

    def test_redundant_replay_after_unclean_snapshot(self, directory):
        # Crash between snapshot rename and WAL truncation: the WAL
        # still contains entries already folded into the snapshot.
        with JournaledStore.open(directory) as store:
            doc = store.insert({"v": 1})
            # Write the snapshot by hand without truncating the WAL.
            documents = {d.doc_id: d.payload for d in store.store.scan()}
            (directory / "snapshot.json").write_text(
                json.dumps({"format": "minaret-wal/1", "documents": documents})
            )
        with JournaledStore.open(directory) as reopened:
            assert reopened.get(doc.doc_id).payload == {"v": 1}
            assert len(reopened) == 1

    def test_unknown_wal_op_rejected(self, directory):
        directory.mkdir(parents=True)
        (directory / "wal.jsonl").write_text('{"op": "truncate-all"}\n')
        with pytest.raises(PersistentStoreError):
            JournaledStore.open(directory)


class TestBatches:
    def test_batch_applies_and_survives_reopen(self, directory):
        with JournaledStore.open(directory) as store:
            with store.batch() as batch:
                batch.insert({"a": 1}, doc_id="x")
                batch.insert({"b": 2}, doc_id="y")
                batch.update("x", {"a": 10})
        with JournaledStore.open(directory) as reopened:
            assert reopened.get("x").payload == {"a": 10}
            assert reopened.get("y").payload == {"b": 2}

    def test_batch_is_one_wal_record(self, directory):
        with JournaledStore.open(directory) as store:
            with store.batch() as batch:
                batch.insert({"a": 1}, doc_id="x")
                batch.insert({"b": 2}, doc_id="y")
            assert store.entries_since_snapshot == 1

    def test_failed_batch_rolls_back_memory(self, directory):
        with JournaledStore.open(directory) as store:
            store.insert({"v": 1}, doc_id="pre")
            with pytest.raises(RuntimeError):
                with store.batch() as batch:
                    batch.insert({"a": 1}, doc_id="x")
                    batch.update("pre", {"v": 2})
                    batch.delete("pre")
                    raise RuntimeError("abort")
            assert "x" not in store
            assert store.get("pre").payload == {"v": 1}

    def test_failed_batch_logs_nothing(self, directory):
        with JournaledStore.open(directory) as store:
            with pytest.raises(RuntimeError):
                with store.batch() as batch:
                    batch.insert({"a": 1}, doc_id="x")
                    raise RuntimeError("abort")
        with JournaledStore.open(directory) as reopened:
            assert "x" not in reopened

    def test_torn_batch_record_is_all_or_nothing(self, directory):
        with JournaledStore.open(directory) as store:
            store.insert({"v": 1}, doc_id="durable")
        # A batch record that never finished being written.
        with open(directory / "wal.jsonl", "a") as wal:
            wal.write('{"op": "batch", "entries": [{"op": "insert", "id": "t1"')
        with JournaledStore.open(directory) as reopened:
            assert "durable" in reopened
            assert "t1" not in reopened

    def test_batch_with_raising_extractor_leaves_nothing(self, directory):
        with JournaledStore.open(directory) as store:
            store.store.create_index("name", lambda d: d["name"])
            with pytest.raises(KeyError):
                with store.batch() as batch:
                    batch.insert({"name": "ok"}, doc_id="x")
                    batch.insert({"oops": 1}, doc_id="y")
            assert len(store) == 0
            assert store.store.index_keys("name") == []
        with JournaledStore.open(directory) as reopened:
            assert len(reopened) == 0

    def test_batch_sees_its_own_writes(self, directory):
        with JournaledStore.open(directory) as store:
            with store.batch() as batch:
                batch.insert({"v": 1}, doc_id="x")
                batch.update("x", {"v": 2})
            assert store.get("x").payload == {"v": 2}

    def test_empty_batch_logs_nothing(self, directory):
        with JournaledStore.open(directory) as store:
            with store.batch():
                pass
            assert store.entries_since_snapshot == 0


class TestIndexRebuild:
    def test_indexes_backfill_after_open(self, directory):
        with JournaledStore.open(directory) as store:
            store.insert({"country": "EE"}, doc_id="a")
            store.insert({"country": "DE"}, doc_id="b")
        with JournaledStore.open(directory) as reopened:
            reopened.store.create_index("country", lambda d: d.get("country"))
            assert reopened.store.lookup_ids("country", "EE") == ["a"]


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete", "snapshot"]),
                st.sampled_from(["d1", "d2", "d3"]),
                st.integers(0, 100),
            ),
            max_size=30,
        )
    )
    def test_reopen_equals_in_memory(self, tmp_path_factory, operations):
        """After any operation sequence, reopen == live state."""
        directory = tmp_path_factory.mktemp("journal")
        with JournaledStore.open(directory) as store:
            for operation, doc_id, value in operations:
                if operation == "insert" and doc_id not in store:
                    store.insert({"v": value}, doc_id=doc_id)
                elif operation == "update" and doc_id in store:
                    store.update(doc_id, {"v": value})
                elif operation == "delete" and doc_id in store:
                    store.delete(doc_id)
                elif operation == "snapshot":
                    store.snapshot()
            live = {d.doc_id: d.payload for d in store.store.scan()}
        with JournaledStore.open(directory) as reopened:
            recovered = {d.doc_id: d.payload for d in reopened.store.scan()}
        assert recovered == live

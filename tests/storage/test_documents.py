"""Unit and property tests for the document store."""

import enum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.documents import DocumentStore
from repro.storage.errors import DocumentNotFoundError, DuplicateDocumentError, IndexError_


@pytest.fixture()
def store():
    return DocumentStore(name="test")


def nested_payload():
    return {"tag": "t", "nested": {"v": 1}, "items": [1, 2]}


#: Every path that hands a stored payload to the caller, each returning
#: a snapshot taken after ``"k"`` was inserted with ``nested_payload()``.
READ_PATHS = {
    "get": lambda store: store.get("k"),
    "get_or_none": lambda store: store.get_or_none("k"),
    "lookup": lambda store: store.lookup("tag", "t")[0],
    "insert": lambda store: store.insert(nested_payload(), doc_id="k2"),
}


class _Colour(enum.Enum):
    RED = "red"


class TestInsertAndGet:
    def test_insert_returns_snapshot(self, store):
        doc = store.insert({"x": 1})
        assert doc.payload == {"x": 1}

    def test_auto_ids_are_unique(self, store):
        ids = {store.insert({}).doc_id for __ in range(10)}
        assert len(ids) == 10

    def test_auto_ids_are_minted_from_the_store_name(self, store):
        assert [store.insert({}).doc_id for __ in range(3)] == ["test:1", "test:2", "test:3"]

    def test_explicit_id(self, store):
        doc = store.insert({"x": 1}, doc_id="k")
        assert doc.doc_id == "k"
        assert store.get("k").payload == {"x": 1}

    def test_duplicate_id_rejected(self, store):
        store.insert({}, doc_id="k")
        with pytest.raises(DuplicateDocumentError):
            store.insert({}, doc_id="k")

    def test_get_missing_raises(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.get("nope")

    def test_get_or_none(self, store):
        assert store.get_or_none("nope") is None
        store.insert({}, doc_id="k")
        assert store.get_or_none("k") is not None

    def test_contains_and_len(self, store):
        store.insert({}, doc_id="k")
        assert "k" in store
        assert "other" not in store
        assert len(store) == 1


class TestIsolation:
    def test_mutating_input_does_not_affect_store(self, store):
        payload = {"nested": {"v": 1}}
        store.insert(payload, doc_id="k")
        payload["nested"]["v"] = 99
        assert store.get("k").payload["nested"]["v"] == 1

    @pytest.mark.parametrize("read", READ_PATHS.values(), ids=READ_PATHS.keys())
    def test_mutating_output_does_not_affect_store(self, store, read):
        store.create_index("tag", lambda d: d["tag"])
        store.insert(nested_payload(), doc_id="k")
        snapshot = read(store)
        snapshot.payload["nested"]["v"] = 99
        snapshot.payload["items"].append(3)
        assert store.get(snapshot.doc_id).payload == nested_payload()


class TestJsonLikeContract:
    def test_json_like_values_round_trip_exactly(self, store):
        payload = {"t": (1, "a"), 3: [None, True, 1.5, {"k": ()}]}
        store.insert(payload, doc_id="k")
        stored = store.get("k").payload
        assert stored == payload
        assert type(stored["t"]) is tuple
        assert type(stored[3][3]["k"]) is tuple

    @pytest.mark.parametrize(
        "value",
        [
            object(),
            _Colour.RED,
            np.float64(1.5),
            {1, 2},
            b"raw",
            bytearray(b"raw"),
            1 + 2j,
            frozenset({1}),
        ],
        ids=[
            "object",
            "enum",
            "numpy-scalar",
            "set",
            "bytes",
            "bytearray",
            "complex",
            "frozenset",
        ],
    )
    def test_non_json_like_payload_rejected(self, store, value):
        store.create_index("tag", lambda d: d["tag"])
        store.insert({"tag": "t", "x": 1}, doc_id="k")
        with pytest.raises(TypeError):
            store.insert({"tag": "t", "x": value}, doc_id="bad")
        assert "bad" not in store
        assert len(store) == 1
        assert store.get("k").payload == {"tag": "t", "x": 1}
        assert store.lookup_ids("tag", "t") == ["k"]


class TestEncodingEdges:
    def test_shared_subvalue_round_trips(self, store):
        shared = {"k": [1, 2]}
        store.insert({"a": shared, "b": [shared, shared]}, doc_id="k")
        assert store.get("k").payload == {
            "a": {"k": [1, 2]},
            "b": [{"k": [1, 2]}, {"k": [1, 2]}],
        }

    def test_nesting_deeper_than_marshal_allows_is_a_type_error(self, store):
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(TypeError, match="cannot encode"):
            store.insert({"deep": deep}, doc_id="deep")
        assert "deep" not in store
        assert len(store) == 0


class TestErrorMessages:
    def test_not_found_is_a_readable_key_error(self):
        error = DocumentNotFoundError("k1")
        assert isinstance(error, KeyError)
        assert str(error) == "document not found: 'k1'"
        assert error.doc_id == "k1"

    def test_duplicate_names_the_id(self):
        error = DuplicateDocumentError("k1")
        assert str(error) == "document already exists: 'k1'"
        assert error.doc_id == "k1"

    def test_store_raises_the_readable_form(self, store):
        with pytest.raises(DocumentNotFoundError, match="document not found: 'nope'"):
            store.get("nope")


class TestAtomicWrites:
    @pytest.mark.parametrize(
        ("extractor", "error"),
        [(lambda d: d["a"], KeyError), (lambda d: [d.get("b"), []], TypeError)],
        ids=["extractor-raises", "unhashable-key"],
    )
    def test_failed_insert_stores_nothing(self, store, extractor, error):
        store.create_index("b", lambda d: d.get("b"))
        store.create_index("a", extractor)
        with pytest.raises(error):
            store.insert({"b": 1}, doc_id="x")
        assert len(store) == 0
        assert "x" not in store
        # 1 is the one key the payload yields, for either index.
        assert store.lookup_ids("a", 1) == []
        assert store.lookup_ids("b", 1) == []

    def test_duplicate_insert_changes_nothing(self, store):
        store.create_index("tag", lambda d: d["tag"])
        store.insert({"tag": "a"}, doc_id="k")
        with pytest.raises(DuplicateDocumentError):
            store.insert({"tag": "b"}, doc_id="k")
        assert len(store) == 1
        assert store.get("k").payload == {"tag": "a"}
        assert store.lookup_ids("tag", "a") == ["k"]
        assert store.lookup_ids("tag", "b") == []

    def test_failed_insert_mints_no_id(self, store):
        store.create_index("a", lambda d: d["a"])
        with pytest.raises(KeyError):
            store.insert({})
        with pytest.raises(TypeError):
            store.insert({"a": object()})
        assert store.insert({"a": 1}).doc_id == "test:1"

    def test_failed_create_index_is_not_registered(self, store):
        store.insert({"a": 1}, doc_id="x")
        store.insert({"b": 2}, doc_id="y")
        with pytest.raises(KeyError):
            store.create_index("a", lambda d: d["a"])
        with pytest.raises(IndexError_):
            store.lookup_ids("a", 1)
        store.insert({"c": 3}, doc_id="z")
        assert len(store) == 3
        store.create_index("a", lambda d: d.get("a"))
        assert store.lookup_ids("a", 1) == ["x"]


class TestSecondaryIndexes:
    def test_single_value_index(self, store):
        store.create_index("country", lambda d: d.get("country"))
        store.insert({"name": "a", "country": "EE"})
        store.insert({"name": "b", "country": "DE"})
        store.insert({"name": "c", "country": "EE"})
        names = {doc.payload["name"] for doc in store.lookup("country", "EE")}
        assert names == {"a", "c"}

    def test_multi_value_index(self, store):
        store.create_index("tags", lambda d: d.get("tags", ()))
        store.insert({"name": "a", "tags": ["x", "y"]})
        assert store.lookup_ids("tags", "x") == store.lookup_ids("tags", "y")

    def test_string_key_is_one_key(self, store):
        store.create_index("name", lambda d: d["name"])
        store.insert({"name": "ada"}, doc_id="d")
        assert store.lookup_ids("name", "ada") == ["d"]
        assert store.lookup_ids("name", "a") == []

    def test_unknown_key_finds_nothing(self, store):
        store.create_index("k", lambda d: d.get("k"))
        store.insert({"k": "v"}, doc_id="d")
        assert store.lookup("k", "other") == []
        assert store.lookup_ids("k", "other") == []

    def test_lookup_returns_documents_in_id_order(self, store):
        store.create_index("k", lambda d: d["k"])
        for doc_id in ["c", "a", "b"]:
            store.insert({"k": 1, "id": doc_id}, doc_id=doc_id)
        found = store.lookup("k", 1)
        assert [doc.doc_id for doc in found] == ["a", "b", "c"]
        assert [doc.payload["id"] for doc in found] == ["a", "b", "c"]

    def test_none_key_excluded(self, store):
        store.create_index("maybe", lambda d: d.get("maybe"))
        store.insert({}, doc_id="d")
        assert "d" in store
        assert store.lookup_ids("maybe", None) == []

    def test_backfill_on_creation(self, store):
        store.insert({"k": "v"}, doc_id="d")
        store.create_index("k", lambda d: d.get("k"))
        assert store.lookup_ids("k", "v") == ["d"]

    def test_duplicate_index_name_rejected(self, store):
        store.create_index("k", lambda d: None)
        with pytest.raises(IndexError_):
            store.create_index("k", lambda d: None)

    @pytest.mark.parametrize("read", ["lookup", "lookup_ids"])
    def test_reads_of_unknown_index_rejected(self, store, read):
        with pytest.raises(IndexError_, match="no such index"):
            getattr(store, read)("nope", "x")


class TestProperties:
    @given(
        st.lists(
            st.dictionaries(st.sampled_from("abc"), st.integers(), max_size=3),
            max_size=20,
        )
    )
    def test_insert_then_get_roundtrips(self, payloads):
        store = DocumentStore()
        inserted = [store.insert(p) for p in payloads]
        for doc, payload in zip(inserted, payloads):
            assert store.get(doc.doc_id).payload == payload

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=30))
    def test_index_is_consistent_with_get(self, keys):
        store = DocumentStore()
        store.create_index("key", lambda d: d["key"])
        doc_ids = [store.insert({"key": key}).doc_id for key in keys]
        assert len(store) == len(keys)
        for key in set(keys):
            via_index = store.lookup_ids("key", key)
            via_get = sorted(d for d in doc_ids if store.get(d).payload["key"] == key)
            assert via_index == via_get

    @pytest.mark.parametrize("backfill", [False, True], ids=["on-insert", "backfilled"])
    @given(st.lists(st.lists(st.sampled_from("abcd"), max_size=4), max_size=15))
    def test_multi_value_index_is_consistent_with_get(self, backfill, tag_lists):
        store = DocumentStore()
        if not backfill:
            store.create_index("tags", lambda d: d["tags"])
        doc_ids = [store.insert({"tags": tags}).doc_id for tags in tag_lists]
        if backfill:
            store.create_index("tags", lambda d: d["tags"])
        for tag in "abcd":
            via_get = sorted(d for d in doc_ids if tag in store.get(d).payload["tags"])
            assert store.lookup_ids("tags", tag) == via_get

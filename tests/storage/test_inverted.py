"""Unit and property tests for the inverted index."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.inverted import InvertedIndex, idf_of


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add("alice", {"rdf": 2.0, "sparql": 1.0})
    idx.add("bob", {"rdf": 1.0, "ml": 3.0})
    idx.add("carol", {"ml": 1.0})
    return idx


class TestAdd:
    def test_len_counts_documents(self, index):
        assert len(index) == 3

    def test_contains(self, index):
        assert "alice" in index
        assert "dave" not in index

    def test_term_count(self, index):
        assert index.term_count == 3

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            InvertedIndex().add("d", {"t": 0.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            InvertedIndex().add("d", {"t": -1.0})

    def test_re_add_overwrites_weight(self, index):
        index.add("alice", {"rdf": 5.0})
        postings = index.search(["rdf"], use_idf=False)
        alice = next(p for p in postings if p.doc_id == "alice")
        assert alice.weight == 5.0
        assert len(index) == 3


class TestDocumentCount:
    """``len``, ``stats`` and the idf denominator count indexed documents."""

    def test_idf_divides_by_indexed_documents(self, index):
        scores = {p.doc_id: p.weight for p in index.search(["rdf"])}
        assert scores == {
            "alice": pytest.approx(2.0 * idf_of(3, 2)),
            "bob": pytest.approx(1.0 * idf_of(3, 2)),
        }

    def test_empty_add_leaves_scores_unchanged(self, index):
        before = index.search(["rdf", "ml"])
        index.add("ghost", {})
        assert index.search(["rdf", "ml"]) == before

    def test_document_with_new_terms_counts_once(self, index):
        index.add("alice", {"ml": 1.0})
        assert len(index) == 3
        assert index.stats() == {"terms": 3, "documents": 3, "postings": 6}
        scores = {p.doc_id: p.weight for p in index.search(["ml"])}
        assert scores["alice"] == pytest.approx(idf_of(3, 3))

    def test_search_for_unknown_term_creates_no_posting_list(self, index):
        assert index.search(["nope"], limit=1) == []
        assert index.term_count == 3
        assert index.stats() == {"terms": 3, "documents": 3, "postings": 5}


class TestRankedSearch:
    def test_single_term(self, index):
        results = index.search(["rdf"], use_idf=False)
        assert [p.doc_id for p in results] == ["alice", "bob"]

    def test_multi_term_accumulates(self, index):
        results = index.search(["rdf", "ml"], use_idf=False)
        scores = {p.doc_id: p.weight for p in results}
        assert scores["bob"] == pytest.approx(4.0)

    def test_query_weights_scale(self, index):
        results = index.search(
            ["rdf", "ml"], query_weights={"ml": 0.1}, use_idf=False
        )
        scores = {p.doc_id: p.weight for p in results}
        assert scores["alice"] > scores["carol"]

    def test_limit(self, index):
        assert len(index.search(["rdf", "ml"], limit=1)) == 1

    def test_limit_keeps_best(self, index):
        best = index.search(["rdf"], use_idf=False, limit=1)[0]
        assert best.doc_id == "alice"

    def test_idf_downweights_common_terms(self):
        idx = InvertedIndex()
        for i in range(10):
            idx.add(f"d{i}", {"common": 1.0})
        idx.add("d0", {"rare": 1.0})
        results = idx.search(["common", "rare"])
        assert results[0].doc_id == "d0"

    def test_unknown_terms_ignored(self, index):
        assert index.search(["nope"]) == []

    def test_empty_query(self, index):
        assert index.search([]) == []


class TestProperties:
    @given(
        corpus=st.dictionaries(
            st.sampled_from([f"d{i}" for i in range(8)]),
            st.dictionaries(
                st.sampled_from(["t1", "t2", "t3"]),
                st.sampled_from([0.5, 1.0, 2.0]),
                min_size=1,
                max_size=3,
            ),
            max_size=8,
        ),
        terms=st.lists(st.sampled_from(["t1", "t2", "t3", "t4"]), max_size=4),
        query_weights=st.dictionaries(
            st.sampled_from(["t1", "t2", "t3"]), st.sampled_from([0.5, 1.0])
        ),
        use_idf=st.booleans(),
    )
    def test_limit_cuts_the_full_ranking(self, corpus, terms, query_weights, use_idf):
        """Three posting weights and two query weights force score ties,
        which the cut must break by doc id exactly as the full sort does."""
        index = InvertedIndex()
        for doc_id, weights in corpus.items():
            index.add(doc_id, weights)
        full = index.search(terms, query_weights, use_idf=use_idf)
        assert full == sorted(full, key=lambda p: (-p.weight, p.doc_id))
        for n in {0, 1, max(len(full) - 1, 0), len(full), len(full) + 3}:
            cut = index.search(terms, query_weights, limit=n, use_idf=use_idf)
            assert cut == full[:n]

    @given(
        adds=st.lists(
            st.tuples(
                st.sampled_from(["d0", "d1", "d2", "d3"]),
                st.dictionaries(
                    st.sampled_from(["t1", "t2", "t3"]),
                    st.sampled_from([0.5, 1.0, 2.0]),
                    max_size=3,
                ),
            ),
            max_size=10,
        ),
        terms=st.lists(st.sampled_from(["t1", "t2", "t3", "t4"]), max_size=4),
    )
    def test_counts_and_scores_match_the_adds(self, adds, terms):
        """Repeated and empty adds against a brute-force model: a
        document counts once, and only after it has a term."""
        index = InvertedIndex()
        corpus: dict[str, dict[str, float]] = {}
        for doc_id, weights in adds:
            index.add(doc_id, weights)
            if weights:
                corpus.setdefault(doc_id, {}).update(weights)
        assert len(index) == len(corpus)
        assert all((doc_id in index) == (doc_id in corpus) for doc_id, __ in adds)
        assert index.stats() == {
            "terms": len({t for weights in corpus.values() for t in weights}),
            "documents": len(corpus),
            "postings": sum(len(weights) for weights in corpus.values()),
        }
        expected: dict[str, float] = {}
        for term in terms:
            holders = [d for d, weights in corpus.items() if term in weights]
            for doc_id in holders:
                idf = idf_of(len(corpus), len(holders))
                expected[doc_id] = expected.get(doc_id, 0.0) + corpus[doc_id][term] * idf
        scores = {p.doc_id: p.weight for p in index.search(terms)}
        assert scores == pytest.approx(expected)


class TestStats:
    def test_counts_live_content(self, index):
        stats = index.stats()
        assert stats["documents"] == len(index)
        assert stats["terms"] == index.term_count
        assert stats == {"terms": 3, "documents": 3, "postings": 5}

    def test_empty_index(self):
        assert InvertedIndex().stats() == {
            "terms": 0,
            "documents": 0,
            "postings": 0,
        }

    def test_add_empty_is_noop(self):
        index = InvertedIndex()
        index.add("ghost", {})
        assert "ghost" not in index
        assert index.stats() == {"terms": 0, "documents": 0, "postings": 0}

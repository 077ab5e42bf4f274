"""Unit and property tests for the inverted index."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.inverted import InvertedIndex, Posting


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add("alice", {"rdf": 2.0, "sparql": 1.0})
    idx.add("bob", {"rdf": 1.0, "ml": 3.0})
    idx.add("carol", {"ml": 1.0})
    return idx


class TestAddRemove:
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
        postings = index.postings("rdf")
        alice = next(p for p in postings if p.doc_id == "alice")
        assert alice.weight == 5.0

    def test_remove_drops_all_postings(self, index):
        index.remove("alice")
        assert "alice" not in index
        assert all(p.doc_id != "alice" for p in index.postings("rdf"))

    def test_remove_unknown_is_noop(self, index):
        index.remove("nobody")
        assert len(index) == 3

    def test_remove_cleans_empty_terms(self):
        idx = InvertedIndex()
        idx.add("only", {"term": 1.0})
        idx.remove("only")
        assert idx.term_count == 0


class TestPostings:
    def test_sorted_by_weight_desc(self, index):
        postings = index.postings("rdf")
        assert postings == [Posting("alice", 2.0), Posting("bob", 1.0)]

    def test_unknown_term_empty(self, index):
        assert index.postings("nope") == []

    def test_document_frequency(self, index):
        assert index.document_frequency("rdf") == 2
        assert index.document_frequency("nope") == 0


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

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=10))
    def test_remove_everything_empties_index(self, doc_ids):
        index = InvertedIndex()
        for i, doc in enumerate(doc_ids):
            index.add(f"{doc}{i}", {"t": 1.0})
        for i, doc in enumerate(doc_ids):
            index.remove(f"{doc}{i}")
        assert len(index) == 0
        assert index.term_count == 0


class TestStats:
    def test_counts_live_content(self, index):
        stats = index.stats()
        assert stats["documents"] == len(index)
        assert stats["terms"] == index.term_count
        assert stats["postings"] == sum(
            index.document_frequency(t)
            for t in {term for terms in index._document_terms.values() for term in terms}
        )

    def test_empty_index(self):
        assert InvertedIndex().stats() == {
            "terms": 0,
            "documents": 0,
            "postings": 0,
        }

    def test_add_term_empty_is_noop(self):
        index = InvertedIndex()
        index.add_term("ghost", {})
        assert index.stats() == {"terms": 0, "documents": 0, "postings": 0}

    def test_replace_term_leaves_no_empty_postings(self):
        index = InvertedIndex()
        index.add("a", {"x": 1.0, "y": 2.0})
        index.add("b", {"x": 1.0})
        index.replace_term("x", {})
        assert "x" not in index._postings
        assert index.stats() == {"terms": 1, "documents": 1, "postings": 1}
        assert "b" not in index  # b held only x

    def test_warm_refresh_cycles_do_not_grow_terms(self):
        """Regression for the warm retrieval plane: re-folding interest
        postings every refresh epoch replaces per-term lists, so index
        size must track live content, not refresh history."""
        index = InvertedIndex()
        terms = [f"topic-{i}" for i in range(12)]
        for epoch in range(50):
            for i, term in enumerate(terms):
                docs = {
                    f"author-{(epoch + j) % 9}": 1.0 + 0.01 * (epoch % 7)
                    for j in range(i % 4)
                }
                index.replace_term(term, docs)
        stats = index.stats()
        assert stats["terms"] <= len(terms)
        assert stats["documents"] <= 9
        assert stats["postings"] <= sum(i % 4 for i in range(12))
        # And every surviving posting list is non-empty.
        assert all(bucket for bucket in index._postings.values())

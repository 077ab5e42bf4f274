"""Unit tests for semantic keyword expansion (the §2.1 module)."""

import pytest

from repro.ontology import expansion
from repro.ontology.data import build_seed_ontology
from repro.ontology.expansion import (
    DEFAULT_RELATION_DECAY,
    ExpansionConfig,
    KeywordExpander,
)
from repro.ontology.graph import Relation


@pytest.fixture(scope="module")
def expander():
    return KeywordExpander(build_seed_ontology())


class TestPaperExample:
    """§2.1: expanding "RDF" must surface the three keywords named."""

    def test_rdf_expansion_contains_papers_keywords(self, expander):
        labels = {e.keyword for e in expander.expand(["RDF"])}
        assert {"Semantic Web", "Linked Open Data", "SPARQL"} <= labels

    def test_scores_in_unit_interval(self, expander):
        for expansion in expander.expand(["RDF"]):
            assert 0.0 <= expansion.score <= 1.0

    def test_seed_itself_scores_one(self, expander):
        by_keyword = {e.keyword: e for e in expander.expand(["RDF"])}
        assert by_keyword["RDF"].score == 1.0
        assert by_keyword["RDF"].depth == 0


class TestTraversalSemantics:
    def test_depth_zero_returns_only_seed(self, expander):
        config = ExpansionConfig(max_depth=0)
        results = expander.expand(["RDF"], config)
        assert [e.keyword for e in results] == ["RDF"]

    def test_deeper_expansion_is_superset(self, expander):
        shallow = {e.topic_id for e in expander.expand(["RDF"], ExpansionConfig(max_depth=1, min_score=0.0))}
        deep = {e.topic_id for e in expander.expand(["RDF"], ExpansionConfig(max_depth=2, min_score=0.0))}
        assert shallow <= deep

    def test_threshold_cuts_results(self, expander):
        strict = expander.expand(["RDF"], ExpansionConfig(min_score=0.85))
        loose = expander.expand(["RDF"], ExpansionConfig(min_score=0.5))
        assert len(strict) < len(loose)
        assert all(e.score >= 0.85 for e in strict)

    def test_score_multiplies_along_path(self, expander):
        # sparql --BROADER--> rdf --BROADER--> semantic-web
        config = ExpansionConfig(max_depth=2, min_score=0.0)
        by_topic = {e.topic_id: e for e in expander.expand(["SPARQL"], config)}
        decay = DEFAULT_RELATION_DECAY[Relation.BROADER]
        assert by_topic["rdf"].score == pytest.approx(decay)
        assert by_topic["semantic-web"].score == pytest.approx(decay * decay)

    def test_best_path_wins(self, expander):
        # linked-open-data is both RELATED to rdf (1 hop, 0.7) and
        # reachable via semantic-web (2 hops, 0.8*0.9=0.72) — the best
        # score must be kept.
        config = ExpansionConfig(max_depth=2, min_score=0.0)
        by_topic = {e.topic_id: e for e in expander.expand(["RDF"], config)}
        assert by_topic["linked-open-data"].score == pytest.approx(0.72)

    def test_max_results_cap(self, expander):
        config = ExpansionConfig(max_results_per_keyword=3, min_score=0.0)
        assert len(expander.expand(["RDF"], config)) <= 3

    def test_disabled_relation_not_traversed(self, expander):
        config = ExpansionConfig(
            relation_decay={Relation.SAME_AS: 1.0}, min_score=0.0
        )
        results = expander.expand(["RDF"], config)
        assert [e.topic_id for e in results] == ["rdf"]


class TestMultiSeed:
    def test_merges_and_dedupes(self, expander):
        results = expander.expand(["RDF", "SPARQL"])
        topic_ids = [e.topic_id for e in results]
        assert len(topic_ids) == len(set(topic_ids))

    def test_best_seed_attribution(self, expander):
        results = {e.topic_id: e for e in expander.expand(["RDF", "SPARQL"])}
        # SPARQL is its own seed at score 1.0, beating RDF's expansion.
        assert results["sparql"].seed == "SPARQL"
        assert results["sparql"].score == 1.0

    def test_sorted_by_score_then_label(self, expander):
        results = expander.expand(["RDF"])
        scores = [e.score for e in results]
        assert scores == sorted(scores, reverse=True)


class TestUnknownKeywords:
    def test_passthrough_with_score_one(self, expander):
        results = expander.expand(["Quantum Basket Weaving"])
        assert len(results) == 1
        assert results[0].keyword == "Quantum Basket Weaving"
        assert results[0].score == 1.0
        assert results[0].topic_id == ""

    def test_alt_label_resolves(self, expander):
        labels = {e.keyword for e in expander.expand(["triple stores"])}
        assert "RDF Stores" in labels

    def test_each_unknown_keyword_kept(self, expander):
        seeds = ["quantum basket weaving", "medieval pottery", "RDF"]
        results = expander.expand(seeds)
        unknown = [e for e in results if e.topic_id == ""]
        assert sorted(e.keyword for e in unknown) == [
            "medieval pottery",
            "quantum basket weaving",
        ]
        assert all(e.score == 1.0 and e.seed == e.keyword for e in unknown)
        known = [e for e in results if e.topic_id]
        assert known == expander.expand(["RDF"])

    def test_repeated_unknown_keyword_kept_once(self, expander):
        results = expander.expand(["medieval pottery", "medieval pottery"])
        assert [e.keyword for e in results] == ["medieval pottery"]


class TestProperties:
    """Hypothesis invariants over arbitrary seed topics and configs."""

    import hypothesis.strategies as _st
    from hypothesis import given as _given, settings as _settings

    _topics = _st.sampled_from(
        [
            "rdf", "databases", "machine-learning", "computer-vision",
            "stream-processing", "peer-review", "blockchain", "indexing",
        ]
    )

    @_settings(max_examples=30, deadline=None)
    @_given(topic=_topics, depth=_st.integers(0, 3))
    def test_deeper_never_loses_topics(self, expander, topic, depth):
        label = expander.ontology.topic(topic).label
        shallow = {
            e.topic_id
            for e in expander.expand([label], ExpansionConfig(max_depth=depth, min_score=0.0, max_results_per_keyword=10_000))
        }
        deep = {
            e.topic_id
            for e in expander.expand([label], ExpansionConfig(max_depth=depth + 1, min_score=0.0, max_results_per_keyword=10_000))
        }
        assert shallow <= deep

    @_settings(max_examples=30, deadline=None)
    @_given(topic=_topics, threshold=_st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    def test_threshold_filters_exactly(self, expander, topic, threshold):
        label = expander.ontology.topic(topic).label
        unfiltered = expander.expand(
            [label], ExpansionConfig(min_score=0.0, max_results_per_keyword=10_000)
        )
        filtered = expander.expand(
            [label],
            ExpansionConfig(min_score=threshold, max_results_per_keyword=10_000),
        )
        expected = {e.topic_id for e in unfiltered if e.score >= threshold}
        assert {e.topic_id for e in filtered} == expected

    @_settings(max_examples=20, deadline=None)
    @_given(topic=_topics)
    def test_scores_never_exceed_seed(self, expander, topic):
        label = expander.ontology.topic(topic).label
        results = expander.expand([label], ExpansionConfig(min_score=0.0))
        by_topic = {e.topic_id: e.score for e in results}
        assert by_topic[topic] == 1.0
        assert all(score <= 1.0 for score in by_topic.values())


class TestMemoization:
    def test_repeat_expansion_hits_memo(self):
        expander = KeywordExpander(build_seed_ontology())
        first = expander.expand(["RDF"])
        assert expander.memo_hits == 0
        second = expander.expand(["RDF"])
        assert expander.memo_hits == 1
        assert first == second

    def test_different_config_misses_memo(self):
        expander = KeywordExpander(build_seed_ontology())
        expander.expand(["RDF"])
        expander.expand(["RDF"], ExpansionConfig(max_depth=1))
        assert expander.memo_hits == 0

    def test_memo_shared_across_multi_seed_calls(self):
        expander = KeywordExpander(build_seed_ontology())
        expander.expand(["RDF", "Big Data"])
        expander.expand(["Big Data", "Indexing"])
        assert expander.memo_hits == 1

    def test_least_recently_used_seed_is_evicted(self, monkeypatch):
        monkeypatch.setattr(expansion, "MEMO_CAPACITY", 2)
        expander = KeywordExpander(build_seed_ontology())
        expander.expand(["RDF"])
        expander.expand(["SPARQL"])
        expander.expand(["RDF"])  # RDF is now the most recent
        expander.expand(["Semantic Web"])  # evicts SPARQL
        hits = expander.memo_hits
        expander.expand(["RDF"])
        assert expander.memo_hits == hits + 1
        expander.expand(["SPARQL"])
        assert expander.memo_hits == hits + 1
        assert len(expander._memo) == 2


class TestConfigValidation:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            ExpansionConfig(max_depth=-1)

    def test_bad_min_score_rejected(self):
        with pytest.raises(ValueError):
            ExpansionConfig(min_score=1.5)

    def test_bad_decay_rejected(self):
        with pytest.raises(ValueError):
            ExpansionConfig(relation_decay={Relation.RELATED: 2.0})

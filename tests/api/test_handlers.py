"""Tests for the MINARET REST API endpoints."""

import pytest

from repro.api.handlers import MinaretApi


@pytest.fixture()
def api(hub):
    return MinaretApi(hub)


def manuscript_payload(manuscript):
    return {
        "title": manuscript.title,
        "keywords": list(manuscript.keywords),
        "authors": [
            {
                "name": a.name,
                "affiliation": a.affiliation,
                "country": a.country,
            }
            for a in manuscript.authors
        ],
        "target_venue": manuscript.target_venue,
    }


def valid_body(path, manuscript):
    """A well-formed request body for ``recommend``, ``assign`` or ``expand``."""
    return {
        "recommend": {"manuscript": manuscript_payload(manuscript)},
        "assign": {
            "manuscripts": [{"paper_id": "p0", "manuscript": manuscript_payload(manuscript)}]
        },
        "expand": {"keywords": ["RDF"]},
    }[path]


class TestHealth:
    def test_health(self, api):
        response = api.handle("GET", "/api/v1/health")
        assert response.ok
        assert response.body["status"] == "ok"

    def test_routes_exposed(self, api):
        assert ("POST", "/api/v1/recommend") in api.routes()
        assert ("GET", "/api/v1/serving") in api.routes()


class TestInputValidation:
    """Client-input coercion must raise typed 400s, never crash to 500.

    Regression for the router no longer laundering bare ValueError:
    every handler coercion site now goes through ``as_int``/
    ``as_float`` (or raises ``ValidationError`` directly).
    """

    @pytest.mark.parametrize(
        ("path", "body"),
        [
            ("/api/v1/expand", {"keywords": ["RDF"], "max_depth": "deep"}),
            ("/api/v1/expand", {"keywords": ["RDF"], "min_score": "high"}),
            ("/api/v1/recommend", {"manuscript": None, "top_k": "many"}),
            ("/api/v1/assign", {"manuscripts": [], "workers": "all"}),
            ("/api/v1/assign", {"manuscripts": [], "capacity": []}),
            ("/api/v1/assign", {"manuscripts": [], "balance_weight": "heavy"}),
        ],
    )
    def test_bad_numeric_input_is_400(self, api, path, body):
        response = api.handle("POST", path, body)
        assert response.status == 400
        assert "error" in response.body

    @pytest.mark.parametrize(
        ("path", "override", "field"),
        [
            pytest.param("recommend", {"top_k": 2.5}, "top_k", id="top_k-frac"),
            pytest.param("recommend", {"top_k": True}, "top_k", id="top_k-bool"),
            pytest.param(
                "recommend",
                {"config": {"max_candidates": True}},
                "max_candidates",
                id="max_candidates-bool",
            ),
            pytest.param(
                "recommend", {"config": {"workers": 1.5}}, "workers", id="workers-frac"
            ),
            pytest.param(
                "recommend",
                {"config": {"warm_cache_capacity": True}},
                "warm_cache_capacity",
                id="warm_cache_capacity-bool",
            ),
            pytest.param(
                "recommend", {"config": {"top_k": True}}, "top_k", id="config-top_k-bool"
            ),
            pytest.param(
                "recommend",
                {"config": {"min_keyword_score": True}},
                "min_keyword_score",
                id="min_keyword_score-bool",
            ),
            pytest.param("assign", {"workers": True}, "workers", id="assign-workers-bool"),
            pytest.param("assign", {"capacity": 2.5}, "capacity", id="assign-capacity-frac"),
            pytest.param(
                "assign",
                {"reviewers_per_paper": True},
                "reviewers_per_paper",
                id="assign-reviewers-bool",
            ),
            pytest.param(
                "assign", {"balance_weight": True}, "balance_weight", id="assign-balance-bool"
            ),
            pytest.param("assign", {"top_k": 2.5}, "top_k", id="assign-top_k-frac"),
            pytest.param("expand", {"max_depth": True}, "max_depth", id="expand-depth-bool"),
            pytest.param("expand", {"max_depth": 1.5}, "max_depth", id="expand-depth-frac"),
            pytest.param("expand", {"min_score": True}, "min_score", id="expand-score-bool"),
        ],
    )
    def test_boolean_or_fraction_is_400(self, api, manuscript, path, override, field):
        """``true`` and ``2.5`` are not read as 1 and 2: the field is named in a 400."""
        response = api.handle(
            "POST", f"/api/v1/{path}", {**valid_body(path, manuscript), **override}
        )
        assert response.status == 400
        assert field in response.body["error"]

    @pytest.mark.parametrize(
        ("path", "override", "field"),
        [
            pytest.param("expand", {"max_depth": -1}, "max_depth", id="expand-depth-neg"),
            pytest.param("expand", {"min_score": 1.5}, "min_score", id="expand-score-high"),
            pytest.param(
                "expand", {"min_score": float("nan")}, "min_score", id="expand-score-nan"
            ),
            pytest.param("assign", {"manuscripts": ["x"]}, "manuscripts[0]", id="entry-str"),
            pytest.param("assign", {"manuscripts": [None]}, "manuscripts[0]", id="entry-null"),
            pytest.param(
                "assign", {"require_full": "false"}, "require_full", id="require_full-str"
            ),
            pytest.param(
                "assign", {"reviewers_per_paper": 0}, "reviewers_per_paper", id="assign-k0"
            ),
            pytest.param("assign", {"capacity": 0}, "capacity", id="assign-capacity0"),
            pytest.param("assign", {"max_load": 0}, "max_load", id="assign-max_load0"),
            pytest.param("assign", {"workers": 0}, "workers", id="assign-workers0"),
            pytest.param(
                "assign", {"workers": -1}, "workers", id="assign-workers-negative"
            ),
        ],
    )
    def test_out_of_range_or_malformed_is_400(
        self, api, hub, manuscript, path, override, field
    ):
        """Client errors the config and batch parsers meet answer 400, not 500,
        before any request.

        ``"false"`` is not a boolean, so it is refused rather than read
        as true.  A size error names the field the client sent, so
        ``max_load`` (the alias of ``capacity``) is named as sent.
        """
        before = hub.total_requests()
        response = api.handle(
            "POST", f"/api/v1/{path}", {**valid_body(path, manuscript), **override}
        )
        assert response.status == 400
        assert field in response.body["error"]
        assert hub.total_requests() == before

    def test_malformed_author_entry_is_400(self, api):
        response = api.handle(
            "POST", "/api/v1/verify-authors", {"authors": ["not a dict"]}
        )
        assert response.status == 400


class TestNamesAndKeywords:
    """A name, keyword or paper id must be a non-empty JSON string, checked
    before any crawl: ``null`` is not read as ``"None"`` nor ``7`` as ``"7"``."""

    BAD = [
        pytest.param(None, id="null"),
        pytest.param("  ", id="blank"),
        pytest.param(7, id="number"),
        pytest.param(True, id="true"),
        pytest.param([1], id="list"),
        pytest.param({"a": 1}, id="object"),
    ]

    @staticmethod
    def body(path, manuscript, role, value):
        payload = manuscript_payload(manuscript)
        paper_id = "p0"
        if role == "name":
            payload["authors"][0]["name"] = value
        elif role == "keyword":
            payload["keywords"][0] = value
        else:
            paper_id = value
        if path == "recommend":
            return {"manuscript": payload}
        if path == "assign":
            return {"manuscripts": [{"paper_id": paper_id, "manuscript": payload}]}
        if path == "expand":
            return {"keywords": payload["keywords"]}
        return {"authors": payload["authors"]}

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize(
        ("path", "role", "field"),
        [
            ("recommend", "name", "authors[0].name"),
            ("recommend", "keyword", "keywords[0]"),
            ("assign", "name", "authors[0].name"),
            ("assign", "keyword", "keywords[0]"),
            ("verify-authors", "name", "authors[0].name"),
            ("assign", "paper_id", "manuscripts[0].paper_id"),
            ("expand", "keyword", "keywords[0]"),
        ],
    )
    def test_rejected_before_any_request(
        self, api, hub, manuscript, path, role, field, value
    ):
        before = hub.total_requests()
        response = api.handle(
            "POST", f"/api/v1/{path}", self.body(path, manuscript, role, value)
        )
        assert response.status == 400
        assert field in response.body["error"]
        assert hub.total_requests() == before


class TestOptionalTextFields:
    """An optional text field is absent, ``null`` (read as ``""``) or a JSON
    string: ``5`` is not read as the venue ``"5"`` nor ``null`` as ``"None"``."""

    @staticmethod
    def body(path, manuscript, field, value):
        payload = manuscript_payload(manuscript)
        if field.startswith("authors[0]."):
            payload["authors"][0][field.removeprefix("authors[0].")] = value
        else:
            payload[field] = value
        if path == "recommend":
            return {"manuscript": payload}
        return {"authors": payload["authors"]}

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(5, id="number"),
            pytest.param(True, id="true"),
            pytest.param(["x"], id="list"),
            pytest.param({"a": 1}, id="object"),
        ],
    )
    @pytest.mark.parametrize(
        ("path", "field"),
        [
            ("recommend", "title"),
            ("recommend", "abstract"),
            ("recommend", "target_venue"),
            ("recommend", "authors[0].affiliation"),
            ("recommend", "authors[0].country"),
            ("verify-authors", "authors[0].affiliation"),
            ("verify-authors", "authors[0].country"),
        ],
    )
    def test_non_string_rejected_before_any_request(
        self, api, hub, manuscript, path, field, value
    ):
        before = hub.total_requests()
        response = api.handle(
            "POST", f"/api/v1/{path}", self.body(path, manuscript, field, value)
        )
        assert response.status == 400
        assert field in response.body["error"]
        assert hub.total_requests() == before

    def test_null_target_venue_is_empty_and_not_looked_up(self, hub, manuscript):
        api = MinaretApi(hub, trace_capacity=100_000)
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            self.body("recommend", manuscript, "target_venue", None),
        )
        assert response.ok
        assert response.body["manuscript"]["target_venue"] == ""
        paths = [trace.path for trace in hub.http.traces()]
        assert "/search/venue" not in paths
        assert len(paths) == hub.total_requests()


class TestExpand:
    def test_paper_example(self, api):
        response = api.handle("POST", "/api/v1/expand", {"keywords": ["RDF"]})
        assert response.ok
        labels = {e["keyword"] for e in response.body["expansions"]}
        assert {"Semantic Web", "SPARQL", "Linked Open Data"} <= labels

    def test_depth_override(self, api):
        response = api.handle(
            "POST", "/api/v1/expand", {"keywords": ["RDF"], "max_depth": 0}
        )
        assert [e["keyword"] for e in response.body["expansions"]] == ["RDF"]

    def test_missing_keywords_400(self, api):
        assert api.handle("POST", "/api/v1/expand", {}).status == 400

    def test_empty_keywords_400(self, api):
        response = api.handle("POST", "/api/v1/expand", {"keywords": []})
        assert response.status == 400


class TestVerifyAuthors:
    def test_known_author(self, api, manuscript):
        author = manuscript.authors[0]
        response = api.handle(
            "POST",
            "/api/v1/verify-authors",
            {"authors": [{"name": author.name, "affiliation": author.affiliation}]},
        )
        assert response.ok
        verified = response.body["verified"][0]
        assert verified["name"] == author.name
        assert "dblp" in verified["source_ids"]

    def test_unknown_author_404(self, api):
        response = api.handle(
            "POST", "/api/v1/verify-authors", {"authors": [{"name": "Nobody Nowhere"}]}
        )
        assert response.status == 404

    def test_ambiguous_author_409(self, api, world):
        collision = next(
            a
            for a in world.authors.values()
            if len(world.authors_by_name(a.name)) > 1
        )
        response = api.handle(
            "POST", "/api/v1/verify-authors", {"authors": [{"name": collision.name}]}
        )
        assert response.status == 409

    def test_missing_body_400(self, api):
        assert api.handle("POST", "/api/v1/verify-authors", {}).status == 400


class TestRecommend:
    def test_full_workflow(self, api, manuscript):
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript), "top_k": 5},
        )
        assert response.ok
        body = response.body
        assert len(body["recommendations"]) <= 5
        for rec in body["recommendations"]:
            assert set(rec["breakdown"]) == {
                "topic_coverage",
                "scientific_impact",
                "recency",
                "review_experience",
                "outlet_familiarity",
                "timeliness",
            }
        assert [p["phase"] for p in body["phases"]] == [
            "verify_authors",
            "crawl_outlet",
            "expand_keywords",
            "extract_candidates",
            "filter",
            "rank",
        ]

    def test_config_overrides_applied(self, api, manuscript):
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {
                "manuscript": manuscript_payload(manuscript),
                "config": {"max_candidates": 3},
            },
        )
        assert response.ok
        extract = next(
            p for p in response.body["phases"] if p["phase"] == "extract_candidates"
        )
        assert extract["items_out"] <= 3

    def test_invalid_weights_400(self, api, manuscript):
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {
                "manuscript": manuscript_payload(manuscript),
                "config": {"weights": {"topic_coverage": -1.0}},
            },
        )
        assert response.status == 400

    @pytest.mark.parametrize(
        ("config", "field"),
        [
            pytest.param([], "config", id="config-list"),
            pytest.param({"coi": []}, "coi", id="coi-list"),
            pytest.param({"coi": {"lookback_years": "5"}}, "lookback_years", id="lookback-str"),
            pytest.param({"coi": {"lookback_years": -3}}, "lookback_years", id="lookback-neg"),
            pytest.param(
                {"coi": {"check_coauthorship": "false"}},
                "check_coauthorship",
                id="coauthorship-str",
            ),
            pytest.param(
                {"constraints": {"min_citations": "10"}}, "min_citations", id="bound-str"
            ),
            pytest.param(
                {"constraints": {"min_citations": float("nan")}},
                "min_citations",
                id="bound-nan",
            ),
            pytest.param(
                {"constraints": {"min_citations": 10, "max_citations": 5}},
                "max_citations",
                id="citations-inverted",
            ),
            pytest.param({"pc_members": "abc"}, "pc_members", id="pc-str"),
            pytest.param({"warm_cache": "false"}, "warm_cache", id="warm-str"),
            pytest.param(
                {"coi": {"check_mentorship": True}}, "check_mentorship", id="coi-unknown"
            ),
            pytest.param({"coi": {"lookback": 3}}, "lookback", id="coi-typo"),
            pytest.param({"weights": {"recency": float("nan")}}, "recency", id="w-nan"),
            pytest.param({"weights": {"recency": float("inf")}}, "recency", id="w-inf"),
            pytest.param({"weights": {"recency": float("-inf")}}, "recency", id="w-ninf"),
            pytest.param(
                {"aggregation": "owa", "owa_weights": [float("inf"), 1]},
                "owa_weights",
                id="owa-inf",
            ),
        ],
    )
    def test_malformed_config_400(self, api, manuscript, config, field):
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript), "config": config},
        )
        assert response.status == 400
        assert field in response.body["error"]

    def test_missing_manuscript_400(self, api):
        assert api.handle("POST", "/api/v1/recommend", {}).status == 400

    def test_manuscript_without_keywords_400(self, api, manuscript):
        payload = manuscript_payload(manuscript)
        payload["keywords"] = []
        response = api.handle(
            "POST", "/api/v1/recommend", {"manuscript": payload}
        )
        assert response.status == 400

    def test_invalid_top_k_400(self, api, manuscript):
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript), "top_k": 0},
        )
        assert response.status == 400


class TestAssign:
    def batch_payload(self, world, count=3):
        entries = []
        index = 0
        for author in world.authors.values():
            if index >= count:
                break
            if len(world.authors_by_name(author.name)) > 1:
                continue
            topics = sorted(author.topic_expertise)[:2]
            entries.append(
                {
                    "paper_id": f"paper-{index}",
                    "manuscript": {
                        "title": f"Batch {index}",
                        "keywords": [
                            world.ontology.topic(t).label for t in topics
                        ],
                        "authors": [
                            {
                                "name": author.name,
                                "affiliation": author.affiliations[-1].institution,
                            }
                        ],
                    },
                }
            )
            index += 1
        return entries

    def test_batch_assignment(self, api, world):
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {
                "manuscripts": self.batch_payload(world),
                "reviewers_per_paper": 2,
                "max_load": 2,
                "solver": "optimal",
            },
        )
        assert response.ok
        assignments = response.body["assignments"]
        assert len(assignments) == 3
        for reviewers in assignments.values():
            assert len(reviewers) <= 2
            for reviewer in reviewers:
                assert reviewer["name"]
        assert response.body["quality"]["max_load"] <= 2

    def test_unknown_solver_400(self, api, world):
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {
                "manuscripts": self.batch_payload(world, count=1),
                "solver": "simulated-annealing",
            },
        )
        assert response.status == 400

    def test_missing_paper_id_400(self, api):
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {"manuscripts": [{"manuscript": {}}]},
        )
        assert response.status == 400

    def test_empty_batch_400(self, api):
        assert api.handle("POST", "/api/v1/assign", {"manuscripts": []}).status == 400

    def test_duplicate_paper_ids_400(self, api, hub, world):
        entry = self.batch_payload(world, count=1)[0]
        before = hub.total_requests()
        response = api.handle(
            "POST", "/api/v1/assign", {"manuscripts": [entry, entry]}
        )
        assert response.status == 400
        assert "duplicate paper id" in response.body["error"]
        assert hub.total_requests() == before

    def test_capacity_alias_and_conference_solvers(self, api, world):
        payload = {
            "manuscripts": self.batch_payload(world),
            "reviewers_per_paper": 2,
            "solver": "greedy-swap",
            "balance_weight": 0.1,
            "on_error": "skip",
        }
        response = api.handle(
            "POST", "/api/v1/assign", {**payload, "capacity": 2}
        )
        assert response.ok
        assert response.body["failures"] == []
        assert response.body["objective_value"] > 0
        via_max_load = api.handle(
            "POST", "/api/v1/assign", {**payload, "max_load": 2}
        )
        assert via_max_load.ok
        assert via_max_load.body["assignments"] == response.body["assignments"]

    def test_capacity_and_max_load_together_400(self, api, world):
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {
                "manuscripts": self.batch_payload(world, count=1),
                "capacity": 2,
                "max_load": 2,
            },
        )
        assert response.status == 400
        assert "not both" in response.body["error"]

    def test_bad_on_error_400(self, api, world):
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {
                "manuscripts": self.batch_payload(world, count=1),
                "on_error": "retry",
            },
        )
        assert response.status == 400

    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    def test_value_error_inside_a_run_is_500(self, api, world, monkeypatch, on_error):
        """Only the up-front checks answer 400: a ``ValueError`` raised inside a
        paper's pipeline is a handler bug, as it is on ``/recommend``, and
        ``skip`` passes over typed failures only."""
        from repro.core.ranking import Ranker

        def broken(*args, **kwargs):
            raise ValueError("ranking broke")

        monkeypatch.setattr(Ranker, "rank", broken)
        body = {"manuscripts": self.batch_payload(world, count=1), "on_error": on_error}
        response = api.handle("POST", "/api/v1/assign", body)
        assert response.status == 500
        assert response.body["exception"] == "ValueError"
        assert response.body["detail"] == "ranking broke"
        recommend = {"manuscript": body["manuscripts"][0]["manuscript"]}
        assert api.handle("POST", "/api/v1/recommend", recommend).status == 500

    @pytest.mark.parametrize("top_k", [[1], -1, 0])
    def test_invalid_top_k_400(self, api, world, top_k):
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {"manuscripts": self.batch_payload(world, count=1), "top_k": top_k},
        )
        assert response.status == 400
        assert "top_k" in response.body["error"]

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("balance_weight", "inf"),
            ("balance_weight", "nan"),
            ("balance_weight", "-inf"),
            ("balance_weight", -1),
            ("coverage_weight", "nan"),
        ],
    )
    def test_non_finite_or_negative_weight_400(self, api, world, field, value):
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {"manuscripts": self.batch_payload(world, count=1), field: value},
        )
        assert response.status == 400
        assert field in response.body["error"]

    def test_require_full_infeasible_409(self, api, world):
        # One reviewer slot available per paper cannot satisfy a
        # 3-reviewer quota under load 1 with 3 papers sharing a pool.
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {
                "manuscripts": self.batch_payload(world),
                "reviewers_per_paper": 40,
                "capacity": 1,
                "require_full": True,
            },
        )
        assert response.status == 409
        assert "unfilled" in response.body["error"] or "candidate" in response.body["error"] or "demand" in response.body["error"]


class TestSourceStats:
    def test_stats_accumulate(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        response = api.handle("GET", "/api/v1/sources")
        assert response.ok
        by_host = {s["host"]: s for s in response.body["sources"]}
        assert by_host["scholar.google.com"]["requests"] > 0


class TestMetricsEndpoint:
    def test_per_host_counters_and_histograms(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        response = api.handle("GET", "/api/v1/metrics")
        assert response.ok
        metrics = response.body["metrics"]
        request_hosts = {
            series["labels"]["host"]
            for series in metrics["counters"]["http_requests_total"]
        }
        assert "dblp.org" in request_hosts
        assert "scholar.google.com" in request_hosts
        latency_series = metrics["histograms"]["http_request_latency_seconds"]
        by_host = {series["labels"]["host"]: series for series in latency_series}
        assert by_host["dblp.org"]["count"] > 0
        assert by_host["dblp.org"]["buckets"]["+Inf"] == by_host["dblp.org"]["count"]

    def test_http_and_cache_sections(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        body = api.handle("GET", "/api/v1/metrics").body
        assert body["http"]["scholar.google.com"]["requests"] > 0
        # Default deployment has caching off (ttl=0): it builds no
        # crawler cache, so there is no cache section and no miss.
        assert body["cache"] is None
        assert "cache_misses_total" not in body["metrics"]["counters"]

    def test_cache_hit_ratio_reported(self, world, manuscript):
        from repro.scholarly.registry import ScholarlyHub

        api = MinaretApi(ScholarlyHub.deploy(world, cache_ttl=None))
        payload = {"manuscript": manuscript_payload(manuscript)}
        api.handle("POST", "/api/v1/recommend", payload)
        api.handle("POST", "/api/v1/recommend", payload)
        cache = api.handle("GET", "/api/v1/metrics").body["cache"]
        assert cache["hits"] > 0
        assert 0.0 < cache["hit_rate"] <= 1.0

    def test_api_request_counters(self, api):
        api.handle("GET", "/api/v1/health")
        body = api.handle("GET", "/api/v1/metrics").body
        series = body["metrics"]["counters"]["api_requests_total"]
        by_route = {s["labels"]["route"]: s["value"] for s in series}
        assert by_route["/api/v1/health"] == 1.0

    def test_scoring_plane_metrics_visible(self, api, manuscript):
        # One recommend builds features in the filter phase and reuses
        # them in the ranking phase, and every plane ranking reports its
        # prune rate — all of it lands on the metrics endpoint.
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        metrics = api.handle("GET", "/api/v1/metrics").body["metrics"]
        counters = metrics["counters"]
        built = sum(s["value"] for s in counters["scoring_features_built_total"])
        reused = sum(s["value"] for s in counters["scoring_features_reused_total"])
        assert built > 0
        assert reused > 0
        assert "scoring_prune_rate" in metrics["gauges"]

    def test_body_is_json_serialisable(self, api, manuscript):
        import json

        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        json.dumps(api.handle("GET", "/api/v1/metrics").body)


class TestDeletedConfigKeys:
    def test_deleted_keys_are_ignored(self, api, manuscript):
        """Clients that still send removed config keys get the default
        answer: unknown config keys are ignored.  That covers the
        parallelism keys and ``scoring_plane``, in either form: the
        naive path it selected now runs only as a test oracle."""
        bodies = [
            api.handle(
                "POST",
                "/api/v1/recommend",
                {"manuscript": manuscript_payload(manuscript), "config": config},
            ).body
            for config in (
                {},
                {"workers": 2, "shards": 4, "executor_backend": "thread"},
                {"scoring_plane": False},
                {"scoring_plane": "false"},
            )
        ]
        assert bodies[0]["recommendations"]
        for body in bodies[1:]:
            assert body["recommendations"] == bodies[0]["recommendations"]


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span["children"])


class TestTraceEndpoint:
    def test_ring_enabled_by_default(self, api, manuscript):
        # ScholarlyHub.deploy defaults to trace_capacity=0; the API must
        # turn the ring on itself so /api/v1/trace is never dead.
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        body = api.handle("GET", "/api/v1/trace").body
        assert body["enabled"] is True
        assert len(body["traces"]) > 0

    def test_span_tree_fanout_parents_under_phase(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {
                "manuscript": manuscript_payload(manuscript),
                "config": {"workers": 2},
            },
        )
        body = api.handle("GET", "/api/v1/trace").body
        roots = body["spans"]
        assert roots, "span forest should not be empty"
        api_roots = [s for s in roots if s["name"] == "api.request"]
        assert api_roots, "api.request must be a root span"
        request = api_roots[0]
        pipeline = [c for c in request["children"] if c["name"] == "pipeline.recommend"]
        assert pipeline, "pipeline span must parent under the API request"
        phases = {c["name"]: c for c in pipeline[0]["children"]}
        extract = phases["phase.extract_candidates"]
        fanouts = [c for c in extract["children"] if c["name"] == "executor.map"]
        assert fanouts, "fan-outs must parent under their phase"
        assert all(f["labels"]["backend"] == "thread" for f in fanouts)
        assert max(f["labels"]["tasks"] for f in fanouts) > 1
        assert all(f["labels"]["failures"] == 0 for f in fanouts)
        assert "executor.task" not in {s["name"] for s in _walk([request])}
        trace_ids = {s["trace_id"] for s in _walk([request])}
        assert trace_ids == {request["trace_id"]}

    def test_trace_id_filter(self, api, manuscript):
        api.handle("GET", "/api/v1/health")
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        all_roots = api.handle("GET", "/api/v1/trace").body["spans"]
        assert len({s["trace_id"] for s in all_roots}) >= 2
        wanted = all_roots[-1]["trace_id"]
        filtered = api.handle("GET", f"/api/v1/trace/{wanted}").body["spans"]
        assert filtered
        assert {s["trace_id"] for s in _walk(filtered)} == {wanted}

    def test_bad_trace_id_400(self, api):
        assert api.handle("GET", "/api/v1/trace/notanumber").status == 400

    def test_custom_trace_capacity_respected(self, world):
        from repro.scholarly.registry import ScholarlyHub

        hub = ScholarlyHub.deploy(world, trace_capacity=7)
        MinaretApi(hub)  # must not shrink or replace the existing ring
        assert hub.http.tracing_enabled
        assert hub.http.trace_capacity == 7


class TestSloEndpoint:
    def test_report_lists_default_host_slos(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        response = api.handle("GET", "/api/v1/slo")
        assert response.ok
        assert response.body["verdict"] in ("ok", "warn", "burning")
        names = {slo["name"] for slo in response.body["slos"]}
        assert "http-dblp.org" in names
        assert "http-scholar.google.com" in names
        for slo in response.body["slos"]:
            assert {"verdict", "good_ratio", "objective", "alerts"} <= set(slo)

    def test_custom_specs_override_defaults(self, hub):
        from repro.obs import SloSpec

        api = MinaretApi(
            hub,
            slos=[SloSpec(name="only-one", metric="http_request_latency_seconds")],
        )
        names = {slo["name"] for slo in api.handle("GET", "/api/v1/slo").body["slos"]}
        assert names == {"only-one"}

    def test_health_carries_slo_verdicts(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        body = api.handle("GET", "/api/v1/health").body
        assert body["status"] in ("ok", "warn", "burning")
        assert body["slos"]
        for slo in body["slos"].values():
            assert {"verdict", "good_ratio", "objective"} <= set(slo)

    def test_health_goes_burning_when_a_host_dies(self, world, manuscript):
        from repro.scholarly.registry import ScholarlyHub
        from repro.web.faults import FaultPolicy

        hub = ScholarlyHub.deploy(world)
        api = MinaretApi(hub)
        hub.http.set_fault_policy(
            "dblp.org", FaultPolicy(failure_probability=1.0, seed=3)
        )
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        assert response.status >= 500
        body = api.handle("GET", "/api/v1/health").body
        assert body["status"] == "burning"
        assert body["slos"]["http-dblp.org"]["verdict"] == "burning"


class TestProfileEndpoint:
    def test_flame_profiles_after_traffic(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        response = api.handle("GET", "/api/v1/profile")
        assert response.ok
        names = {profile["name"] for profile in response.body["profiles"]}
        assert "pipeline.recommend" in names
        assert any(name.startswith("phase.") for name in names)
        for profile in response.body["profiles"]:
            assert profile["wall_self"] <= profile["wall_total"] + 1e-9
        assert response.body["retention"]["enabled"] is False

    def test_retention_stats_reflect_policy(self, world, manuscript):
        from repro.obs import TailRetentionPolicy
        from repro.scholarly.registry import ScholarlyHub

        api = MinaretApi(
            ScholarlyHub.deploy(world),
            tail_retention=TailRetentionPolicy(latency_threshold=1e9),
        )
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        retention = api.handle("GET", "/api/v1/profile").body["retention"]
        assert retention["enabled"] is True
        assert retention["evicted_traces"] > 0


class TestPrometheusExposition:
    def test_format_prometheus_query(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        response = api.handle("GET", "/api/v1/metrics?format=prometheus")
        assert response.ok
        assert response.body["content_type"].startswith("text/plain")
        text = response.body["text"]
        assert "# TYPE http_requests_total counter" in text
        assert 'http_request_latency_seconds_bucket{host="dblp.org"' in text
        assert "le=\"+Inf\"" in text

    def test_default_format_unchanged(self, api):
        body = api.handle("GET", "/api/v1/metrics").body
        assert "metrics" in body and "text" not in body


class TestDebugCost:
    def test_cost_attached_on_request(self, api, manuscript):
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {
                "manuscript": manuscript_payload(manuscript),
                "debug_cost": True,
            },
        )
        assert response.ok
        cost = response.body["cost"]
        assert cost["requests"] > 0
        assert cost["http"]["dblp.org"]["requests"] > 0
        assert "phases" not in cost
        assert {p["phase"] for p in response.body["phases"]} >= {"rank"}
        assert cost["requests"] == sum(p["requests"] for p in response.body["phases"])

    def test_cost_absent_by_default(self, api, manuscript):
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript)},
        )
        assert response.ok
        assert "cost" not in response.body

    def test_cost_emitted_as_event(self, api, manuscript):
        api.handle(
            "POST",
            "/api/v1/recommend",
            {
                "manuscript": manuscript_payload(manuscript),
                "debug_cost": True,
            },
        )
        events = api.obs.ring.events("request_cost")
        assert events
        assert events[-1].fields["label"] == "POST /api/v1/recommend"

    @pytest.mark.parametrize("flag", ["false", "no", 0, 1, None])
    def test_non_boolean_flag_is_400(self, api, flag):
        response = api.handle(
            "POST", "/api/v1/expand", {"keywords": ["RDF"], "debug_cost": flag}
        )
        assert response.status == 400
        assert "debug_cost" in response.body["error"]
        assert "cost" not in response.body


def _ambiguous_name(world):
    return next(
        a.name for a in world.authors.values() if len(world.authors_by_name(a.name)) > 1
    )


def _with_author(payload, name):
    return {**payload, "authors": [{"name": name}]}


class TestIdentityErrors:
    def test_recommend_unknown_author_404(self, api, manuscript):
        body = _with_author(manuscript_payload(manuscript), "Nobody Nowhere")
        response = api.handle("POST", "/api/v1/recommend", {"manuscript": body})
        assert response.status == 404

    def test_recommend_ambiguous_author_409(self, api, world, manuscript):
        body = _with_author(manuscript_payload(manuscript), _ambiguous_name(world))
        response = api.handle("POST", "/api/v1/recommend", {"manuscript": body})
        assert response.status == 409

    def test_assign_unknown_author_404(self, api, manuscript):
        body = _with_author(manuscript_payload(manuscript), "Nobody Nowhere")
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {"manuscripts": [{"paper_id": "p0", "manuscript": body}]},
        )
        assert response.status == 404

    def test_assign_ambiguous_author_409(self, api, world, manuscript):
        body = _with_author(manuscript_payload(manuscript), _ambiguous_name(world))
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {"manuscripts": [{"paper_id": "p0", "manuscript": body}]},
        )
        assert response.status == 409

    def test_assign_skip_reports_failed_papers(self, api, manuscript):
        good = manuscript_payload(manuscript)
        bad = _with_author(good, "Nobody Nowhere")
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {
                "manuscripts": [
                    {"paper_id": "good", "manuscript": good},
                    {"paper_id": "bad", "manuscript": bad},
                ],
                "reviewers_per_paper": 1,
                "on_error": "skip",
            },
        )
        assert response.ok
        assert list(response.body["assignments"]) == ["good"]
        (failure,) = response.body["failures"]
        assert failure["paper_id"] == "bad"
        assert failure["error"] == "IdentityVerificationError"
        assert "Nobody Nowhere" in failure["message"]

    @pytest.mark.parametrize("entry", [{}, {"affiliation": "MIT"}, "Lei Zhou"])
    def test_verify_author_entry_without_name_400(self, api, entry):
        response = api.handle("POST", "/api/v1/verify-authors", {"authors": [entry]})
        assert response.status == 400

    def test_verify_authors_empty_list_400(self, api):
        response = api.handle("POST", "/api/v1/verify-authors", {"authors": []})
        assert response.status == 400


class TestWarmPlane:
    def _recommend(self, api, manuscript, **config):
        return api.handle(
            "POST",
            "/api/v1/recommend",
            {"manuscript": manuscript_payload(manuscript), "config": config},
        )

    def test_cold_requests_build_no_plane(self, api, manuscript):
        assert self._recommend(api, manuscript).ok
        assert api.plane is None

    def test_first_warm_request_builds_the_shared_plane(self, api, manuscript):
        assert self._recommend(api, manuscript, warm_cache=True).ok
        plane = api.plane
        assert plane is not None
        assert self._recommend(api, manuscript, warm_cache=True).ok
        assert api.plane is plane

    def test_repeat_warm_request_is_served_from_the_plane(self, api, hub, manuscript):
        self._recommend(api, manuscript, warm_cache=True)
        first = hub.total_requests()
        assert self._recommend(api, manuscript, warm_cache=True).ok
        second = hub.total_requests() - first
        assert second * 5 <= first
        assert api.plane.hits > 0

    def test_warm_answer_matches_cold_answer(self, api, manuscript):
        cold = self._recommend(api, manuscript).body["recommendations"]
        warm = self._recommend(api, manuscript, warm_cache=True).body["recommendations"]
        assert warm == cold

    def test_metrics_count_interest_lookups_in_the_store(self, api, manuscript):
        """Interest rankings are store layers: the ``retrieval`` object
        lists them, and the store's counters count their lookups."""
        for __ in range(2):
            assert self._recommend(api, manuscript, warm_cache=True).ok
        body = api.handle("GET", "/api/v1/metrics").body
        retrieval = body["retrieval"]
        assert "index_terms" not in retrieval
        for layer in ("scholar_interest", "publons_interest"):
            assert retrieval["layers"][layer]["hit"] > 0
        counters = body["metrics"]["counters"]
        store = {
            name: sum(
                series["value"]
                for series in counters[name]
                if series["labels"]["cache"] == "retrieval"
            )
            for name in ("cache_hits_total", "cache_misses_total")
        }
        assert store["cache_hits_total"] == retrieval["hits"]
        assert store["cache_misses_total"] == retrieval["misses"] + retrieval["coalesced"]

"""Tests for the command-line demo."""

import pytest

from repro.cli import main


class TestExpandCommand:
    def test_expand_rdf(self, capsys):
        assert main(["expand", "--keyword", "RDF"]) == 0
        output = capsys.readouterr().out
        assert "Semantic Web" in output
        assert "SPARQL" in output

    def test_expand_depth_zero(self, capsys):
        assert main(["expand", "--keyword", "RDF", "--max-depth", "0"]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 1

    def test_multiple_keywords(self, capsys):
        assert main(["expand", "--keyword", "RDF", "--keyword", "Big Data"]) == 0
        output = capsys.readouterr().out
        assert "Big Data" in output


class TestStatsCommand:
    def test_stats_table(self, capsys):
        assert main(["stats", "--authors", "60", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "journal" in lines[0]
        assert len(lines) > 10


class TestDemoCommand:
    def test_full_demo_runs(self, capsys):
        assert main(["demo", "--authors", "80", "--seed", "4", "--top", "5"]) == 0
        output = capsys.readouterr().out
        assert "identity verification" in output
        assert "keyword expansion" in output
        assert "Recommended reviewers" in output
        assert "extract_candidates" in output


def colliding_name(dataset):
    """A name several scholars of the world share: verification cannot decide."""
    from repro.world.io import load_world

    world = load_world(dataset)
    return next(
        a.name for a in world.authors.values() if len(world.authors_by_name(a.name)) > 1
    )


class TestGenerateAndRecommend:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        path = tmp_path / "world.json"
        assert main(["generate", "--authors", "60", "--seed", "9", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def manuscript_file(self, tmp_path, dataset):
        from repro.world.io import load_world

        world = load_world(dataset)
        author = next(
            a
            for a in world.authors.values()
            if len(world.authors_by_name(a.name)) == 1
        )
        topics = sorted(author.topic_expertise)[:2]
        path = tmp_path / "manuscript.json"
        import json

        path.write_text(
            json.dumps(
                {
                    "title": "CLI Test Paper",
                    "keywords": [world.ontology.topic(t).label for t in topics],
                    "authors": [
                        {
                            "name": author.name,
                            "affiliation": author.affiliations[-1].institution,
                        }
                    ],
                }
            )
        )
        return path

    def test_generate_writes_dataset(self, dataset):
        assert dataset.exists()
        assert dataset.stat().st_size > 1000

    def test_recommend_table_output(self, tmp_path, dataset, capsys):
        manuscript = self.manuscript_file(tmp_path, dataset)
        code = main(
            ["recommend", "--world", str(dataset), "--manuscript", str(manuscript)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Recommended reviewers" in output
        assert "total=" in output

    def test_recommend_json_output(self, tmp_path, dataset, capsys):
        import json

        manuscript = self.manuscript_file(tmp_path, dataset)
        code = main(
            [
                "recommend",
                "--world", str(dataset),
                "--manuscript", str(manuscript),
                "--json",
                "--top", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["recommendations"]) <= 3
        assert payload["phases"]

    def test_recommend_missing_world_errors(self, tmp_path, capsys):
        manuscript = tmp_path / "m.json"
        manuscript.write_text("{}")
        code = main(
            ["recommend", "--world", "/nonexistent.json", "--manuscript", str(manuscript)]
        )
        assert code == 1
        assert "cannot load world" in capsys.readouterr().err

    def test_recommend_bad_manuscript_errors(self, tmp_path, dataset, capsys):
        manuscript = tmp_path / "bad.json"
        manuscript.write_text('{"title": "no keywords"}')
        code = main(
            ["recommend", "--world", str(dataset), "--manuscript", str(manuscript)]
        )
        assert code == 1
        assert "cannot load manuscript" in capsys.readouterr().err

    def test_recommend_typed_pipeline_error(self, tmp_path, dataset, capsys):
        """An ambiguous author is reported as ``error: ...``, not a traceback."""
        import json

        manuscript = tmp_path / "ambiguous.json"
        manuscript.write_text(
            json.dumps(
                {
                    "title": "t",
                    "keywords": ["RDF"],
                    "authors": [{"name": colliding_name(dataset)}],
                }
            )
        )
        code = main(
            ["recommend", "--world", str(dataset), "--manuscript", str(manuscript)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "manual disambiguation required" in err


class TestAssignCommand:
    def batch_file(self, tmp_path, dataset):
        import json

        from repro.world.io import load_world

        world = load_world(dataset)
        entries = []
        for author in world.authors.values():
            if len(entries) >= 2:
                break
            if len(world.authors_by_name(author.name)) > 1:
                continue
            topics = sorted(author.topic_expertise)[:2]
            entries.append(
                {
                    "paper_id": f"paper-{len(entries)}",
                    "manuscript": {
                        "title": "Batch Paper",
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
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(entries))
        return path

    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        path = tmp_path / "world.json"
        assert main(["generate", "--authors", "60", "--seed", "9", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_assign_runs(self, tmp_path, dataset, capsys):
        batch = self.batch_file(tmp_path, dataset)
        code = main(
            [
                "assign",
                "--world", str(dataset),
                "--batch", str(batch),
                "--reviewers-per-paper", "2",
                "--solver", "optimal",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Assignment (optimal)" in output
        assert "paper-0:" in output
        assert "paper-1:" in output

    def test_assign_bad_batch_errors(self, tmp_path, dataset, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"paper_id": "p"}]')
        code = main(["assign", "--world", str(dataset), "--batch", str(bad)])
        assert code == 1
        assert "cannot load inputs" in capsys.readouterr().err

    def test_conference_mode_reports_planted_quality(self, dataset, capsys):
        code = main(
            [
                "assign",
                "--world", str(dataset),
                "--conference", "4",
                "--capacity", "2",
                "--reviewers-per-paper", "2",
                "--solver", "greedy-swap",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Conference assignment (greedy-swap)" in output
        assert "planted-recall=" in output
        assert "precision@set=" in output
        assert "load-spread=" in output
        assert "paper-000:" in output

    def test_conference_and_batch_are_exclusive(
        self, tmp_path, dataset, capsys
    ):
        batch = self.batch_file(tmp_path, dataset)
        code = main(
            [
                "assign",
                "--world", str(dataset),
                "--batch", str(batch),
                "--conference", "4",
            ]
        )
        assert code == 1
        assert "exactly one of" in capsys.readouterr().err
        code = main(["assign", "--world", str(dataset)])
        assert code == 1
        assert "exactly one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "value", "field"),
        [
            ("--balance", "inf", "balance_weight"),
            ("--balance", "-1", "balance_weight"),
            ("--coverage", "nan", "coverage_weight"),
        ],
    )
    def test_bad_objective_weight_errors(
        self, tmp_path, dataset, capsys, flag, value, field
    ):
        batch = self.batch_file(tmp_path, dataset)
        code = main(
            ["assign", "--world", str(dataset), "--batch", str(batch), flag, value]
        )
        assert code == 1
        assert f"error: {flag}: {field}" in capsys.readouterr().err

    def ambiguous_batch_file(self, tmp_path, dataset):
        """``paper-0`` by a unique author, ``paper-1`` by a colliding name."""
        import json

        entries = json.loads(self.batch_file(tmp_path, dataset).read_text())
        entries[1]["manuscript"]["authors"] = [{"name": colliding_name(dataset)}]
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(entries))
        return path

    def test_on_error_skip_reports_failed_paper(self, tmp_path, dataset, capsys):
        batch = self.ambiguous_batch_file(tmp_path, dataset)
        code = main(
            [
                "assign",
                "--world", str(dataset),
                "--batch", str(batch),
                "--on-error", "skip",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "  FAILED paper-1: AmbiguousIdentityError: " in output
        assert "  paper-0: " in output
        assert "  paper-1: " not in output

    def test_typed_pipeline_error_is_reported(self, tmp_path, dataset, capsys):
        batch = self.ambiguous_batch_file(tmp_path, dataset)
        code = main(["assign", "--world", str(dataset), "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert "manual disambiguation required" in captured.err
        assert "Assignment" not in captured.out

    @pytest.mark.parametrize(
        ("flag", "field"),
        [
            ("--reviewers-per-paper", "reviewers_per_paper"),
            ("--max-load", "capacity"),
            ("--capacity", "capacity"),
        ],
    )
    def test_size_below_one_errors_before_any_request(
        self, tmp_path, dataset, capsys, flag, field
    ):
        """The sizes are checked before the world is loaded, and the error
        names the flag; ``--capacity`` is named as ``--max-load``, the
        flag it aliases."""
        import json

        batch = self.batch_file(tmp_path, dataset)
        code = main(
            [
                "assign",
                "--world", str(dataset),
                "--batch", str(batch),
                flag, "0",
                "--metrics",
            ]
        )
        summary, error = capsys.readouterr().err.rstrip("\n").rsplit("\n", 1)
        named = "--max-load" if flag == "--capacity" else flag
        assert code == 1
        assert error == f"error: {named}: {field} must be >= 1, got 0"
        assert "http_requests_total" not in json.loads(summary)["counters"]

    def test_duplicate_paper_id_errors_before_deploy(
        self, tmp_path, dataset, capsys, monkeypatch
    ):
        """The loaded entries are checked before a hub is deployed, so a
        duplicate id costs no request."""
        import json

        entries = json.loads(self.batch_file(tmp_path, dataset).read_text())
        entries[1]["paper_id"] = entries[0]["paper_id"]
        batch = tmp_path / "duplicate.json"
        batch.write_text(json.dumps(entries))

        def refuse(*args, **kwargs):
            raise AssertionError("a hub was deployed before the inputs were checked")

        monkeypatch.setattr("repro.scholarly.registry.ScholarlyHub.deploy", refuse)
        code = main(["assign", "--world", str(dataset), "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: duplicate paper id 'paper-0'\n"
        assert captured.out == ""

    def test_value_error_inside_a_run_is_not_an_input_error(
        self, tmp_path, dataset, capsys, monkeypatch
    ):
        """Only typed pipeline errors print ``error: ...``; a ``ValueError``
        from inside a run is a fault of the program and propagates."""
        batch = self.batch_file(tmp_path, dataset)

        def broken(self, manuscript):
            raise ValueError("broken run")

        monkeypatch.setattr("repro.core.pipeline.Minaret.recommend", broken)
        with pytest.raises(ValueError, match="broken run"):
            main(["assign", "--world", str(dataset), "--batch", str(batch)])
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("paper_id", ["null", "5", '""'])
    def test_bad_paper_id_errors(self, tmp_path, dataset, capsys, paper_id):
        """A paper id is a non-empty JSON string, never ``str()``-coerced."""
        batch = tmp_path / "bad_id.json"
        batch.write_text(f'[{{"paper_id": {paper_id}, "manuscript": {{}}}}]')
        code = main(["assign", "--world", str(dataset), "--batch", str(batch)])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot load inputs: manuscripts[0].paper_id" in err

    def test_capacity_is_max_load_alias(self, tmp_path, dataset, capsys):
        batch = self.batch_file(tmp_path, dataset)
        base = [
            "assign",
            "--world", str(dataset),
            "--batch", str(batch),
            "--reviewers-per-paper", "2",
            "--solver", "flow",
        ]
        assert main(base + ["--max-load", "1"]) == 0
        via_max_load = capsys.readouterr().out
        assert main(base + ["--capacity", "1"]) == 0
        via_capacity = capsys.readouterr().out
        assert via_capacity == via_max_load


class TestNoCommand:
    def test_prints_help(self, capsys):
        assert main([]) == 2
        assert "minaret" in capsys.readouterr().out


class TestObservabilityFlags:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        path = tmp_path / "world.json"
        assert main(["generate", "--authors", "60", "--seed", "9", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_log_json_writes_valid_event_lines(self, tmp_path, capsys):
        import json

        log = tmp_path / "events.jsonl"
        # authors=120/seed=5 deterministically trips the Scholar fault
        # policy, so the log must contain fault-injection events too.
        assert (
            main(["demo", "--authors", "120", "--seed", "5", "--log-json", str(log)])
            == 0
        )
        capsys.readouterr()
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events
        for event in events:
            assert "event" in event
            assert "wall_time" in event
        names = {event["event"] for event in events}
        assert "span_end" in names
        assert "fault_injected" in names
        span_names = {e["span"] for e in events if e["event"] == "span_end"}
        assert "pipeline.recommend" in span_names
        assert "executor.map" in span_names
        assert "executor.task" not in span_names

    def test_metrics_summary_on_stderr(self, capsys):
        import json

        assert main(["demo", "--authors", "60", "--seed", "9", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "Recommended reviewers" in captured.out
        summary = json.loads(captured.err)
        assert summary["spans"] > 0
        assert "http_requests_total" in summary["counters"]
        assert "http_request_latency_seconds" in summary["histograms"]

    def test_recommend_log_json_keeps_stdout_clean(self, tmp_path, dataset, capsys):
        import json

        from repro.world.io import load_world

        world = load_world(dataset)
        author = next(
            a
            for a in world.authors.values()
            if len(world.authors_by_name(a.name)) == 1
        )
        topics = sorted(author.topic_expertise)[:2]
        manuscript = tmp_path / "manuscript.json"
        manuscript.write_text(
            json.dumps(
                {
                    "title": "Telemetry Test Paper",
                    "keywords": [world.ontology.topic(t).label for t in topics],
                    "authors": [
                        {
                            "name": author.name,
                            "affiliation": author.affiliations[-1].institution,
                        }
                    ],
                }
            )
        )
        log = tmp_path / "events.jsonl"
        code = main(
            [
                "recommend",
                "--world", str(dataset),
                "--manuscript", str(manuscript),
                "--json",
                "--log-json", str(log),
                "--metrics",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is still pure JSON
        assert payload["recommendations"]
        summary = json.loads(captured.err)
        assert summary["events"] > 0
        assert all(json.loads(line) for line in log.read_text().splitlines())


class TestSloCommand:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        path = tmp_path / "world.json"
        assert main(["generate", "--authors", "60", "--seed", "9", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_healthy_report_table(self, dataset, capsys):
        assert main(["slo", "report", "--world", str(dataset), "--papers", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "http-dblp.org" in out
        assert "http-scholar.google.com" in out

    def test_degrade_drives_burning_json(self, dataset, capsys):
        import json

        assert (
            main(
                [
                    "slo",
                    "report",
                    "--world",
                    str(dataset),
                    "--papers",
                    "4",
                    "--degrade",
                    "scholar.google.com",
                    "--failure-rate",
                    "0.6",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        by_name = {slo["name"]: slo for slo in report["slos"]}
        scholar = by_name["http-scholar.google.com"]
        assert scholar["verdict"] == "burning"
        assert any(alert["firing"] for alert in scholar["alerts"])
        assert report["verdict"] == "burning"
        assert by_name["http-dblp.org"]["verdict"] == "ok"

    def test_unknown_degrade_host_errors(self, dataset, capsys):
        assert (
            main(
                [
                    "slo",
                    "report",
                    "--world",
                    str(dataset),
                    "--degrade",
                    "no-such.example",
                ]
            )
            == 1
        )
        assert "no-such.example" in capsys.readouterr().err


class TestProfileCommand:
    def test_flame_table_from_demo_log(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert (
            main(["demo", "--authors", "60", "--seed", "9", "--log-json", str(log)])
            == 0
        )
        capsys.readouterr()
        assert main(["profile", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("span")
        assert any("pipeline.recommend" in line for line in lines)
        assert any("executor.map" in line for line in lines)

    def test_top_and_json(self, tmp_path, capsys):
        import json

        log = tmp_path / "events.jsonl"
        assert (
            main(["demo", "--authors", "60", "--seed", "9", "--log-json", str(log)])
            == 0
        )
        capsys.readouterr()
        assert main(["profile", "--log", str(log), "--top", "3", "--json"]) == 0
        profiles = json.loads(capsys.readouterr().out)
        assert len(profiles) == 3
        assert {"name", "calls", "virtual_self", "wall_self"} <= set(profiles[0])

    def test_log_without_spans_errors(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text('{"event": "metric", "wall_time": 0.0}\n')
        assert main(["profile", "--log", str(log)]) == 1
        assert "span" in capsys.readouterr().err


class TestMetricsParity:
    def test_cli_metrics_matches_api_payload_keys(self, capsys):
        """--metrics must expose every section the API metrics payload has."""
        import json

        assert (
            main(
                [
                    "demo",
                    "--authors",
                    "60",
                    "--seed",
                    "9",
                    "--metrics",
                    "--warm-cache",
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().err)
        # Same sections as GET /api/v1/metrics: registry snapshot parts
        # plus the deployment's http/cache/retrieval/features stats.
        assert {"counters", "gauges", "histograms", "http",
                "cache", "retrieval", "features"} <= set(summary)
        assert summary["http"]["dblp.org"]["requests"] > 0
        # The demo deploys at TTL 0, which builds no crawler cache.
        assert summary["cache"] is None
        assert summary["retrieval"]["store_entries"] >= 0
        assert summary["features"]["features_built"] > 0


class TestServeBenchCommand:
    ARGS = [
        "serve-bench",
        "--authors", "60",
        "--seed", "9",
        "--requests", "40",
        "--rate", "4",
        "--burst", "5:5:4",
        "--load-seed", "13",
    ]

    def test_table_report(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "serve-bench: 40 offered" in output
        assert "served latency" in output
        assert "serving SLO" in output
        assert "tenant chairs" in output

    def test_json_report_is_deterministic(self, capsys):
        import json

        reports = []
        for _ in range(2):
            assert main([*self.ARGS, "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        for report in reports:
            report.pop("slo", None)
        assert reports[0] == reports[1]
        assert reports[0]["offered"] == 40
        assert reports[0]["served"] + sum(reports[0]["shed"].values()) + reports[0][
            "degraded"
        ] == 40

    def test_out_writes_json_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "traffic.json"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["offered"] == 40
        assert {"p50", "p95", "p99"} <= set(payload["latency"])

    def test_bad_burst_spec_errors(self, capsys):
        assert main(["serve-bench", "--burst", "nope"]) == 1
        assert capsys.readouterr().err.startswith("error: --burst: ")

    @pytest.mark.parametrize(
        ("flag", "spec"),
        [("--burst", "1:2"), ("--burst", "1:2:3:4"), ("--tenant", "chairs"), ("--tenant", "a:many")],
    )
    def test_malformed_spec_names_its_flag(self, capsys, flag, spec):
        assert main(["serve-bench", flag, spec]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestScaleBenchCommand:
    ARGS = [
        "scale-bench",
        "--pool-size",
        "300",
        "--pool-size",
        "900",
        "--queries",
        "2",
    ]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "scale-bench: k=10" in output
        assert "300" in output and "900" in output
        assert "interning" in output
        assert "scaling:" in output

    def test_json_report_verifies_brute_force(self, capsys):
        import json

        assert main([*self.ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [entry["authors"] for entry in report["sizes"]] == [300, 900]
        # Both sizes are under the verification cap: the plane's top-k
        # must have matched the brute-force reference at each.
        assert all(
            entry["topk_matches_brute_force"] is True for entry in report["sizes"]
        )
        assert report["interning"]["saved_bytes"] > 0
        # The per-phase walls are measured spans and split the query wall.
        for entry in report["sizes"]:
            phases = entry["mean_phase_wall_seconds"]
            assert list(phases) == ["scale.retrieve", "scale.coi", "scale.score", "rest"]
            assert all(seconds >= 0 for seconds in phases.values())
            assert sum(phases.values()) == pytest.approx(
                entry["mean_wall_seconds"], abs=1e-4
            )
        assert report["scaling"]["query_wall_ratio"] > 0

    def test_out_writes_json_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "scale.json"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["name"] == "EXP-SCALE"
        assert [entry["authors"] for entry in payload["sizes"]] == [300, 900]


#: One out-of-range value per numeric flag, with the error line it gets.  A
#: flag that feeds an object is refused by that object's own check, and the
#: line names the flag before the object's message.
OUT_OF_RANGE = [
    (["demo", "--authors", "0"], "--authors: author_count must be >= 1, got 0"),
    (["demo", "--top", "0"], "--top must be >= 1, got 0"),
    (
        ["expand", "--keyword", "RDF", "--max-depth", "-1"],
        "--max-depth: max_depth must be >= 0, got -1",
    ),
    (
        ["expand", "--keyword", "RDF", "--min-score", "2"],
        "--min-score: min_score must be in [0, 1], got 2.0",
    ),
    (
        ["expand", "--keyword", "RDF", "--min-score", "-0.5"],
        "--min-score: min_score must be in [0, 1], got -0.5",
    ),
    (
        ["expand", "--keyword", "RDF", "--min-score", "nan"],
        "--min-score: min_score must be in [0, 1], got nan",
    ),
    (["stats", "--authors", "0"], "--authors: author_count must be >= 1, got 0"),
    (
        ["generate", "--out", "w.json", "--authors", "0"],
        "--authors: author_count must be >= 1, got 0",
    ),
    (
        ["recommend", "--world", "w.json", "--manuscript", "m.json", "--top", "-1"],
        "--top must be >= 1, got -1",
    ),
    (
        ["recommend", "--world", "w.json", "--manuscript", "m.json", "--workers", "0"],
        "--workers: workers must be >= 1, got 0",
    ),
    (
        ["recommend", "--world", "w.json", "--manuscript", "m.json", "--top-k", "0"],
        "--top-k: top_k must be >= 1 or None, got 0",
    ),
    (
        ["assign", "--world", "w.json", "--batch", "b.json", "--workers", "0"],
        "--workers: workers must be >= 1, got 0",
    ),
    (
        ["assign", "--world", "w.json", "--batch", "b.json", "--workers", "-1"],
        "--workers: workers must be >= 1, got -1",
    ),
    (
        ["assign", "--world", "w.json", "--batch", "b.json", "--top-k", "0"],
        "--top-k: top_k must be >= 1 or None, got 0",
    ),
    (
        ["assign", "--world", "w.json", "--conference", "0"],
        "--conference: paper_count must be >= 1, got 0",
    ),
    (
        ["assign", "--world", "w.json", "--batch", "b.json", "--reviewers-per-paper", "0"],
        "--reviewers-per-paper: reviewers_per_paper must be >= 1, got 0",
    ),
    (
        ["assign", "--world", "w.json", "--batch", "b.json", "--max-load", "0"],
        "--max-load: capacity must be >= 1, got 0",
    ),
    (
        ["assign", "--world", "w.json", "--batch", "b.json", "--capacity", "0"],
        "--max-load: capacity must be >= 1, got 0",
    ),
    (["slo", "--world", "w.json", "--papers", "0"], "--papers must be >= 1, got 0"),
    (
        ["slo", "--world", "w.json", "--objective", "2"],
        "--objective: objective must be in (0, 1), got 2.0",
    ),
    (
        ["slo", "--world", "w.json", "--objective", "1"],
        "--objective: objective must be in (0, 1), got 1.0",
    ),
    (
        ["slo", "--world", "w.json", "--objective", "0"],
        "--objective: objective must be in (0, 1), got 0.0",
    ),
    (
        ["slo", "--world", "w.json", "--objective", "nan"],
        "--objective: objective must be in (0, 1), got nan",
    ),
    (["slo", "--world", "w.json", "--window", "0"], "--window: window must be > 0, got 0.0"),
    (["slo", "--world", "w.json", "--window", "nan"], "--window: window must be > 0, got nan"),
    (
        ["slo", "--world", "w.json", "--failure-rate", "2"],
        "--failure-rate: failure_probability must be in [0, 1], got 2.0",
    ),
    (
        ["slo", "--world", "w.json", "--failure-rate", "-0.5"],
        "--failure-rate: failure_probability must be in [0, 1], got -0.5",
    ),
    (
        ["slo", "--world", "w.json", "--failure-rate", "nan"],
        "--failure-rate: failure_probability must be in [0, 1], got nan",
    ),
    (["profile", "--log", "e.jsonl", "--top", "-1"], "--top must be >= 1, got -1"),
    (["profile", "--log", "e.jsonl", "--top", "0"], "--top must be >= 1, got 0"),
    (["serve-bench", "--authors", "0"], "--authors: author_count must be >= 1, got 0"),
    (["serve-bench", "--requests", "0"], "--requests must be >= 1, got 0"),
    (["serve-bench", "--rate", "0"], "--rate: rate must be > 0, got 0.0"),
    (["serve-bench", "--rate", "nan"], "--rate: rate must be > 0, got nan"),
    (["serve-bench", "--workers", "0"], "--workers must be >= 1, got 0"),
    (
        ["serve-bench", "--queue-capacity", "0"],
        "--queue-capacity: queue_capacity must be >= 1, got 0",
    ),
    (
        ["serve-bench", "--bucket-capacity", "0"],
        "--bucket-capacity: capacity must be > 0, got 0.0",
    ),
    (
        ["serve-bench", "--bucket-capacity", "nan"],
        "--bucket-capacity: capacity must be > 0, got nan",
    ),
    (["serve-bench", "--refill-rate", "-1"], "--refill-rate: refill_rate must be > 0, got -1.0"),
    (["serve-bench", "--refill-rate", "0"], "--refill-rate: refill_rate must be > 0, got 0.0"),
    (["serve-bench", "--refill-rate", "nan"], "--refill-rate: refill_rate must be > 0, got nan"),
    (["serve-bench", "--burst", "2:3:nan"], "--burst: multiplier must be > 0, got nan"),
    (["serve-bench", "--tenant", "chairs:nan"], "--tenant: weight must be > 0, got nan"),
    (["serve-bench", "--tenant", ":1"], "--tenant: name must be a non-empty string, got ''"),
    (
        ["scale-bench", "--pool-size", "300", "--pool-size", "0"],
        "--pool-size must be >= 1, got 0",
    ),
    (["scale-bench", "--pool-size", "300", "--queries", "0"], "--queries must be >= 1, got 0"),
    (["scale-bench", "--pool-size", "300", "--top", "0"], "--top must be >= 1, got 0"),
    (
        ["scale-bench", "--pool-size", "300", "--pool-limit", "-1"],
        "--pool-limit must be >= 0, got -1",
    ),
]

#: Each command with only its required flags, so every numeric flag is
#: at its default (or ``None``, where it has none).
DEFAULTS = [
    ["demo"],
    ["expand", "--keyword", "RDF"],
    ["stats"],
    ["generate", "--out", "w.json"],
    ["recommend", "--world", "w.json", "--manuscript", "m.json"],
    ["assign", "--world", "w.json", "--batch", "b.json"],
    ["slo", "--world", "w.json"],
    ["profile", "--log", "e.jsonl"],
    ["serve-bench"],
    ["scale-bench"],
]

#: Closed range ends a user means: ``--min-score`` and ``--failure-rate``
#: take both ends of [0, 1], and ``--pool-limit 0`` is the documented way
#: to turn the pool cap off.
IN_RANGE_EDGES = [
    ["expand", "--keyword", "RDF", "--min-score", "0"],
    ["expand", "--keyword", "RDF", "--min-score", "1"],
    ["slo", "--world", "w.json", "--failure-rate", "0"],
    ["slo", "--world", "w.json", "--failure-rate", "1"],
    ["scale-bench", "--pool-size", "300", "--pool-limit", "0"],
]


class WorldBuilt(AssertionError):
    """A command reached the step where it builds, loads or streams a world."""


def run_to_world(argv) -> int | None:
    """``main(argv)``, or ``None`` once it reaches its world (see ``no_world``)."""
    try:
        return main(argv)
    except WorldBuilt:
        return None


class TestFlagRanges:
    @pytest.fixture()
    def no_world(self, monkeypatch):
        """Stop the command where it would build, load, deploy or stream a world."""

        def refuse(*args, **kwargs):
            raise WorldBuilt("a world was built before the flags were checked")

        monkeypatch.setattr("repro.cli.generate_world", refuse)
        monkeypatch.setattr("repro.world.io.load_world", refuse)
        monkeypatch.setattr("repro.scholarly.registry.ScholarlyHub.deploy", refuse)
        monkeypatch.setattr("repro.scale.bench.run_scale_bench", refuse)

    @pytest.mark.parametrize("argv", DEFAULTS, ids=[argv[0] for argv in DEFAULTS])
    def test_defaults_are_in_range(self, no_world, capsys, argv):
        """Every default passes the check of the object it feeds, or of the
        table: the command gets to its world, or runs on where it builds
        none (``profile`` then fails to read its made-up log)."""
        run_to_world(argv)
        assert "error: --" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        IN_RANGE_EDGES,
        ids=[f"{argv[0]}{argv[-2]}={argv[-1]}" for argv in IN_RANGE_EDGES],
    )
    def test_closed_range_edge_is_accepted(self, no_world, capsys, argv):
        assert run_to_world(argv) in (0, None)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        ("argv", "message"),
        OUT_OF_RANGE,
        ids=[f"{argv[0]}{argv[-2]}={argv[-1]}" for argv, __ in OUT_OF_RANGE],
    )
    def test_out_of_range_flag_errors_before_any_world(
        self, no_world, capsys, argv, message
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

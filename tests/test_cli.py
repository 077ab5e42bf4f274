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
        assert f"error: {field}" in capsys.readouterr().err

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
        error, summary = capsys.readouterr().err.split("\n", 1)
        assert code == 1
        assert error == f"error: {field} must be >= 1, got 0"
        assert "http_requests_total" not in json.loads(summary)["counters"]

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
        assert "executor.task" in span_names

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
        assert any("executor.task" in line for line in lines)

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
        assert summary["cache"]["name"] == "crawler"
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
        assert "bad --burst" in capsys.readouterr().err


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

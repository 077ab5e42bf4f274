"""Tests for the deterministic open-loop load generator."""

import pytest

from repro.serving import (
    Burst,
    LoadGenerator,
    RequestTemplate,
    TenantLoad,
    manuscript_templates,
)

HEALTH = RequestTemplate("GET", "/api/v1/health")
NAN = float("nan")


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        gen = LoadGenerator((HEALTH,), rate=50.0, seed=3)
        assert gen.arrivals(count=100) == gen.arrivals(count=100)
        assert gen.arrivals(count=100) == LoadGenerator(
            (HEALTH,), rate=50.0, seed=3
        ).arrivals(count=100)

    def test_different_seed_different_schedule(self):
        a = LoadGenerator((HEALTH,), rate=50.0, seed=3).arrivals(count=100)
        b = LoadGenerator((HEALTH,), rate=50.0, seed=4).arrivals(count=100)
        assert a != b

    def test_arrivals_are_time_ordered(self):
        arrivals = LoadGenerator((HEALTH,), rate=20.0, seed=9).arrivals(count=200)
        assert all(a.at <= b.at for a, b in zip(arrivals, arrivals[1:]))
        assert all(a.at >= 0 for a in arrivals)


class TestModes:
    def test_count_mode_returns_exactly_count(self):
        assert len(LoadGenerator((HEALTH,), seed=1).arrivals(count=37)) == 37

    def test_zero_count_returns_nothing(self):
        assert LoadGenerator((HEALTH,), seed=1).arrivals(count=0) == []

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"count must be >= 0, got {count}"):
            LoadGenerator((HEALTH,), seed=1).arrivals(count=count)

    def test_duration_mode_bounds_times(self):
        arrivals = LoadGenerator((HEALTH,), rate=30.0, seed=1).arrivals(
            duration=5.0
        )
        assert arrivals
        assert all(a.at < 5.0 for a in arrivals)

    def test_exactly_one_mode_required(self):
        gen = LoadGenerator((HEALTH,), seed=1)
        with pytest.raises(ValueError):
            gen.arrivals()
        with pytest.raises(ValueError):
            gen.arrivals(count=5, duration=5.0)


class TestBursts:
    def test_rate_at_applies_multiplier(self):
        gen = LoadGenerator(
            (HEALTH,), rate=10.0, seed=1, bursts=(Burst(5.0, 2.0, 3.0),)
        )
        assert gen.rate_at(4.9) == 10.0
        assert gen.rate_at(5.0) == 30.0
        assert gen.rate_at(6.9) == 30.0
        assert gen.rate_at(7.0) == 10.0

    def test_overlapping_bursts_compound(self):
        gen = LoadGenerator(
            (HEALTH,),
            rate=10.0,
            seed=1,
            bursts=(Burst(0.0, 10.0, 2.0), Burst(5.0, 2.0, 3.0)),
        )
        assert gen.rate_at(6.0) == 60.0

    def test_burst_window_is_denser(self):
        gen = LoadGenerator(
            (HEALTH,), rate=10.0, seed=11, bursts=(Burst(10.0, 10.0, 5.0),)
        )
        arrivals = gen.arrivals(duration=30.0)
        before = sum(1 for a in arrivals if a.at < 10.0)
        during = sum(1 for a in arrivals if 10.0 <= a.at < 20.0)
        assert during > 2 * before

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            Burst(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            Burst(0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            Burst(0.0, 1.0, 0.0)
        for spec in ((NAN, 1.0, 2.0), (0.0, NAN, 2.0), (0.0, 1.0, NAN)):
            with pytest.raises(ValueError):
                Burst(*spec)


class TestMixes:
    def test_tenant_mix_respects_weights(self):
        gen = LoadGenerator(
            (HEALTH,),
            tenants=(TenantLoad("heavy", 9.0), TenantLoad("light", 1.0)),
            rate=50.0,
            seed=2,
        )
        arrivals = gen.arrivals(count=500)
        heavy = sum(1 for a in arrivals if a.tenant == "heavy")
        light = len(arrivals) - heavy
        assert heavy > 5 * light
        assert light > 0

    def test_template_mix_draws_all_templates(self):
        routes = RequestTemplate("GET", "/api/v1/routes")
        gen = LoadGenerator((HEALTH, routes), rate=50.0, seed=2)
        paths = {a.path for a in gen.arrivals(count=200)}
        assert paths == {"/api/v1/health", "/api/v1/routes"}

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadGenerator(())
        with pytest.raises(ValueError):
            LoadGenerator((HEALTH,), tenants=())
        with pytest.raises(ValueError):
            LoadGenerator((HEALTH,), rate=0.0)
        with pytest.raises(ValueError):
            LoadGenerator((HEALTH,), rate=NAN)
        with pytest.raises(ValueError):
            RequestTemplate("GET", "/x", weight=0.0)
        with pytest.raises(ValueError):
            RequestTemplate("GET", "/x", weight=NAN)
        with pytest.raises(ValueError):
            TenantLoad("t", weight=-1.0)
        with pytest.raises(ValueError):
            TenantLoad("t", weight=NAN)

    @pytest.mark.parametrize("name", ["", "  "], ids=["empty", "blank"])
    def test_blank_tenant_name_rejected(self, name):
        with pytest.raises(ValueError, match="name must be a non-empty string"):
            TenantLoad(name)


class TestManuscriptTemplates:
    def test_builds_recommend_templates(self, world):
        templates = manuscript_templates(world, count=3)
        assert len(templates) == 3
        for template in templates:
            assert template.method == "POST"
            assert template.path == "/api/v1/recommend"
            manuscript = template.body["manuscript"]
            assert manuscript["keywords"]
            assert manuscript["authors"][0]["name"]

    def test_templates_resolve_against_the_api(self, world, shared_hub):
        from repro.api.handlers import MinaretApi

        api = MinaretApi(shared_hub)
        template = manuscript_templates(world, count=1)[0]
        response = api.handle(template.method, template.path, template.body)
        assert response.ok
        assert "recommendations" in response.body

    def test_impossible_requirements_raise(self, world):
        with pytest.raises(ValueError):
            manuscript_templates(world, keyword_count=10_000)

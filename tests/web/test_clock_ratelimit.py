"""Unit tests for the virtual clock and token bucket."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.clock import SimulatedClock
from repro.web.ratelimit import TokenBucket


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_custom_start(self):
        assert SimulatedClock(start=5.0).now() == 5.0

    @pytest.mark.parametrize("start", [-1.0, float("nan"), float("inf")])
    def test_negative_start_rejected(self, start):
        with pytest.raises(ValueError):
            SimulatedClock(start=start)

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    @pytest.mark.parametrize("seconds", [-0.1, float("nan"), float("inf")])
    def test_negative_advance_rejected(self, seconds):
        clock = SimulatedClock(start=2.0)
        with pytest.raises(ValueError):
            clock.advance(seconds)
        assert clock.now() == 2.0

    def test_sleep_is_advance(self):
        clock = SimulatedClock()
        clock.sleep(3.0)
        assert clock.now() == 3.0


class TestTokenBucket:
    @pytest.fixture()
    def clock(self):
        return SimulatedClock()

    def test_burst_up_to_capacity(self, clock):
        bucket = TokenBucket(capacity=2, refill_rate=1.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_over_time(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=2.0, clock=clock)
        bucket.try_acquire()
        clock.advance(0.5)  # 1 token refilled at 2/s
        assert bucket.try_acquire()

    def test_never_exceeds_capacity(self, clock):
        bucket = TokenBucket(capacity=2, refill_rate=10.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(2.0)

    def test_time_until_available(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=0.5, clock=clock)
        bucket.try_acquire()
        assert bucket.time_until_available() == pytest.approx(2.0)

    def test_time_until_available_zero_when_ready(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        assert bucket.time_until_available() == 0.0

    def test_requesting_over_capacity_rejected(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        with pytest.raises(ValueError):
            bucket.time_until_available(5.0)

    def test_try_acquire_over_capacity_rejected(self, clock):
        # Regression: try_acquire(tokens > capacity) used to return
        # False forever while time_until_available raised — the two
        # entry points must validate identically.
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        with pytest.raises(ValueError):
            bucket.try_acquire(5.0)

    def test_validation_is_consistent_across_entry_points(self, clock):
        bucket = TokenBucket(capacity=3, refill_rate=1.0, clock=clock)
        for tokens in (-1.0, 0.0, 3.5, 100.0):
            acquire_raises = wait_raises = False
            try:
                bucket.try_acquire(tokens)
            except ValueError:
                acquire_raises = True
            try:
                bucket.time_until_available(tokens)
            except ValueError:
                wait_raises = True
            assert acquire_raises == wait_raises == (tokens <= 0 or tokens > 3)

    def test_invalid_parameters_rejected(self, clock):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_rate=1.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_rate=0.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(capacity=float("nan"), refill_rate=1.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_rate=float("nan"), clock=clock)

    def test_invalid_acquire_rejected(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        with pytest.raises(ValueError):
            bucket.try_acquire(0)

    def test_fractional_tokens(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        assert bucket.try_acquire(0.5)
        assert bucket.try_acquire(0.5)
        assert not bucket.try_acquire(0.5)

    def test_refund_restores_budget(self, clock):
        bucket = TokenBucket(capacity=2, refill_rate=0.001, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        bucket.refund()
        assert bucket.try_acquire()

    def test_refund_capped_at_capacity(self, clock):
        bucket = TokenBucket(capacity=2, refill_rate=1.0, clock=clock)
        bucket.refund(1.5)
        assert bucket.available() == pytest.approx(2.0)

    def test_refund_validates_like_acquire(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        with pytest.raises(ValueError):
            bucket.refund(0)
        with pytest.raises(ValueError):
            bucket.refund(5.0)


class TestBucketProperties:
    """Property: whenever time_until_available returns a finite bound,
    advancing the clock by exactly that bound makes try_acquire succeed."""

    @given(
        capacity=st.floats(min_value=0.5, max_value=50.0),
        refill_rate=st.floats(min_value=0.1, max_value=20.0),
        drains=st.lists(st.floats(min_value=0.05, max_value=1.0), max_size=8),
        tokens_fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(deadline=None, max_examples=80)
    def test_wait_bound_is_sufficient(
        self, capacity, refill_rate, drains, tokens_fraction
    ):
        clock = SimulatedClock()
        bucket = TokenBucket(capacity=capacity, refill_rate=refill_rate, clock=clock)
        # Drain an arbitrary (valid) amount to put the bucket in a
        # partially-empty state.
        for fraction in drains:
            bucket.try_acquire(fraction * capacity)
        tokens = tokens_fraction * capacity
        wait = bucket.time_until_available(tokens)
        assert wait >= 0.0
        assert wait != float("inf")
        if wait > 0:
            clock.advance(wait)
        # Tolerate one float-rounding ulp in the refill arithmetic.
        assert bucket.try_acquire(tokens) or bucket.try_acquire(
            tokens - 1e-9 * capacity
        )

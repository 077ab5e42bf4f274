"""Seeded transient-fault injection for the simulated web.

Live scraping fails intermittently — markup changes, 5xx blips,
connection resets.  The extraction pipeline must tolerate these, and the
tests must be able to *provoke* them deterministically.  A
:class:`FaultPolicy` decides, per request, whether to fail it.

Every decision is a **pure function of (seed, ordinal)** — see
:meth:`FaultPolicy.decide`.  There is no shared RNG advanced per call:
a shared stream would make outcome *k* depend on how many draws other
threads made first, so a thread-pool run could reorder which requests
fail relative to a sequential run.  Keying each draw by its ordinal
makes the fail/pass sequence identical under any call interleaving,
which is what lets parallel extraction reproduce sequential output
bit-for-bit even with faults injected.
"""

from __future__ import annotations

import random

from repro.obs import get_obs


class FaultPolicy:
    """Decides which requests fail transiently.

    Parameters
    ----------
    failure_probability:
        Chance in [0, 1] that any given request fails.
    burst_every / burst_length:
        Optionally, a deterministic outage: every ``burst_every``-th
        ordinal starts a streak of ``burst_length`` consecutive
        failures.  Models a site going down for a stretch rather than
        flaking independently.
    seed:
        Keys the probabilistic component's per-ordinal draws.
    name:
        Labels this policy's injected-fault counter in the ambient
        :mod:`repro.obs` registry (deployments pass the source name).

    Example
    -------
    >>> policy = FaultPolicy(failure_probability=0.0, burst_every=3, burst_length=1)
    >>> [policy.decide(ordinal) for ordinal in range(1, 7)]
    [False, False, True, False, False, True]
    """

    def __init__(
        self,
        failure_probability: float = 0.0,
        burst_every: int | None = None,
        burst_length: int = 1,
        seed: int = 0,
        name: str = "policy",
    ):
        if not 0.0 <= failure_probability <= 1.0:
            raise ValueError(
                f"failure_probability must be in [0, 1], got {failure_probability}"
            )
        if burst_every is not None and burst_every < 1:
            raise ValueError(f"burst_every must be >= 1, got {burst_every}")
        if burst_length < 1:
            raise ValueError(f"burst_length must be >= 1, got {burst_length}")
        self._failure_probability = failure_probability
        self._burst_every = burst_every
        self._burst_length = burst_length
        self._seed = seed
        self._name = name

    @classmethod
    def never(cls) -> "FaultPolicy":
        """A policy that never fails anything."""
        return cls(failure_probability=0.0)

    @property
    def seed(self) -> int:
        """The seed keying the probabilistic draws."""
        return self._seed

    def decide(self, ordinal: int) -> bool:
        """The fate of request ``ordinal`` (1-based): pure and stateless.

        Same seed + same ordinal ⇒ same answer, on any thread, in any
        order, any number of times.

        The burst schedule is the closed form of the sequential process
        "every ``burst_every``-th request starts a ``burst_length``
        streak; requests already inside a streak don't start new ones":
        with ``b = burst_every`` and ``L = burst_length``, streaks begin
        at ``b``, then every ``b·ceil(L/b)`` ordinals after that.
        """
        if ordinal < 1:
            raise ValueError(f"ordinal must be >= 1, got {ordinal}")
        failed = self._burst_every is not None and self._burst_fails(ordinal)
        if not failed and self._failure_probability > 0.0:
            draw = random.Random(f"{self._seed}:{ordinal}").random()
            failed = draw < self._failure_probability
        if failed:
            # Observational only: the decision above is already made.
            get_obs().inc("faults_injected_total", policy=self._name)
        return failed

    def _burst_fails(self, ordinal: int) -> bool:
        b = self._burst_every
        length = self._burst_length
        if ordinal < b:
            return False
        # Streak starts repeat with this period (next multiple of b at or
        # after a streak's end).
        period = b * -(-length // b)
        return (ordinal - b) % period < length

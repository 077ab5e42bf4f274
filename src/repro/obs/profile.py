"""Deterministic phase profiler: self-time rollups over the span forest.

Spans nest — ``pipeline.recommend`` above six ``phase.*`` spans above
the ``executor.map`` spans of their fan-outs — so a span's raw duration
double-counts its children.  The profiler subtracts each span's
children to get **self time**, then aggregates by span name into a
flame *table* (the text-mode cousin of a flame graph): calls, total and
self durations for both clocks, sorted by virtual self time so the most
expensive layer of the workload tops the list regardless of machine
noise.

Input is anything span-shaped: live :class:`~repro.obs.spans.Span`
objects, their ``to_dict()`` renderings, or ``span_end`` event records
from a ``--log-json`` run — which makes ``minaret profile`` a post-hoc
profiler over any previously captured telemetry log.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PhaseProfile:
    """Aggregated timings for every span sharing one name."""

    name: str
    calls: int = 0
    wall_total: float = 0.0
    wall_self: float = 0.0
    virtual_total: float = 0.0
    virtual_self: float = 0.0
    errors: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "wall_total": round(self.wall_total, 6),
            "wall_self": round(self.wall_self, 6),
            "virtual_total": round(self.virtual_total, 6),
            "virtual_self": round(self.virtual_self, 6),
            "errors": self.errors,
        }


def _as_record(span) -> dict:
    """Normalize a Span, span dict, or span_end event to one shape."""
    if hasattr(span, "to_dict"):
        record = span.to_dict()
    else:
        record = dict(span)
    if "name" not in record and "span" in record:  # span_end event shape
        record["name"] = record["span"]
    return record


def phase_profile(spans) -> list[PhaseProfile]:
    """Roll the span forest up into per-name self-time profiles.

    Self time is a span's duration minus the sum of its direct
    children's durations, clamped at zero (children may outlive a
    parent by a rounding hair, never meaningfully).  Spans whose parent
    is unknown — evicted from the ring, or still open — count as roots.
    Output is sorted by virtual self time (descending), then wall self
    time, then name, which is deterministic under the virtual clock.
    """
    records = [_as_record(span) for span in spans]
    child_wall: dict[tuple, float] = {}
    child_virtual: dict[tuple, float] = {}
    for record in records:
        parent_id = record.get("parent_id")
        if parent_id is None:
            continue
        key = (record.get("trace_id"), parent_id)
        child_wall[key] = child_wall.get(key, 0.0) + float(
            record.get("wall_seconds", 0.0)
        )
        child_virtual[key] = child_virtual.get(key, 0.0) + float(
            record.get("virtual_seconds") or 0.0
        )
    profiles: dict[str, PhaseProfile] = {}
    for record in records:
        name = str(record.get("name", "?"))
        profile = profiles.get(name)
        if profile is None:
            profile = profiles[name] = PhaseProfile(name=name)
        wall = float(record.get("wall_seconds", 0.0))
        virtual = float(record.get("virtual_seconds") or 0.0)
        key = (record.get("trace_id"), record.get("span_id"))
        profile.calls += 1
        profile.wall_total += wall
        profile.virtual_total += virtual
        profile.wall_self += max(0.0, wall - child_wall.get(key, 0.0))
        profile.virtual_self += max(0.0, virtual - child_virtual.get(key, 0.0))
        if record.get("error"):
            profile.errors += 1
    return sorted(
        profiles.values(),
        key=lambda p: (-p.virtual_self, -p.wall_self, p.name),
    )


def render_flame_table(profiles, top: int | None = None) -> str:
    """A fixed-width flame table for terminals (CLI ``minaret profile``)."""
    rows = profiles[:top] if top is not None else list(profiles)
    header = (
        f"{'span':32s} {'calls':>7s} {'self-virt':>10s} {'tot-virt':>10s} "
        f"{'self-wall':>10s} {'tot-wall':>10s} {'errs':>5s}"
    )
    lines = [header]
    for profile in rows:
        lines.append(
            f"{profile.name[:32]:32s} {profile.calls:7d} "
            f"{profile.virtual_self:9.3f}s {profile.virtual_total:9.3f}s "
            f"{profile.wall_self:9.4f}s {profile.wall_total:9.4f}s "
            f"{profile.errors:5d}"
        )
    return "\n".join(lines)


def spans_from_events(events) -> list[dict]:
    """Extract span records from telemetry events (JSONL rows or Events).

    Accepts dicts (parsed ``--log-json`` lines) or
    :class:`~repro.obs.events.Event` objects and keeps only the
    ``span_end`` records, in input order.
    """
    records = []
    for event in events:
        if hasattr(event, "to_dict"):
            record = event.to_dict()
            record.setdefault("event", getattr(event, "name", None))
        else:
            record = dict(event)
        if record.get("event") != "span_end":
            continue
        records.append(record)
    return records

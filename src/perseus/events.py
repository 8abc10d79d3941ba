"""Crowd-pump event segmentation and concurrent-broadcast flagging.

Messages about one coin arrive in bursts: the same signal echoes across
channels for hours, then the coin goes quiet until the next campaign. This
module turns per-(period, coin, direction) message streams into discrete
events by splitting on inter-message gaps above an adaptive threshold, and
pools long and short events into the coin's event set.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .ingest import CrowdPumpMessage, TradeDirection
from .jsonfile import read_jsonl

GAP_CAP = timedelta(hours=72)
SAME_SECOND_MIN_CHANNELS = 3
IDENTICAL_TEXT_MIN_CHANNELS = 2

REASON_SAME_SECOND = "same_second"
REASON_IDENTICAL_TEXT = "identical_text"


@dataclass(frozen=True)
class CrowdPumpEvent:
    """One burst of matching signals, deduplicated to one message per channel."""

    event_id: int
    cryptocurrency: str
    direction: TradeDirection
    messages: tuple[CrowdPumpMessage, ...]

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("an event needs at least one message")
        times = [m.source_datetime for m in self.messages]
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError("event messages must be time-ordered")
        entities = [m.entity_id for m in self.messages]
        if len(set(entities)) != len(entities):
            raise ValueError("event messages must come from distinct entities")
        for m in self.messages:
            if (m.cryptocurrency, m.trade_direction) != (self.cryptocurrency, self.direction):
                raise ValueError(
                    f"pid {m.pid} is a {m.cryptocurrency} {m.trade_direction.value} message,"
                    f" not {self.cryptocurrency} {self.direction.value}"
                )

    @property
    def start(self) -> datetime:
        return self.messages[0].source_datetime

    @property
    def spreaders(self) -> tuple[str, ...]:
        return tuple(m.entity_id for m in self.messages)


@dataclass(frozen=True)
class BroadcastFlag:
    event_id: int
    channels: tuple[str, ...]
    reasons: tuple[str, ...]


def percentile_95(values: Sequence[float]) -> float:
    """95th percentile with linear interpolation over zero-based sorted ranks."""
    if not values:
        raise ValueError("cannot take a percentile of no values")
    ordered = sorted(values)
    q = 0.95 * (len(ordered) - 1)
    lower = int(q)
    if lower + 1 >= len(ordered):
        return ordered[-1]
    frac = q - lower
    return ordered[lower] + frac * (ordered[lower + 1] - ordered[lower])


def compute_gap_threshold(gaps: Sequence[timedelta], cap: timedelta = GAP_CAP) -> timedelta:
    """min(P95 of the gaps, cap). Raises on an empty gap list; callers fall
    back to the cap directly for single-message groups."""
    if not gaps:
        raise ValueError("gap list is empty; use the cap for single-message groups")
    p95 = percentile_95([g.total_seconds() for g in gaps])
    return min(timedelta(seconds=p95), cap)


def segment_events(
    messages: Sequence[CrowdPumpMessage],
    threshold: timedelta,
    start_event_id: int = 0,
) -> list[CrowdPumpEvent]:
    """Split a sorted single-(coin, direction) stream on gaps above threshold.

    Within each event only the first message per entity survives; later
    duplicates are dropped. Event ids are assigned in stream order starting at
    ``start_event_id``. A mixed stream raises CrowdPumpEvent's ValueError.
    """
    if not messages:
        return []
    times = [m.source_datetime for m in messages]
    if any(a > b for a, b in zip(times, times[1:])):
        raise ValueError("segment_events expects messages sorted by time")
    coin = messages[0].cryptocurrency
    direction = messages[0].trade_direction

    events: list[CrowdPumpEvent] = []
    chunk: list[CrowdPumpMessage] = []

    def close(chunk: list[CrowdPumpMessage]) -> None:
        seen: set[str] = set()
        kept = []
        for m in chunk:
            if m.entity_id not in seen:
                seen.add(m.entity_id)
                kept.append(m)
        events.append(
            CrowdPumpEvent(
                event_id=start_event_id + len(events),
                cryptocurrency=coin,
                direction=direction,
                messages=tuple(kept),
            )
        )

    for message in messages:
        if chunk and message.source_datetime - chunk[-1].source_datetime > threshold:
            close(chunk)
            chunk = []
        chunk.append(message)
    close(chunk)
    return events


def build_event_sets(
    messages: Sequence[CrowdPumpMessage],
    period_of: Callable[[CrowdPumpMessage], Optional[str]],
    cap: timedelta = GAP_CAP,
) -> dict[tuple[str, str], list[CrowdPumpEvent]]:
    """Segment a whole corpus into per-(period, coin) event sets.

    `period_of` names each message's period, or None to leave it out.
    Messages are grouped by (period, coin, direction); each group gets its own
    gap threshold from its own gaps (the cap alone when the group has a single
    message). Long and short events for the same coin are pooled into the
    coin's event set, ordered by first-message time. Event ids are unique
    across the whole result.
    """
    groups: dict[tuple[str, str, TradeDirection], list[CrowdPumpMessage]] = defaultdict(list)
    for message in messages:
        period = period_of(message)
        if period is not None:
            groups[(period, message.cryptocurrency, message.trade_direction)].append(message)

    out: dict[tuple[str, str], list[CrowdPumpEvent]] = defaultdict(list)
    next_id = 0
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2].value)):
        stream = sorted(groups[key], key=lambda m: (m.source_datetime, m.entity_id))
        gaps = [
            b.source_datetime - a.source_datetime for a, b in zip(stream, stream[1:])
        ]
        threshold = compute_gap_threshold(gaps, cap) if gaps else cap
        events = segment_events(stream, threshold, start_event_id=next_id)
        next_id += len(events)
        out[(key[0], key[1])].extend(events)
    for key in out:
        out[key].sort(key=lambda e: (e.start, e.event_id))
    return dict(out)


def flag_concurrent_broadcasts(events: Iterable[CrowdPumpEvent]) -> list[BroadcastFlag]:
    """Flag events whose broadcast pattern looks scripted.

    Within one event: three or more distinct channels posting in the same
    second, or two or more channels posting byte-identical text. One flag per
    event, carrying every implicated channel and every triggered reason.
    """
    flags: list[BroadcastFlag] = []
    for event in events:
        channels: set[str] = set()
        reasons: list[str] = []

        by_second: dict[datetime, set[str]] = defaultdict(set)
        for m in event.messages:
            by_second[m.source_datetime.replace(microsecond=0)].add(m.entity_id)
        same_second = [c for group in by_second.values() if len(group) >= SAME_SECOND_MIN_CHANNELS for c in group]
        if same_second:
            reasons.append(REASON_SAME_SECOND)
            channels.update(same_second)

        by_text: dict[str, set[str]] = defaultdict(set)
        for m in event.messages:
            by_text[m.message_text].add(m.entity_id)
        identical = [c for group in by_text.values() if len(group) >= IDENTICAL_TEXT_MIN_CHANNELS for c in group]
        if identical:
            reasons.append(REASON_IDENTICAL_TEXT)
            channels.update(identical)

        if reasons:
            flags.append(
                BroadcastFlag(
                    event_id=event.event_id,
                    channels=tuple(sorted(channels)),
                    reasons=tuple(reasons),
                )
            )
    return flags


# --- serialization -----------------------------------------------------------

def event_rows(event_sets: Mapping[tuple[str, str], Sequence[CrowdPumpEvent]]) -> Iterator[dict]:
    """The events.jsonl rows of `event_sets`, in (period, coin) order."""
    for (period, coin), events in sorted(event_sets.items()):
        for event in events:
            yield {
                "event_id": event.event_id,
                "period": period,
                "cryptocurrency": coin,
                "direction": event.direction.value,
                "messages": [m.pid for m in event.messages],
            }


def read_events(
    path: Path | str, messages_by_pid: Mapping[int, CrowdPumpMessage]
) -> dict[tuple[str, str], list[CrowdPumpEvent]]:
    """The event sets event_rows wrote; a malformed line, or one naming a
    pid not in `messages_by_pid`, raises ValueError naming file and line,
    and a file with no event raises ValueError naming the file."""

    def row(obj: dict) -> tuple[str, CrowdPumpEvent]:
        unknown = [pid for pid in obj["messages"] if pid not in messages_by_pid]
        if unknown:
            raise ValueError(f"unknown pid {unknown[0]}")
        return str(obj["period"]), CrowdPumpEvent(
            event_id=int(obj["event_id"]),
            cryptocurrency=str(obj["cryptocurrency"]),
            direction=TradeDirection(obj["direction"]),
            messages=tuple(messages_by_pid[pid] for pid in obj["messages"]),
        )

    out: dict[tuple[str, str], list[CrowdPumpEvent]] = defaultdict(list)
    for period, event in read_jsonl(path, row):
        out[(period, event.cryptocurrency)].append(event)
    if not out:
        raise ValueError(f"{path}: no events")
    return dict(out)

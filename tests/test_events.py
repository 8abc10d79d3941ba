"""Gap-statistic event segmentation and concurrent-broadcast flags."""

from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from perseus.events import (
    GAP_CAP,
    BroadcastFlag,
    CrowdPumpEvent,
    build_event_sets,
    compute_gap_threshold,
    event_rows,
    flag_concurrent_broadcasts,
    percentile_95,
    read_events,
    segment_events,
)
from perseus.evaluation import SplitPlan
from perseus.ingest import CrowdPumpMessage, TradeDirection, parse_corpus
from perseus.jsonfile import write_jsonl

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "perseus" / "data" / "fixtures"

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)

_pid = iter(range(1, 100000))


def one_period(message):
    """Every message in the one period `all`, as `events --single-period` routes."""
    return "all"


def msg(channel, hours, coin="SUI", direction=TradeDirection.LONG, text="t"):
    return CrowdPumpMessage(
        pid=next(_pid),
        entity_id=channel,
        trade_direction=direction,
        source_datetime=T0 + timedelta(hours=hours),
        exchange="Unspecified",
        cryptocurrency=coin,
        channel_participants=0,
        entry_prices=(Decimal("1.0"),),
        target_prices=(Decimal("1.1"),),
        stop_loss=None,
        message_text=text,
    )


# ---------------------------------------------------------------------------
# percentile and threshold


def test_percentile_worked_example():
    gaps = [1.0] * 19 + [100.0]
    # zero-based rank q = 0.95 * 19 = 18.05 -> 1 + 0.05 * 99
    assert percentile_95(gaps) == pytest.approx(5.95, abs=1e-12)
    assert percentile_95(gaps) == pytest.approx(float(np.percentile(gaps, 95)), abs=1e-12)


def test_percentile_matches_numpy_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(200):
        values = rng.random(int(rng.integers(1, 40))).tolist()
        assert percentile_95(values) == pytest.approx(
            float(np.percentile(values, 95)), abs=1e-12
        )


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile_95([])


def test_threshold_is_capped_at_72h():
    gaps = [timedelta(hours=200)] * 10
    assert compute_gap_threshold(gaps) == GAP_CAP
    small = [timedelta(hours=1)] * 19 + [timedelta(hours=100)]
    assert compute_gap_threshold(small) == timedelta(hours=5.95)


# ---------------------------------------------------------------------------
# segmentation


def test_split_is_strict_a_gap_equal_to_threshold_stays_together():
    stream = [msg("a", 0), msg("b", 2), msg("c", 4)]
    events = segment_events(stream, timedelta(hours=2))
    assert len(events) == 1
    events = segment_events(stream, timedelta(hours=1, minutes=59))
    assert len(events) == 3


def test_duplicate_channels_within_an_event_keep_only_the_first():
    stream = [msg("a", 0), msg("b", 1), msg("a", 2), msg("c", 3)]
    (event,) = segment_events(stream, timedelta(hours=10))
    assert [m.entity_id for m in event.messages] == ["a", "b", "c"]
    assert event.messages[0].source_datetime == T0  # the later "a" was dropped


def test_conservation_message_counts_plus_duplicates():
    stream = [msg("a", 0), msg("b", 1), msg("a", 2), msg("c", 30), msg("c", 31), msg("a", 32)]
    events = segment_events(stream, timedelta(hours=5))
    kept = sum(len(e.messages) for e in events)
    duplicates = len(stream) - kept
    assert kept == 4 and duplicates == 2  # the second "a" and the second "c"
    # no surviving event spans a gap above the threshold
    for e in events:
        times = [m.source_datetime for m in e.messages]
        assert all(b - a <= timedelta(hours=5) for a, b in zip(times, times[1:]))


def test_prefix_stability_under_late_appends():
    stream = [msg("a", 0), msg("b", 1), msg("c", 9), msg("d", 10)]
    threshold = timedelta(hours=3)
    before = segment_events(stream, threshold)
    extended = stream + [msg("e", 100)]
    after = segment_events(extended, threshold)
    assert after[: len(before)] == before
    assert len(after) == len(before) + 1


def test_event_ids_continue_from_start():
    stream = [msg("a", 0), msg("b", 40)]
    events = segment_events(stream, timedelta(hours=10), start_event_id=7)
    assert [e.event_id for e in events] == [7, 8]


def test_event_validation():
    good = segment_events([msg("a", 0), msg("b", 1)], timedelta(hours=5))[0]
    with pytest.raises(ValueError):
        CrowdPumpEvent(
            event_id=0,
            cryptocurrency=good.cryptocurrency,
            direction=good.direction,
            messages=tuple(reversed(good.messages)),
        )
    dup = msg("a", 2)
    with pytest.raises(ValueError):
        CrowdPumpEvent(
            event_id=0,
            cryptocurrency=good.cryptocurrency,
            direction=good.direction,
            messages=(*good.messages, dup.__class__(**{**dup.__dict__, "entity_id": "a"})),
        )
    pid = good.messages[0].pid
    for coin, direction in (("ARB", good.direction), ("SUI", TradeDirection.SHORT)):
        with pytest.raises(ValueError, match=rf"pid {pid} is a SUI Long message, not {coin} {direction.value}$"):
            CrowdPumpEvent(event_id=0, cryptocurrency=coin, direction=direction, messages=good.messages)
    # segment_events builds each event with its stream's first coin and direction
    with pytest.raises(ValueError, match="is a ARB Long message, not SUI Long$"):
        segment_events([msg("a", 0), msg("b", 1, coin="ARB")], timedelta(hours=5))


# ---------------------------------------------------------------------------
# grouping into event sets


def test_build_event_sets_pools_directions_under_one_coin_key():
    stream = [
        msg("a", 0, direction=TradeDirection.LONG),
        msg("b", 1, direction=TradeDirection.LONG),
        msg("c", 5, direction=TradeDirection.SHORT),
        msg("d", 6, direction=TradeDirection.SHORT),
    ]
    sets = build_event_sets(stream, one_period)
    assert list(sets) == [("all", "SUI")]
    events = sets[("all", "SUI")]
    assert len(events) == 2
    assert [e.direction for e in events] == [TradeDirection.LONG, TradeDirection.SHORT]
    assert [e.event_id for e in events] == [0, 1]
    assert events == sorted(events, key=lambda e: (e.start, e.event_id))


def test_build_event_sets_respects_period_boundaries():
    cut1, cut2 = T0 + timedelta(hours=10), T0 + timedelta(hours=20)
    plan = SplitPlan(
        cut1, cut2, (0.5, 0.5, 0.0), (("SUI",), ("SUI",), ()), ((), (), ("SUI",)), (2, 2, 1)
    )
    stream = [msg("a", 0), msg("b", 5), msg("c", 10), msg("d", 11), msg("e", 20)]
    sets = build_event_sets(stream, plan.split_of)
    assert {m.entity_id for e in sets[("train", "SUI")] for m in e.messages} == {"a", "b"}
    # the message at exactly the cut belongs to the later split
    assert {m.entity_id for e in sets[("val", "SUI")] for m in e.messages} == {"c", "d"}
    # SUI was dropped from test, so its message there is left out
    assert list(sets) == [("train", "SUI"), ("val", "SUI")]


def test_messages_outside_every_period_are_dropped():
    def tiny(message):
        return "tiny" if message.source_datetime < T0 + timedelta(hours=1) else None

    sets = build_event_sets([msg("a", 0), msg("b", 5)], tiny)
    assert [m.entity_id for e in sets[("tiny", "SUI")] for m in e.messages] == ["a"]


def test_single_message_group_becomes_one_event():
    sets = build_event_sets([msg("a", 0)], one_period)
    (event,) = sets[("all", "SUI")]
    assert [m.entity_id for m in event.messages] == ["a"]


def test_rank_ties_break_by_entity_id():
    stream = [msg("zeta", 0), msg("alpha", 0), msg("mid", 0)]
    sets = build_event_sets(stream, one_period)
    (event,) = sets[("all", "SUI")]
    assert [m.entity_id for m in event.messages] == ["alpha", "mid", "zeta"]


# ---------------------------------------------------------------------------
# broadcast flags


def test_same_second_flag_needs_three_channels():
    base = [
        msg("a", 0, text="one"),
        msg("b", 0, text="two"),
        msg("c", 0, text="three"),
        msg("d", 1, text="four"),
    ]
    (event,) = segment_events(base, timedelta(hours=10))
    (flag,) = flag_concurrent_broadcasts([event])
    assert flag.reasons == ("same_second",)
    assert flag.channels == ("a", "b", "c")

    two = segment_events([msg("a", 0, text="x"), msg("b", 0, text="y")], timedelta(hours=1))
    assert flag_concurrent_broadcasts(two) == []


def test_identical_text_flag_needs_two_channels():
    stream = [
        msg("a", 0, text="THE EXACT SAME CALL"),
        msg("b", 1, text="THE EXACT SAME CALL"),
        msg("c", 2, text="different"),
    ]
    (event,) = segment_events(stream, timedelta(hours=10))
    (flag,) = flag_concurrent_broadcasts([event])
    assert flag.reasons == ("identical_text",)
    assert flag.channels == ("a", "b")


def test_combined_flag_unions_channels_and_orders_reasons():
    stream = [
        msg("p", 0, text="copy"),
        msg("q", 0, text="copy"),
        msg("r", 0, text="other"),
        msg("s", 5, text="copy"),
    ]
    (event,) = segment_events(stream, timedelta(hours=10))
    (flag,) = flag_concurrent_broadcasts([event])
    assert flag.reasons == ("same_second", "identical_text")
    assert flag.channels == ("p", "q", "r", "s")


def test_storj_fixture_carries_the_six_channel_same_second_flag():
    lines = (FIXTURES / "storj_case.jsonl").read_text().splitlines()
    messages, _ = parse_corpus(lines)
    start = min(m.source_datetime for m in messages)
    sets = build_event_sets(messages, one_period)
    events = sets[("all", "STORJ")]
    assert [len(e.messages) for e in events] == [1, 8]
    flags = flag_concurrent_broadcasts(events)
    assert len(flags) == 1
    flag = flags[0]
    assert flag.event_id == events[1].event_id
    assert flag.reasons == ("same_second", "identical_text")
    assert flag.channels == (
        "CoinCoachSignals",
        "CryptoGuruSignal",
        "CryptoMarketSignalz",
        "CryptoTradingExpertz",
        "GoldenSignalz",
        "VIPExpertSignals",
    )


def test_event_file_round_trip(tmp_path):
    stream = [msg("a", 0), msg("b", 1), msg("c", 100)]
    sets = build_event_sets(stream, one_period)
    path = tmp_path / "events.jsonl"
    write_jsonl(path, event_rows(sets))
    by_pid = {m.pid: m for m in stream}
    again = read_events(path, by_pid)
    assert again == sets


def test_an_empty_event_file_is_named(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="events.jsonl: no events$"):
        read_events(path, {})


def test_an_event_naming_an_unknown_pid_is_named_by_line(tmp_path):
    stream = [msg("a", 0), msg("b", 1), msg("c", 100)]
    path = tmp_path / "events.jsonl"
    write_jsonl(path, event_rows(build_event_sets(stream, one_period)))
    by_pid = {m.pid: m for m in stream[:-1]}
    with pytest.raises(ValueError, match=rf"events.jsonl:2: unknown pid {stream[-1].pid}$"):
        read_events(path, by_pid)
    rows = list(event_rows(build_event_sets(stream, one_period)))
    rows[0]["cryptocurrency"] = "ARB"
    write_jsonl(path, rows)
    relabelled = rf"events.jsonl:1: pid {stream[0].pid} is a SUI Long message, not ARB Long$"
    with pytest.raises(ValueError, match=relabelled):
        read_events(path, {m.pid: m for m in stream})

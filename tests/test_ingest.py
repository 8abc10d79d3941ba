"""Regex extraction, timestamp handling and serialization round trips."""

import json
import re
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from perseus.ingest import (
    RULES_FILE,
    CrowdPumpMessage,
    RawMessage,
    TradeDirection,
    load_rules,
    message_to_json,
    normalize_symbol,
    parse_corpus,
    parse_timestamp,
    read_messages,
    write_messages,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "perseus"
FIXTURES = PACKAGE / "data" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

SIGNAL_TEXT = (
    "SCAPING300. VETUSDT. Direction: SHORT. Leverage: Cross 20x. "
    "Entry: 0.03518, 0.03528. Stoploss: 0.037994. "
    "SCALPING: Target1 - 0.035004, Target2 - 0.034828, Target3 - 0.034476. "
    "DAY TRADING: Target4 - 0.034124, Target5 - 0.033772, Target6 - 0.033421. "
    "SWING TRADING: Target7 - 0.033069, Target8 - 0.032717"
)


def _line(text, channel="chan", ts="2024-02-06T18:25:40Z", participants=0):
    return json.dumps(
        {
            "channel_id": channel,
            "timestamp": ts,
            "text": text,
            "channel_participants": participants,
        }
    )


def test_short_contract_signal_extracts_every_field():
    line = _line(SIGNAL_TEXT, channel="-1001313911314", ts="05-01-2024 03:14:42", participants=38046)
    messages, report = parse_corpus([line])
    assert report.as_dict() == {"no_entities": 0, "parse_error": 0, "ambiguous": 0}
    (m,) = messages
    assert m.pid == 1
    assert m.entity_id == "-1001313911314"
    assert m.trade_direction is TradeDirection.SHORT
    assert m.source_datetime == datetime(2024, 5, 1, 3, 14, 42, tzinfo=timezone.utc)
    assert m.cryptocurrency == "VET"
    assert m.channel_participants == 38046
    assert m.entry_prices == (Decimal("0.03518"), Decimal("0.03528"))
    assert m.target_prices == tuple(
        Decimal(t)
        for t in (
            "0.035004",
            "0.034828",
            "0.034476",
            "0.034124",
            "0.033772",
            "0.033421",
            "0.033069",
            "0.032717",
        )
    )
    assert m.stop_loss == Decimal("0.037994")
    # "Cross 20x" sits in the leverage bucket and must not leak into prices
    assert Decimal("20") not in m.entry_prices + m.target_prices


def test_parse_is_deterministic():
    line = _line(SIGNAL_TEXT)
    first, _ = parse_corpus([line])
    second, _ = parse_corpus([line])
    assert first == second


@pytest.mark.parametrize(
    "token,expected",
    [
        ("BTC_STORJ", "STORJ"),
        ("STORJUSDT", "STORJ"),
        ("SUI/USDT", "SUI"),
        ("usdt_sui", "SUI"),
        ("VETBUSD", "VET"),
        ("BTC", "BTC"),
        ("ETH", "ETH"),
    ],
)
def test_normalize_symbol(token, expected):
    assert normalize_symbol(token) == expected


def test_parse_timestamp_accepts_both_forms():
    iso = parse_timestamp("2024-02-06T18:25:40Z")
    assert iso == datetime(2024, 2, 6, 18, 25, 40, tzinfo=timezone.utc)
    legacy = parse_timestamp("02-06-2024 18:25:40")
    assert legacy == iso
    naive = parse_timestamp("2024-02-06T18:25:40")
    assert naive == iso
    with pytest.raises(ValueError):
        parse_timestamp("Feb 6th 2024")


def test_direction_fallback_from_price_geometry():
    up, _ = parse_corpus([_line("APEUSDT Entry 1.00 Targets 1.10 1.20")])
    assert up[0].trade_direction is TradeDirection.LONG
    down, _ = parse_corpus([_line("APEUSDT Entry 1.00 Targets 0.90 0.80")])
    assert down[0].trade_direction is TradeDirection.SHORT


def test_short_term_phrase_is_not_a_short_position():
    messages, _ = parse_corpus(
        [_line("SUIUSDT BUY Entry 1.50 Targets 1.60 hold SHORT TERM only")]
    )
    assert messages[0].trade_direction is TradeDirection.LONG


def test_skip_reasons():
    lines = [
        _line("good morning everyone, market looks spicy"),  # no ticker
        _line("ARBUSDT and OPUSDT both look ready Targets 1.2"),  # two coins
        _line("ARBUSDT moon soon"),  # ticker but no targets
        _line("ARBUSDT Targets 1.2 1.3"),  # no direction and no entry
        "{not json",
        _line("ARBUSDT LONG Entry 1.0 Targets 1.2", ts="soon"),  # bad timestamp
    ]
    messages, report = parse_corpus(lines)
    assert messages == []
    assert report.as_dict() == {"no_entities": 3, "parse_error": 2, "ambiguous": 1}


def test_pids_follow_input_order_and_output_is_time_sorted():
    lines = [
        _line("ARBUSDT LONG Entry 1.0 Targets 1.2", channel="late", ts="2024-03-02T00:00:00Z"),
        _line("ARBUSDT LONG Entry 1.0 Targets 1.2", channel="early", ts="2024-03-01T00:00:00Z"),
    ]
    messages, _ = parse_corpus(lines)
    assert [(m.pid, m.entity_id) for m in messages] == [(2, "early"), (1, "late")]


def test_json_round_trip_preserves_decimals(tmp_path):
    messages, _ = parse_corpus([_line(SIGNAL_TEXT)])
    path = tmp_path / "messages.jsonl"
    write_messages(path, messages)
    again = read_messages(path)
    assert again == messages
    assert isinstance(again[0].entry_prices[0], Decimal)
    # fixed-point notation survives, no float detour
    assert "0.035004" in message_to_json(messages[0])


def test_a_message_line_escapes_strings_as_json_and_prints_plain_decimals(tmp_path):
    """What the default corpus lacks: quotes, backslashes, control, non-ASCII
    and astral characters, no entry price, no stop, a non-UTC offset with
    microseconds and prices whose repr is not plain notation. The expected
    line is the one the generic JSON emitter this writer replaced wrote."""
    message = CrowdPumpMessage(
        pid=9,
        entity_id='q"uo\\te\x00\x1f\x7f\u00e9\u4e2d\U0001F680',
        trade_direction=TradeDirection.SHORT,
        source_datetime=datetime(
            2024, 2, 29, 23, 59, 59, 123456, tzinfo=timezone(timedelta(hours=5, minutes=30))
        ),
        exchange="BINANCE",
        cryptocurrency="SUI",
        channel_participants=0,
        entry_prices=(),
        target_prices=(Decimal("1E+2"), Decimal("1e-30"), Decimal("123.4500")),
        stop_loss=None,
        message_text='line\nbreak\ttab "q" \\ \u00e9 \U0001F600',
    )
    path = tmp_path / "messages.jsonl"
    write_messages(path, [message])
    assert path.read_text(encoding="utf-8") == (
        r'{"PID": 9, "entity_id": "q\"uo\\te\u0000\u001f\u007f\u00e9\u4e2d\ud83d\ude80", '
        r'"trade_direction": "Short", "source_datetime": "2024-02-29T23:59:59.123456+05:30", '
        r'"exchange": "BINANCE", "cryptocurrency": "SUI", "channel_participants": 0, '
        r'"entry_prices": [], "target_prices": [100, 0.000000000000000000000000000001, 123.4500], '
        r'"stop_loss": null, "message_text": "line\nbreak\ttab \"q\" \\ \u00e9 \ud83d\ude00"}'
        "\n"
    )
    (again,) = read_messages(path)
    assert again == message
    assert again.target_prices[2].as_tuple() == Decimal("123.4500").as_tuple()


def test_file_round_trip(tmp_path):
    messages, _ = parse_corpus(
        [_line(SIGNAL_TEXT), _line("SUIUSDT BUY Entry 1.5 Targets 1.6 1.7")]
    )
    path = tmp_path / "messages.jsonl"
    write_messages(path, messages)
    assert read_messages(path) == messages


def test_an_empty_message_file_is_named(tmp_path):
    path = tmp_path / "messages.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="messages.jsonl: no messages"):
        read_messages(path)


def test_a_price_that_is_not_a_number_is_named_by_line(tmp_path):
    messages, _ = parse_corpus([_line(SIGNAL_TEXT)] * 2)
    path = tmp_path / "messages.jsonl"
    write_messages(path, messages)
    first, second = path.read_text().splitlines()
    path.write_text(first + "\n" + second.replace('"entry_prices": [', '"entry_prices": ["abc", ') + "\n")
    with pytest.raises(ValueError, match="messages.jsonl:2: 'abc' is not a decimal number"):
        read_messages(path)


def test_message_validation():
    base = dict(
        pid=1,
        entity_id="c",
        trade_direction=TradeDirection.LONG,
        source_datetime=datetime(2024, 1, 1, tzinfo=timezone.utc),
        exchange="Unspecified",
        cryptocurrency="SUI",
        channel_participants=10,
        entry_prices=(Decimal("1.0"),),
        target_prices=(Decimal("1.1"),),
        stop_loss=None,
        message_text="t",
    )
    CrowdPumpMessage(**base)
    with pytest.raises(ValueError):
        CrowdPumpMessage(**{**base, "target_prices": ()})
    with pytest.raises(ValueError):
        CrowdPumpMessage(**{**base, "entry_prices": (Decimal("-1"),)})
    with pytest.raises(ValueError):
        CrowdPumpMessage(**{**base, "cryptocurrency": "not-a-ticker"})


def test_raw_message_naive_timestamp_becomes_utc():
    raw = RawMessage(
        channel_id="c",
        timestamp=datetime(2024, 1, 1, 12, 0, 0),
        text="hello",
    )
    assert raw.timestamp.tzinfo is timezone.utc


def test_fixture_corpora_parse_cleanly_with_hand_labeled_target_counts():
    sui = (FIXTURES / "sui_case.jsonl").read_text().splitlines()
    messages, report = parse_corpus(sui)
    assert len(messages) == 7
    assert report.total == 0
    by_channel = {m.entity_id: m for m in messages if m.pid in (2, 4)}
    # hand count: "Targets 1.575 1.6 1.65" carries three price tokens
    assert len(by_channel["QualitySignalsChannel"].target_prices) == 3
    # hand count: six prices behind "TakeProfit Targets", ordinals 1-6 are labels
    ctt = by_channel["cryptotipstrick"]
    assert ctt.target_prices == tuple(
        Decimal(t) for t in ("1.85", "1.87", "1.89", "1.91", "1.93", "1.96")
    )
    assert ctt.entry_prices == (Decimal("1.8225"),)
    assert ctt.stop_loss == Decimal("1.70")

    storj = (FIXTURES / "storj_case.jsonl").read_text().splitlines()
    messages, report = parse_corpus(storj)
    assert len(messages) == 9
    assert report.total == 0
    coach = next(m for m in messages if m.entity_id == "CoinCoachSignals")
    # hand count: "TAKE PROFIT 1 .. 2 .. 3 .. 4 .. 5 .." is five labeled prices
    assert len(coach.target_prices) == 5
    zone = next(m for m in messages if m.entity_id == "binance_360")
    assert zone.entry_prices == (Decimal("0.6466"), Decimal("0.6598"))
    assert len(zone.target_prices) == 4


def test_the_scanner_matches_one_word_boundary_per_section():
    """The scanner puts one \\b ahead of all sections; the pattern with a \\b
    in each section must find the same groups at the same spans."""
    raw = json.loads((PACKAGE / RULES_FILE).read_text(encoding="utf-8"))
    parts = [rf"(?P<s{i}>\b(?:{rule['keyword']})\b)" for i, rule in enumerate(raw["sections"])]
    parts.append(rf"(?P<num>{raw['number_pattern']})")
    reference = re.compile("|".join(parts), re.IGNORECASE)
    texts = [
        SIGNAL_TEXT,
        "SUIUSDT BUY Entry 1.50 Targets 1.60 hold SHORT TERM only",
        "ARBUSDT and OPUSDT both look ready Targets 1.2",
        "BTC_STORJ Stop-Loss Targets 1 0.5 Take - Profit 2 TP2: 0.7 tp 3.1 SL1",
        "entryzone entry_zone xentry 2entry entry2 Current  Ask asking asks volume12",
        "Target1 - 0.035004 targets12.5 Targets 3 target 1.2 stoploss STOP TARGET",
        "",
    ]
    for path in sorted(GOLDEN.glob("*/messages.jsonl")):
        texts += [json.loads(line)["message_text"] for line in path.read_text().splitlines()]
    for path in sorted(FIXTURES.glob("*.jsonl")):
        texts += [json.loads(line)["text"] for line in path.read_text().splitlines()]
    scanner = load_rules().scanner
    for text in texts:
        got = [(m.lastgroup, m.span()) for m in scanner.finditer(text)]
        assert got == [(m.lastgroup, m.span()) for m in reference.finditer(text)], text

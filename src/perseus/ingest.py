"""Rule-based entity extraction over raw channel messages.

Turns free-form pump-signal texts into structured crowd-pump records. The
extraction vocabulary (ticker patterns, direction keywords, price-section
keywords) lives in ``data/ner_rules.json`` so it can be audited and extended
without touching code; ``load_rules`` compiles it once per process.

Prices are kept as ``decimal.Decimal`` at this boundary so that serialized
records round-trip exactly. Downstream modules convert to floats.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .jsonfile import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

TICKER_RE = re.compile(r"^[A-Z0-9]{2,10}$")
QUOTE_CURRENCIES = ("USDT", "BUSD", "USD", "BTC", "ETH")
SEPARATORS = "_/-"

SKIP_NO_ENTITIES = "no_entities"
SKIP_PARSE_ERROR = "parse_error"
SKIP_AMBIGUOUS = "ambiguous"


class TradeDirection(str, Enum):
    LONG = "Long"
    SHORT = "Short"


@dataclass(frozen=True)
class RawMessage:
    """One line of an OSN corpus before any extraction has happened."""

    channel_id: str
    timestamp: datetime
    text: str
    channel_participants: int = 0

    def __post_init__(self) -> None:
        if not self.channel_id:
            raise ValueError("channel_id must be non-empty")
        if self.timestamp.tzinfo is None:
            object.__setattr__(self, "timestamp", self.timestamp.replace(tzinfo=timezone.utc))


@dataclass(frozen=True)
class CrowdPumpMessage:
    """A structured crowd-pump signal extracted from one raw message."""

    pid: int
    entity_id: str
    trade_direction: TradeDirection
    source_datetime: datetime
    exchange: str
    cryptocurrency: str
    channel_participants: int
    entry_prices: tuple[Decimal, ...]
    target_prices: tuple[Decimal, ...]
    stop_loss: Optional[Decimal]
    message_text: str

    def __post_init__(self) -> None:
        if not TICKER_RE.match(self.cryptocurrency):
            raise ValueError(f"bad cryptocurrency symbol {self.cryptocurrency!r}")
        if not self.target_prices:
            raise ValueError("target_prices must be non-empty")
        for p in (*self.entry_prices, *self.target_prices):
            if p <= 0:
                raise ValueError(f"prices must be positive, got {p}")
        if self.stop_loss is not None and self.stop_loss <= 0:
            raise ValueError("stop_loss must be positive when present")
        if self.source_datetime.tzinfo is None:
            object.__setattr__(
                self, "source_datetime", self.source_datetime.replace(tzinfo=timezone.utc)
            )


@dataclass
class SkipReport:
    """Counts of messages the extractor dropped, by reason."""

    no_entities: int = 0
    parse_error: int = 0
    ambiguous: int = 0

    def record(self, reason: str) -> None:
        setattr(self, reason, getattr(self, reason) + 1)

    @property
    def total(self) -> int:
        return self.no_entities + self.parse_error + self.ambiguous

    def as_dict(self) -> dict[str, int]:
        return {
            "no_entities": self.no_entities,
            "parse_error": self.parse_error,
            "ambiguous": self.ambiguous,
        }


@dataclass(frozen=True)
class NerRules:
    """Compiled extraction vocabulary, see data/ner_rules.json."""

    version: int
    ticker_patterns: tuple[re.Pattern, ...]
    direction_pattern: re.Pattern
    scanner: re.Pattern
    buckets: tuple[str, ...]
    ordinal_label_max: int
    exchange_pattern: re.Pattern


RULES_FILE = "data/ner_rules.json"


@lru_cache(maxsize=1)
def load_rules() -> NerRules:
    raw = json.loads(resources.files("perseus").joinpath(RULES_FILE).read_text(encoding="utf-8"))
    sections = raw["sections"]
    # Every section keyword starts at a word boundary: one \b ahead of the
    # sections, which keep their file order before the number.
    keywords = "|".join(rf"(?P<s{i}>(?:{rule['keyword']})\b)" for i, rule in enumerate(sections))
    scanner = rf"\b(?:{keywords})|(?P<num>{raw['number_pattern']})"
    direction = rf"(?P<long>{raw['long_pattern']})|(?P<short>{raw['short_pattern']})"
    return NerRules(
        version=int(raw["version"]),
        ticker_patterns=tuple(re.compile(p) for p in raw["ticker_patterns"]),
        direction_pattern=re.compile(direction, re.IGNORECASE),
        scanner=re.compile(scanner, re.IGNORECASE),
        buckets=tuple(rule["bucket"] for rule in sections),
        ordinal_label_max=int(raw["ordinal_label_max"]),
        exchange_pattern=re.compile(raw["exchange_pattern"], re.IGNORECASE),
    )


def normalize_symbol(token: str) -> str:
    """Strip quote-currency affixes and separators, upper-case the rest.

    ``"BTC_STORJ"`` becomes ``"STORJ"``; a bare quote currency such as
    ``"BTC"`` is left alone (stripping it would leave nothing).
    """
    sym = token.strip().upper().strip(SEPARATORS)
    for quote in sorted(QUOTE_CURRENCIES, key=len, reverse=True):
        if sym.endswith(quote) and len(sym) > len(quote):
            sym = sym[: -len(quote)].rstrip(SEPARATORS)
            break
        if sym.startswith(quote) and len(sym) > len(quote):
            rest = sym[len(quote):]
            if rest[0] in SEPARATORS:
                sym = rest.lstrip(SEPARATORS)
                break
    if not sym:
        raise ValueError(f"symbol {token!r} is empty after stripping")
    return sym


def parse_timestamp(value: str) -> datetime:
    """Accept ISO-8601 or the corpus' MM-DD-YYYY HH:MM:SS form; naive means UTC."""
    try:
        ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        try:
            ts = datetime.strptime(value, "%m-%d-%Y %H:%M:%S")
        except ValueError as exc:
            raise ValueError(f"unrecognized timestamp {value!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _find_tickers(text: str, rules: NerRules) -> list[str]:
    found: list[str] = []
    for pattern in rules.ticker_patterns:
        for match in pattern.finditer(text):
            sym = normalize_symbol(match.group(1))
            if sym not in found:
                found.append(sym)
    return found


def _find_direction(text: str, rules: NerRules) -> Optional[TradeDirection]:
    match = rules.direction_pattern.search(text)
    if match is None:
        return None
    return TradeDirection.LONG if match.lastgroup == "long" else TradeDirection.SHORT


def _scan_prices(text: str, rules: NerRules) -> dict[str, list[Decimal]]:
    """Walk the text once, routing number tokens into the active price bucket."""
    out: dict[str, list[Decimal]] = {"entry": [], "target": [], "stop": []}
    bucket: Optional[str] = None
    for match in rules.scanner.finditer(text):
        name = match.lastgroup
        if name != "num":
            bucket = rules.buckets[int(name[1:])]
            continue
        if bucket is None or bucket == "ignore":
            continue
        token = match.group("num")
        if bucket in ("target", "stop") and "." not in token:
            if int(token) <= rules.ordinal_label_max:
                continue  # list label like "Target 3", not a price
        try:
            value = Decimal(token)
        except InvalidOperation:  # pragma: no cover - the regex guards this
            continue
        if value > 0:
            out[bucket].append(value)
    return out


def _extract(raw: RawMessage, pid: int, rules: NerRules) -> tuple[Optional[CrowdPumpMessage], Optional[str]]:
    if not raw.text.strip():
        return None, SKIP_NO_ENTITIES
    tickers = _find_tickers(raw.text, rules)
    if not tickers:
        return None, SKIP_NO_ENTITIES
    if len(tickers) > 1:
        return None, SKIP_AMBIGUOUS
    prices = _scan_prices(raw.text, rules)
    if not prices["target"]:
        return None, SKIP_NO_ENTITIES
    direction = _find_direction(raw.text, rules)
    if direction is None:
        # fall back to the price geometry of the signal
        if prices["entry"]:
            direction = (
                TradeDirection.LONG
                if prices["entry"][0] <= prices["target"][0]
                else TradeDirection.SHORT
            )
        else:
            return None, SKIP_NO_ENTITIES
    exch = rules.exchange_pattern.search(raw.text)
    message = CrowdPumpMessage(
        pid=pid,
        entity_id=raw.channel_id,
        trade_direction=direction,
        source_datetime=raw.timestamp,
        exchange=exch.group(1).upper() if exch else "Unspecified",
        cryptocurrency=tickers[0],
        channel_participants=raw.channel_participants,
        entry_prices=tuple(prices["entry"]),
        target_prices=tuple(prices["target"]),
        stop_loss=prices["stop"][0] if prices["stop"] else None,
        message_text=raw.text,
    )
    return message, None


def iter_corpus_lines(lines: Iterable[str]) -> Iterator[tuple[int, Optional[RawMessage], Optional[str]]]:
    """Yield (line_number, raw_message_or_None, error) for every non-blank line."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            raw = RawMessage(
                channel_id=str(obj["channel_id"]),
                timestamp=parse_timestamp(str(obj["timestamp"])),
                text=str(obj["text"]),
                channel_participants=int(obj.get("channel_participants", 0)),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            yield lineno, None, str(exc)
            continue
        yield lineno, raw, None


def parse_corpus(
    lines: Iterable[str], rules: NerRules | None = None
) -> tuple[list[CrowdPumpMessage], SkipReport]:
    """Parse a JSON-lines corpus into crowd-pump messages plus a skip report.

    Accepted messages get sequential pids in input order and come back sorted
    by (source_datetime, pid). Malformed lines are counted as parse errors and
    logged with their position, never raised.
    """
    rules = rules or load_rules()
    report = SkipReport()
    messages: list[CrowdPumpMessage] = []
    next_pid = 1
    for lineno, raw, error in iter_corpus_lines(lines):
        if raw is None:
            report.record(SKIP_PARSE_ERROR)
            logger.warning("corpus line %d unparseable: %s", lineno, error)
            continue
        message, reason = _extract(raw, next_pid, rules)
        if message is None:
            report.record(reason)
            logger.debug("corpus line %d (%s): skipped (%s)", lineno, raw.channel_id, reason)
            continue
        messages.append(message)
        next_pid += 1
    messages.sort(key=lambda m: (m.source_datetime, m.pid))
    return messages, report


# --- serialization -----------------------------------------------------------
#
# One messages.jsonl line holds the eleven fields in a fixed order. Strings are
# escaped as json.dumps escapes them (encode_basestring_ascii is its escaper),
# and prices are printed in plain decimal notation: json.dumps cannot write a
# Decimal without a float detour, which would break the exact round-trip this
# module promises.


def _prices(prices: Iterable[Decimal]) -> str:
    return "[" + ", ".join(format(p, "f") for p in prices) + "]"


def message_to_json(m: CrowdPumpMessage) -> str:
    stop = "null" if m.stop_loss is None else format(m.stop_loss, "f")
    return (
        f'{{"PID": {m.pid}, "entity_id": {_quote(m.entity_id)}, '
        f'"trade_direction": {_quote(m.trade_direction.value)}, '
        f'"source_datetime": {_quote(m.source_datetime.isoformat())}, '
        f'"exchange": {_quote(m.exchange)}, "cryptocurrency": {_quote(m.cryptocurrency)}, '
        f'"channel_participants": {m.channel_participants}, '
        f'"entry_prices": {_prices(m.entry_prices)}, "target_prices": {_prices(m.target_prices)}, '
        f'"stop_loss": {stop}, "message_text": {_quote(m.message_text)}}}'
    )


def _message(obj: dict) -> CrowdPumpMessage:
    stop = obj.get("stop_loss")
    return CrowdPumpMessage(
        pid=int(obj["PID"]),
        entity_id=str(obj["entity_id"]),
        trade_direction=TradeDirection(obj["trade_direction"]),
        source_datetime=parse_timestamp(obj["source_datetime"]),
        exchange=str(obj["exchange"]),
        cryptocurrency=str(obj["cryptocurrency"]),
        channel_participants=int(obj["channel_participants"]),
        entry_prices=tuple(_as_decimal(p) for p in obj["entry_prices"]),
        target_prices=tuple(_as_decimal(p) for p in obj["target_prices"]),
        stop_loss=_as_decimal(stop) if stop is not None else None,
        message_text=str(obj["message_text"]),
    )


def _as_decimal(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    try:
        return Decimal(str(value))
    except InvalidOperation:
        raise ValueError(f"{value!r} is not a decimal number") from None


def write_messages(path: Path | str, messages: Sequence[CrowdPumpMessage]) -> None:
    write_jsonl(path, messages, message_to_json)


def read_messages(path: Path | str) -> list[CrowdPumpMessage]:
    """The messages write_messages wrote; a malformed line, or no message
    at all, raises ValueError naming the file."""
    messages = list(read_jsonl(path, _message, parse_float=Decimal))
    if not messages:
        raise ValueError(f"{path}: no messages")
    return messages


def raw_message_to_json(raw: RawMessage) -> str:
    return json.dumps(
        {
            "channel_id": raw.channel_id,
            "timestamp": raw.timestamp.isoformat(),
            "text": raw.text,
            "channel_participants": raw.channel_participants,
        }
    )


def write_raw_messages(path: Path | str, raws: Sequence[RawMessage]) -> None:
    write_jsonl(path, raws, raw_message_to_json)


def read_corpus(
    path: Path | str, rules: NerRules | None = None
) -> tuple[list[CrowdPumpMessage], SkipReport]:
    """parse_corpus over a JSON-lines file; text that is not UTF-8 is a
    ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_corpus(fh, rules)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None

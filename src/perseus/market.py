"""Price-series handling and per-message market outcomes.

Outcomes are judged inside a 72-hour window after each announcement: the
direction-aware extreme return and how many of the announced targets the
price actually reached.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .ingest import CrowdPumpMessage, TradeDirection, normalize_symbol, parse_timestamp

OUTCOME_WINDOW = timedelta(hours=72)
FORWARD_FILL_LIMIT = timedelta(minutes=10)

RETURN_DIRECTION_AWARE = "direction_aware"
RETURN_PAPER_LITERAL = "paper_literal"
RETURN_RULES = (RETURN_DIRECTION_AWARE, RETURN_PAPER_LITERAL)

PRICE_HEADER = "timestamp,price,volume"
# numpy 1.23 replaced loadtxt's Python parser with a C one that converts each
# field like float() or rejects it; the Python parser also read "0x.." as hex.
_C_LOADTXT = np.lib.NumpyVersion(np.__version__) >= "1.23.0"


class PriceFileError(ValueError):
    """A price CSV that cannot be read as a series; the message names it."""


@dataclass
class PriceSeries:
    """Strictly time-ordered (timestamp, price, volume) triples for one pair;
    stamps are finite and prices finite and positive."""

    pair: str
    ts: np.ndarray      # POSIX seconds, float64
    price: np.ndarray
    volume: np.ndarray

    def __post_init__(self) -> None:
        self.ts = np.asarray(self.ts, dtype=np.float64)
        self.price = np.asarray(self.price, dtype=np.float64)
        self.volume = np.asarray(self.volume, dtype=np.float64)
        if not (len(self.ts) == len(self.price) == len(self.volume)):
            raise ValueError(f"{self.pair}: column lengths differ")
        if len(self.ts) == 0:
            raise ValueError(f"{self.pair}: empty series")
        if not np.isfinite(self.ts).all() or np.any(np.diff(self.ts) <= 0):
            raise ValueError(f"{self.pair}: timestamps must be finite and strictly increasing")
        if not (np.isfinite(self.price) & (self.price > 0)).all():
            raise ValueError(f"{self.pair}: prices must be finite and positive")

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class MarketOutcome:
    pid: int
    announcement_price: float
    extreme_price: float
    max_return: float
    targets_achieved: int
    targets_total: int


def _posix(when: datetime) -> float:
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when.timestamp()


def load_price_csv(path: Path | str, pair: str | None = None) -> PriceSeries:
    """Read a price CSV with columns `timestamp`, `price` and `volume` in any
    order; timestamps are epoch milliseconds or ISO-8601.

    A file whose header is exactly `timestamp,price,volume` is parsed by one
    `np.loadtxt` call. Anything that parser rejects or cannot read as three
    columns (ISO stamps, reordered columns, malformed rows) goes through the
    `csv.DictReader` loop, which raises the same errors it always has.
    """
    path = Path(path)
    pair = pair or path.stem
    with open(path, newline="", encoding="utf-8") as fh:
        if _C_LOADTXT and fh.readline().rstrip("\r\n") == PRICE_HEADER:
            columns = _read_columns(fh)
            if columns is not None:
                return PriceSeries(pair, columns[:, 0] / 1000.0, columns[:, 1], columns[:, 2])
        fh.seek(0)
        ts, price, volume = [], [], []
        for row in csv.DictReader(fh):
            stamp = row["timestamp"].strip()
            try:
                ts.append(float(stamp) / 1000.0)
            except ValueError:
                ts.append(_posix(parse_timestamp(stamp)))
            price.append(float(row["price"]))
            volume.append(float(row["volume"]))
    return PriceSeries(pair, np.array(ts), np.array(price), np.array(volume))


def _read_columns(fh: TextIO) -> Optional[np.ndarray]:
    """The rest of `fh` as an (n, 3) float array with n >= 1, or None when
    numpy cannot parse it as that."""
    with warnings.catch_warnings():
        # A header-only file: the csv loop reports it as an empty series.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            # comments=None: the default "#" would accept rows float() rejects.
            a = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64, comments=None)
        except ValueError:
            return None
    return a if a.shape[1] == 3 and len(a) else None


def price_files(directory: Path | str) -> list[Path]:
    """The price CSVs of `directory` that are regular files, in the order
    they are loaded."""
    directory = Path(directory)
    return sorted(p for p in directory.glob("*.csv") if p.is_file())


def iter_price_dir(directory: Path | str) -> Iterator[PriceSeries]:
    """The files of `price_files(directory)` as series, loaded one at a time:
    none is read before the previous one is asked for, and none is kept once
    yielded. Raises PriceFileError naming a file that cannot be read."""
    for path in price_files(directory):
        yield _load_price_file(path)


def load_price_dir(directory: Path | str) -> dict[str, PriceSeries]:
    """Every series of `iter_price_dir(directory)`, keyed by file stem."""
    return {series.pair: series for series in iter_price_dir(directory)}


def _load_price_file(path: Path) -> PriceSeries:
    try:
        # The coin compute_outcomes will take from the name.
        normalize_symbol(path.stem)
        return load_price_csv(path)
    except KeyError as exc:
        raise PriceFileError(f"{path}: no column {exc}") from exc
    except (TypeError, AttributeError) as exc:
        # csv.DictReader fills the missing fields of a short row with None.
        raise PriceFileError(f"{path}: a row has too few fields") from exc
    except ValueError as exc:
        raise PriceFileError(f"{path}: {exc}") from exc


def write_price_csv(path: Path | str, series: PriceSeries) -> None:
    """Write `series` with the exact `timestamp,price,volume` header, epoch
    milliseconds and `\\r\\n` line ends, as `csv.writer` would."""
    ms = np.rint(series.ts * 1000).astype(np.int64).tolist()
    rows = zip(ms, series.price.tolist(), series.volume.tolist())
    lines = [PRICE_HEADER, *(f"{m},{p!r},{v!r}" for m, p, v in rows)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def compute_outcomes(
    messages: Iterable[CrowdPumpMessage],
    series: Iterable[PriceSeries],
    rule: str = RETURN_DIRECTION_AWARE,
) -> tuple[dict[int, MarketOutcome], list[int]]:
    """Outcomes keyed by pid, plus the pids whose coin had no usable data.

    The coin of a series is `normalize_symbol(series.pair)`. Each series
    judges its coin's messages as it arrives and is dropped before the next
    is drawn, so a one-pass `iter_price_dir` holds one series at a time. A
    later series of a coin replaces the results of an earlier one.
    """
    if rule not in RETURN_RULES:
        raise ValueError(f"unknown return rule {rule!r}")
    messages = list(messages)
    by_coin: dict[str, list[CrowdPumpMessage]] = {}
    for message in messages:
        by_coin.setdefault(message.cryptocurrency, []).append(message)
    judged: dict[str, dict[int, MarketOutcome]] = {}
    for s in series:
        coin = normalize_symbol(s.pair)
        judged[coin] = _judge(s, by_coin[coin], rule) if coin in by_coin else {}
        # Else the loop variable keeps this series alive while the next loads.
        del s
    outcomes = {pid: o for results in judged.values() for pid, o in results.items()}
    return outcomes, [m.pid for m in messages if m.pid not in outcomes]


def _judge(series: PriceSeries, messages: list[CrowdPumpMessage], rule: str) -> dict[int, MarketOutcome]:
    """The outcomes of one coin's messages over the window after each
    announcement; a message without an announcement price has none.

    The announcement price is the last point at or before the message, else
    the first point within FORWARD_FILL_LIMIT after it. The announcement
    point takes part in both window extremes. Long measures the rise to the
    window maximum, short the fall to the window minimum;
    `rule="paper_literal"` applies the long formula regardless of direction.
    A target counts as achieved when the window reached it in the signal's
    direction.
    """
    ts, price = series.ts, series.price
    t = np.array([_posix(m.source_datetime) for m in messages])
    lo = np.searchsorted(ts, t, side="right")
    hi = np.searchsorted(ts, t + OUTCOME_WINDOW.total_seconds(), side="right")
    announced = (lo > 0) | (ts[0] <= t + FORWARD_FILL_LIMIT.total_seconds())
    # Before the first point, lo is 0 and the forward fill is that point.
    p0 = price[np.maximum(lo - 1, 0)]
    # Window k is price[lo[k]:hi[k]]; the pad keeps hi == len(ts) a valid
    # index, and an empty window yields a value that p0 replaces.
    bounds = np.column_stack([lo, hi]).ravel()
    padded = np.append(price, price[-1])
    empty = lo == hi
    high = np.maximum(p0, np.where(empty, p0, np.maximum.reduceat(padded, bounds)[::2]))
    low = np.minimum(p0, np.where(empty, p0, np.minimum.reduceat(padded, bounds)[::2]))
    is_long = np.array([m.trade_direction is TradeDirection.LONG for m in messages])
    up = is_long | (rule == RETURN_PAPER_LITERAL)
    extreme = np.where(up, high, low)
    ret = np.where(up, high - p0, p0 - low) / p0
    # A long target is reached at or below the high, a short one at or above the low.
    reach = np.where(is_long, high, low)
    results = {}
    rows = zip(messages, announced.tolist(), is_long.tolist(), p0.tolist(), extreme.tolist(),
               ret.tolist(), reach.tolist())
    for message, ok, long_, p, e, r, b in rows:
        if not ok:
            continue
        targets = [float(x) for x in message.target_prices]
        results[message.pid] = MarketOutcome(
            pid=message.pid,
            announcement_price=p,
            extreme_price=e,
            max_return=r,
            targets_achieved=sum(1 for x in targets if (x <= b if long_ else x >= b)),
            targets_total=len(targets),
        )
    return results

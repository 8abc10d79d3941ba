"""Price lookup, outcome windows, and outcome files."""

import json
import warnings
from dataclasses import asdict, replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import numpy as np
import pytest

import oracles
from perseus import market
from perseus.ingest import CrowdPumpMessage, TradeDirection, parse_corpus
from perseus.jsonfile import read_jsonl, write_jsonl
from perseus.market import (
    FORWARD_FILL_LIMIT,
    OUTCOME_WINDOW,
    PriceFileError,
    PriceSeries,
    RETURN_DIRECTION_AWARE,
    RETURN_PAPER_LITERAL,
    RETURN_RULES,
    compute_outcomes,
    iter_price_dir,
    load_price_csv,
    load_price_dir,
    write_price_csv,
)
from perseus.synth import SynthConfig, generate_corpus, generate_prices

T0 = datetime(2024, 3, 1, 10, 0, 0, tzinfo=timezone.utc)


def series(points, pair="SUIUSDT"):
    """Build a PriceSeries from (minute offset, price) tuples."""
    ts = np.array([(T0 + timedelta(minutes=m)).timestamp() for m, _ in points])
    price = np.array([p for _, p in points], dtype=float)
    return PriceSeries(pair=pair, ts=ts, price=price)


def signal(direction=TradeDirection.LONG, targets=("1.1",), coin="SUI", minute=0, pid=1):
    return CrowdPumpMessage(
        pid=pid,
        entity_id="chan",
        trade_direction=direction,
        source_datetime=T0 + timedelta(minutes=minute),
        exchange="Unspecified",
        cryptocurrency=coin,
        channel_participants=0,
        entry_prices=(Decimal("1.0"),),
        target_prices=tuple(Decimal(t) for t in targets),
        stop_loss=None,
        message_text="t",
    )


def outcome(s, message, rule=RETURN_DIRECTION_AWARE):
    """The outcome of one message judged on one series."""
    outcomes, missing = compute_outcomes([message], [s], rule)
    assert missing == []
    return outcomes[message.pid]


def announced(s, minute):
    """The announcement price of a message `minute` minutes after T0."""
    return outcome(s, signal(minute=minute)).announcement_price


def targets(s, message):
    """(achieved, total) targets of one message's outcome."""
    out = outcome(s, message)
    return out.targets_achieved, out.targets_total


def test_series_validation():
    with pytest.raises(ValueError):
        series([(0, 100.0), (0, 101.0)])  # duplicate timestamp
    with pytest.raises(ValueError):
        series([(0, 100.0), (1, 0.0)])  # nonpositive price


@pytest.mark.parametrize(
    "ts, price, reason",
    [
        ([1.0, np.nan, 0.5], [1.0, 1.0, 1.0], "timestamps"),
        ([np.nan], [1.0], "timestamps"),
        ([1.0, np.inf], [1.0, 1.0], "timestamps"),
        ([1.0, 2.0], [1.0, np.nan], "prices"),
        ([1.0, 2.0], [np.inf, 1.0], "prices"),
    ],
    ids=["nan_stamp_between", "nan_stamp_alone", "inf_stamp", "nan_price", "inf_price"],
)
def test_series_rejects_non_finite_stamps_and_prices(ts, price, reason):
    with pytest.raises(ValueError, match=f"{reason} must be finite"):
        PriceSeries("XUSDT", ts, price)


def test_price_at_last_point_at_or_before():
    s = series([(0, 100.0), (5, 102.0)])
    assert announced(s, 3) == 100.0
    assert announced(s, 5) == 102.0
    assert announced(s, 0) == 100.0


def test_price_at_forward_fills_up_to_ten_minutes():
    s = series([(4, 100.0)])
    assert announced(s, 0) == 100.0
    outcomes, missing = compute_outcomes([signal(pid=9)], [series([(11, 100.0)])])
    assert outcomes == {}
    assert missing == [9]


def test_long_max_return_worked_example():
    s = series([(0, 100.0), (60, 110.0), (120, 95.0)])
    assert outcome(s, signal()).max_return == pytest.approx(0.10, abs=1e-12)


def test_short_max_return_mirrors():
    s = series([(0, 100.0), (60, 90.0), (120, 105.0)])
    short = signal(direction=TradeDirection.SHORT)
    assert outcome(s, short).max_return == pytest.approx(0.10, abs=1e-12)


def test_paper_literal_rule_uses_the_high_for_shorts():
    s = series([(0, 100.0), (60, 90.0), (120, 105.0)])
    short = signal(direction=TradeDirection.SHORT)
    assert outcome(s, short, rule=RETURN_PAPER_LITERAL).max_return == pytest.approx(0.05, abs=1e-12)
    for direction in TradeDirection:
        with pytest.raises(ValueError):
            compute_outcomes([signal(direction=direction)], [s], rule="optimistic")


def test_announcement_point_caps_losses_at_zero():
    declining = series([(0, 100.0), (60, 95.0), (120, 90.0)])
    assert outcome(declining, signal()).max_return == 0.0


def test_window_is_open_at_announcement_closed_at_72h():
    inside = series([(0, 100.0), (72 * 60, 120.0)])
    assert outcome(inside, signal()).max_return == pytest.approx(0.20, abs=1e-12)
    outside = series([(0, 100.0), (30, 101.0), (72 * 60 + 1, 120.0)])
    assert outcome(outside, signal()).max_return == pytest.approx(0.01, abs=1e-12)


def test_direction_symmetry_on_inverted_series_at_tick_scale():
    # a short on the reciprocal series sees the same relative move to first
    # order; at a 1e-5 move the second-order gap is ~1e-10
    move = 1e-5
    s = series([(0, 1.0), (60, 1.0 + move)])
    inverted = PriceSeries(pair=s.pair, ts=s.ts.copy(), price=1.0 / s.price)
    long_leg = outcome(s, signal()).max_return
    short_leg = outcome(inverted, signal(direction=TradeDirection.SHORT)).max_return
    assert long_leg == pytest.approx(move, rel=1e-6)
    assert abs(long_leg - short_leg) < 1e-9


def test_targets_achieved_worked_examples():
    s = series([(0, 100.0), (60, 110.0)])
    assert targets(s, signal(targets=("105", "111"))) == (1, 2)
    assert targets(s, signal(targets=("115", "120", "130"))) == (0, 3)


def test_targets_achieved_of_the_short_contract_listing():
    lines = [
        json.dumps(
            {
                "channel_id": "-1001313911314",
                "timestamp": "2024-03-01T10:00:00Z",
                "text": (
                    "SCAPING300. VETUSDT. Direction: SHORT. Leverage: Cross 20x. "
                    "Entry: 0.03518, 0.03528. Stoploss: 0.037994. "
                    "SCALPING: Target1 - 0.035004, Target2 - 0.034828, Target3 - 0.034476. "
                    "DAY TRADING: Target4 - 0.034124, Target5 - 0.033772, Target6 - 0.033421. "
                    "SWING TRADING: Target7 - 0.033069, Target8 - 0.032717"
                ),
            }
        )
    ]
    (msg,), _ = parse_corpus(lines)
    # the low dips just under target 3 and stays above target 4
    s = series([(0, 0.03518), (120, 0.034476 - 1e-7), (240, 0.0350)], pair="VETUSDT")
    assert targets(s, msg) == (3, 8)


def test_targets_achieved_is_monotone_in_the_window():
    s = series([(0, 100.0), (30, 104.0), (48 * 60, 112.0)])
    # A series that ends within the hour judges the message as a one-hour window would.
    first_hour = series([(0, 100.0), (30, 104.0)])
    early = targets(first_hour, signal(targets=("103", "111")))
    late = targets(s, signal(targets=("103", "111")))
    assert early == (1, 2)
    assert late == (2, 2)
    assert late[0] >= early[0]


def test_compute_outcomes_collects_missing_pids():
    msgs = [signal(pid=1), signal(pid=2, coin="ARB")]
    s = series([(0, 100.0), (60, 110.0)])
    outcomes, missing = compute_outcomes(msgs, [s])
    assert missing == [2]
    out = outcomes[1]
    assert out.announcement_price == 100.0
    assert out.extreme_price == 110.0
    assert out.max_return == pytest.approx(0.10)
    assert (out.targets_achieved, out.targets_total) == (1, 1)


def test_a_later_series_of_a_coin_replaces_the_earlier_results():
    msgs = [signal(pid=1), signal(pid=2, minute=120), signal(pid=3, coin="ARB")]
    early = series([(0, 100.0), (60, 110.0)], pair="SUIBUSD")
    late = series([(90, 50.0), (150, 60.0)], pair="SUIUSDT")
    outcomes, missing = compute_outcomes(msgs, iter([early, late]))
    # pid 1 comes 90 minutes before the later series starts.
    assert missing == [1, 3]
    assert sorted(outcomes) == [2]
    assert outcomes[2].announcement_price == 50.0


WINDOW_S = OUTCOME_WINDOW.total_seconds()
FILL_S = FORWARD_FILL_LIMIT.total_seconds()
# Message offsets from a bar, in seconds: on the bar, either side of it, at
# and around the forward-fill limit, and with the window ending on the bar.
OFFSETS = (0, 1, -1, -FILL_S, -FILL_S - 1, -FILL_S + 1, -WINDOW_S, -WINDOW_S - 1, -WINDOW_S + 1)


def random_case(rng):
    """Messages and price series with irregular whole-second stamps for one
    to three coins; the later coins may have no series, or two of them."""
    messages, all_series = [], []
    for c in range(int(rng.integers(1, 4))):
        coin = f"C{c}"
        n = int(rng.integers(1, 25))
        gaps = rng.choice([1, 60, 599, 600, 3600, 6 * 3600, 30 * 3600], size=n)
        ts = T0.timestamp() + np.cumsum(gaps).astype(float)
        price = rng.choice([0.5, 1.0, 1.5, 2.0], size=n) + rng.integers(0, 3, size=n) * 0.25
        draws = rng.random()
        if c == 0 or draws > 0.2:
            all_series.append(PriceSeries(f"{coin}USDT", ts, price))
        if draws > 0.85:
            all_series.append(PriceSeries(f"{coin}BUSD", ts[::2], price[::2] * 2))
        for _ in range(int(rng.integers(1, 12))):
            k = int(rng.integers(n))
            if rng.random() < 0.7:
                t = ts[k] + OFFSETS[int(rng.integers(len(OFFSETS)))]
            else:
                t = ts[k] + float(rng.integers(-2 * 86400, 4 * 86400))
            # Targets on window prices, so some sit exactly on an extreme.
            targets = [repr(float(x)) for x in rng.choice(price, size=int(rng.integers(1, 5)))]
            targets += [repr(float(rng.uniform(0.4, 2.6)))] * int(rng.integers(0, 2))
            direction = TradeDirection.LONG if rng.random() < 0.5 else TradeDirection.SHORT
            message = signal(direction=direction, targets=targets, coin=coin, pid=len(messages) + 1)
            messages.append(replace(message, source_datetime=datetime.fromtimestamp(t, timezone.utc)))
    return messages, all_series


def test_bulk_judge_matches_the_per_message_reference():
    rng = np.random.default_rng(24)
    judged = missed = 0
    for _ in range(250):
        messages, all_series = random_case(rng)
        for rule in RETURN_RULES:
            got = compute_outcomes(messages, all_series, rule)
            assert got == oracles.reference_compute_outcomes(messages, all_series, rule)
            judged, missed = judged + len(got[0]), missed + len(got[1])
    assert judged > 1000 and missed > 1000


def test_outcome_file_round_trip(tmp_path):
    s = series([(0, 100.0), (60, 110.0)])
    outcomes, _ = compute_outcomes([signal(pid=5)], [s])
    path = tmp_path / "outcomes.jsonl"
    write_jsonl(path, (asdict(outcomes[pid]) for pid in sorted(outcomes)))
    rows = list(read_jsonl(path))
    assert rows == [
        {
            "pid": 5,
            "announcement_price": 100.0,
            "extreme_price": 110.0,
            "max_return": outcomes[5].max_return,
            "targets_achieved": 1,
            "targets_total": 1,
        }
    ]


def test_price_csv_round_trip(tmp_path):
    s = series([(0, 100.0), (1, 101.5)])
    path = tmp_path / "SUIUSDT.csv"
    write_price_csv(path, s)
    again = load_price_csv(path)
    assert again.pair == "SUIUSDT"
    np.testing.assert_array_equal(again.ts, s.ts)
    np.testing.assert_array_equal(again.price, s.price)
    assert path.read_bytes() == b"timestamp,price\r\n1709287200000,100.0\r\n1709287260000,101.5\r\n"


def test_price_csv_accepts_iso_timestamps(tmp_path):
    path = tmp_path / "ARBUSDT.csv"
    path.write_text(
        "timestamp,price,volume\n"
        "2024-03-01T10:00:00Z,1.5,10\n"
        "2024-03-01T10:01:00Z,1.6,11\n"
    )
    s = load_price_csv(path)
    assert s.pair == "ARBUSDT"
    assert s.price.tolist() == [1.5, 1.6]
    assert s.ts[0] == T0.timestamp()


HEADER = "timestamp,price,volume\r\n"
PRICE_FILES = {
    "epoch_ms": HEADER + "1709287200000,1.5,10\r\n1709287260000,1.625,0.0\r\n",
    "iso": HEADER + "2024-03-01T10:00:00Z,1.5,10\r\n2024-03-01T10:01:00Z,1.6,11\r\n",
    "one_row": HEADER + "1709287200000,0.000123,7\r\n",
    "reordered": "price,volume,timestamp\n1.5,10,1709287200000\n1.6,11,1709287260000\n",
    "blank_line": HEADER + "2000,1.5,3\r\n\r\n3000,1.6,4\r\n",
    "padded": HEADER + " 2000 , 1.5 ,3\r\n3000,  1.6, 4 \r\n",
    "extra_column": HEADER + "2000,1.5,3,9\r\n3000,1.6,4,9\r\n",
    "short_row": HEADER + "2000,1.5,3\r\n3000\r\n",
    "short_rows": HEADER + "2000,1.5\r\n3000,1.6\r\n",
    "trailing_comment": HEADER + "2000,1.5,3 # c\r\n",
    "hash_line": HEADER + "#x\r\n2000,1.5,3\r\n",
    "underscore": HEADER + "1_000,1.5,3\r\n2000,1.6,4\r\n",
    "hex": HEADER + "0x10,1.5,3\r\n",
    "header_only": HEADER,
    "lf_only": "timestamp,price,volume\n2000,1.5,3\n3000,1.6,4\n",
    "cr_only": "timestamp,price,volume\r2000,1.5,3\r3000,1.6,4\r",
    "not_increasing": HEADER + "3000,1.5,3\r\n2000,1.6,4\r\n",
    "zero_price": HEADER + "2000,0,3\r\n",
    "text": HEADER + "2000,abc,3\r\n",
    "no_volume": "timestamp,price\r\n2000,1.5\r\n",
    "two_columns": "timestamp,price\r\n1709287200000,1.5\r\n1709287260000,1.625\r\n",
    "no_price": "timestamp,volume\r\n2000,3\r\n",
    "price_first": "price,timestamp\r\n1.5,2000\r\n",
    "repeated_price": "timestamp,price,price\r\n2000,1.5,2.5\r\n",
    "quoted_price": HEADER + '2000,"1.5",3\r\n',
    "quoted_line_break": HEADER + '2000,1.5,"x\r\n3000,1.6,y"\r\n4000,1.7,4\r\n',
    "quoted_header": 'timestamp,price,"x\r\n2000,1.5,y"\r\n3000,1.6\r\n',
    "nan_price": HEADER + "2000,nan,3\r\n3000,1.6,4\r\n",
    "inf_price": HEADER + "2000,1.5,3\r\n3000,inf,4\r\n",
    "nan_stamp": HEADER + "2000,1.5,3\r\nnan,1.6,4\r\n",
}


def _load(loader, path):
    try:
        return loader(path)
    except Exception as exc:  # the exception type is what the parity test compares
        return exc


@pytest.mark.parametrize("name", sorted(PRICE_FILES))
def test_price_loader_matches_the_row_loop(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(PRICE_FILES[name].encode())
    got = _load(load_price_csv, path)
    want = _load(oracles.reference_load_price_csv, path)
    if isinstance(want, Exception):
        assert type(got) is type(want), f"{got!r} != {want!r}"
    else:
        assert got.pair == want.pair
        for column in ("ts", "price"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column


@pytest.mark.skipif(not market._C_LOADTXT, reason="numpy < 1.23 reads every file row by row")
@pytest.mark.parametrize("name", ["epoch_ms", "two_columns", "extra_column", "short_rows"])
def test_a_file_led_by_timestamp_price_is_read_without_the_row_loop(tmp_path, monkeypatch, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(PRICE_FILES[name].encode())
    want = oracles.reference_load_price_csv(path)
    monkeypatch.setattr(market.csv, "DictReader", None)
    got = load_price_csv(path)
    assert np.array_equal(got.ts, want.ts) and np.array_equal(got.price, want.price)


def test_header_only_price_file_is_an_empty_series_without_a_warning(tmp_path):
    path = tmp_path / "EMPTYUSDT.csv"
    path.write_text(PRICE_FILES["header_only"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty series"):
            load_price_csv(path)


def test_price_writer_matches_the_row_loop_and_round_trips(tmp_path):
    config = SynthConfig(n_spreaders=8, n_masterminds=2, n_events=6, n_coins=2, seed=4)
    prices = generate_prices(generate_corpus(config).messages, config)
    assert prices
    for pair, s in prices.items():
        path, ref = tmp_path / f"{pair}.csv", tmp_path / f"{pair}.ref"
        write_price_csv(path, s)
        oracles.reference_write_price_csv(ref, s)
        assert path.read_bytes() == ref.read_bytes()
        again = load_price_csv(path)
        for column in ("ts", "price"):
            assert np.array_equal(getattr(again, column), getattr(s, column)), column


def test_price_writer_rounds_like_the_row_loop(tmp_path):
    """Sub-millisecond stamps round half to even, as round() does."""
    ms = 1709287200000 + np.array([0.5, 1.5, 2.5, 3.4, 3.6])
    price = np.array([0.1 + 0.2, 1e-7, 1e22, 3.0, 123.456])
    s = PriceSeries("HALFUSDT", ms / 1000, price)
    write_price_csv(tmp_path / "new.csv", s)
    oracles.reference_write_price_csv(tmp_path / "ref.csv", s)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "name, reason",
    [
        ("short_row", "a row has too few fields"),
        ("no_price", "no column 'price'"),
        ("text", "could not convert"),
        ("not_increasing", "strictly increasing"),
        ("nan_price", "prices must be finite"),
        ("inf_price", "prices must be finite"),
        ("nan_stamp", "timestamps must be finite"),
    ],
)
def test_price_dir_names_the_unreadable_file(tmp_path, name, reason):
    (tmp_path / "GOODUSDT.csv").write_text(PRICE_FILES["epoch_ms"])
    (tmp_path / "BADUSDT.csv").write_text(PRICE_FILES[name])
    with pytest.raises(PriceFileError, match=reason) as info:
        load_price_dir(tmp_path)
    assert "BADUSDT.csv" in str(info.value)


def test_iter_price_dir_reads_a_file_only_when_it_is_drawn(tmp_path):
    (tmp_path / "AUSDT.csv").write_text(PRICE_FILES["epoch_ms"])
    (tmp_path / "BUSDT.csv").write_text(PRICE_FILES["short_row"])
    files = iter_price_dir(tmp_path)
    assert next(files).pair == "AUSDT"
    with pytest.raises(PriceFileError, match="a row has too few fields") as info:
        next(files)
    assert "BUSDT.csv" in str(info.value)

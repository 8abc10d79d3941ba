"""Synthetic ground-truth networks, cascades and price series.

The real corpus is proprietary, so recovery experiments and end-to-end
tests run on generated data: a planted mastermind/accomplice network, an
independent-cascade message process over it rendered as parseable signal
texts, and price series with injected ramps that achieve each event's
targets at a configured rate.

Everything is deterministic under the seed. Target-hit counts are drawn
from a hash of (seed, pair, event index) rather than the shared RNG stream
so that price generation can reproduce them from the messages alone.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .ingest import CrowdPumpMessage, RawMessage, parse_corpus, raw_message_to_json
from .jsonfile import read_json, write_json
from .market import PriceSeries

EVENT_SPACING_HOURS = 112.0
EVENT_SPACING_JITTER_HOURS = 16.0
COIN_STAGGER_HOURS = 13.0
PEAK_LAG_HOURS = 6.0
DECAY_HOURS = 12.0
CLUSTER_GAP_HOURS = 48.0
MIN_DELAY_HOURS = 1.0 / 900.0  # four seconds
DEFAULT_START = datetime(2023, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class SynthConfig:
    n_spreaders: int = 30
    n_masterminds: int = 3
    n_events: int = 40
    n_coins: int = 2
    forward_prob: float = 0.5
    seed: int = 0
    price_drift: float = 0.0
    price_volatility: float = 0.0002
    target_hit_rate: float = 0.5
    intra_edge_prob: float = 0.1
    mean_delay_hours: float = 1.0
    targets_per_message: int = 5
    target_step: float = 0.02
    bar_minutes: int = 5
    start: datetime = DEFAULT_START

    def __post_init__(self) -> None:
        if not 0 < self.n_masterminds < self.n_spreaders:
            raise ValueError("need 0 < n_masterminds < n_spreaders")
        if not 0.0 < self.forward_prob <= 1.0:
            raise ValueError("forward_prob must be in (0, 1]")
        if self.n_events < 1 or self.n_coins < 1:
            raise ValueError("n_events and n_coins must be positive")
        if not 0.0 <= self.target_hit_rate <= 1.0:
            raise ValueError("target_hit_rate must be in [0, 1]")
        if self.start.tzinfo is None:
            raise ValueError("start must be timezone-aware")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.bar_minutes < 1:
            raise ValueError("bar_minutes must be at least 1")
        if self.targets_per_message < 1:
            raise ValueError("targets_per_message must be at least 1")
        if self.target_step < 0:
            raise ValueError("target_step must be non-negative")
        if self.mean_delay_hours < 0:
            raise ValueError("mean_delay_hours must be non-negative")

    def coin(self, k: int) -> str:
        return f"COIN{k:02d}"

    def pair(self, k: int) -> str:
        return f"{self.coin(k)}USDT"


@dataclass(frozen=True)
class GroundTruth:
    """Planted network: who points at whom, and who the masterminds are."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: dict[str, int]
    communities: dict[str, int]

    @property
    def masterminds(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self.labels[n] == 1)

    def adjacency(self) -> np.ndarray:
        index = {n: i for i, n in enumerate(self.nodes)}
        adj = np.zeros((len(self.nodes), len(self.nodes)))
        for src, dst in self.edges:
            adj[index[src], index[dst]] = 1.0
        return adj

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "labels": self.labels,
            "communities": self.communities,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroundTruth":
        return cls(
            nodes=tuple(obj["nodes"]),
            edges=tuple((s, d) for s, d in obj["edges"]),
            labels={k: int(v) for k, v in obj["labels"].items()},
            communities={k: int(v) for k, v in obj["communities"].items()},
        )


@dataclass(frozen=True)
class CascadePlan:
    """One generated event: who was reached and the shared price ladder."""

    coin: str
    cluster_index: int
    root: str
    activations: tuple[tuple[str, datetime], ...]
    entry: float
    targets: tuple[float, ...]
    stop: float


def generate_network(config: SynthConfig) -> GroundTruth:
    """Masterminds feeding disjoint accomplice communities.

    Every mastermind points at each member of its community; accomplices
    get sparse directed edges among community peers.
    """
    rng = np.random.default_rng(config.seed)
    names = tuple(f"channel{i:03d}" for i in range(config.n_spreaders))
    mm_idx = set(
        int(i)
        for i in rng.choice(config.n_spreaders, size=config.n_masterminds, replace=False)
    )
    masterminds = [names[i] for i in sorted(mm_idx)]
    accomplices = [n for i, n in enumerate(names) if i not in mm_idx]
    communities: dict[str, int] = {}
    for c, m in enumerate(masterminds):
        communities[m] = c
    members: list[list[str]] = [[] for _ in masterminds]
    for k, node in enumerate(accomplices):
        c = k % config.n_masterminds
        communities[node] = c
        members[c].append(node)
    edges: list[tuple[str, str]] = []
    for c, m in enumerate(masterminds):
        for node in members[c]:
            edges.append((m, node))
    for c in range(config.n_masterminds):
        group = members[c]
        for a in group:
            for b in group:
                if a != b and rng.random() < config.intra_edge_prob:
                    edges.append((a, b))
    mastermind_set = set(masterminds)
    labels = {n: (1 if n in mastermind_set else 0) for n in names}
    return GroundTruth(
        nodes=names,
        edges=tuple(edges),
        labels=labels,
        communities=communities,
    )


def _hit_count(config: SynthConfig, pair: str, cluster_index: int) -> int:
    """Deterministic Binomial(targets, hit_rate) draw keyed by event identity."""
    digest = hashlib.sha256(
        f"{config.seed}|{pair}|{cluster_index}".encode("utf-8")
    ).digest()
    u = int.from_bytes(digest, "big") / 2.0**256
    n, p = config.targets_per_message, config.target_hit_rate
    cumulative = 0.0
    for k in range(n + 1):
        cumulative += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if u < cumulative:
            return k
    return n


def _snap_to_bar(t: datetime, bar_minutes: int) -> datetime:
    epoch = int(t.timestamp())
    step = bar_minutes * 60
    return datetime.fromtimestamp(epoch - epoch % step, tz=timezone.utc)


def _spread(
    truth: GroundTruth,
    out_neighbors: dict[str, list[str]],
    root: str,
    t0: datetime,
    config: SynthConfig,
    rng: np.random.Generator,
) -> list[tuple[str, datetime]]:
    """Independent cascade from root: each edge fires once with forward_prob."""
    activated: dict[str, datetime] = {}
    heap: list[tuple[float, str]] = [(t0.timestamp(), root)]
    scheduled = {root: t0.timestamp()}
    while heap:
        ts, node = heapq.heappop(heap)
        if node in activated:
            continue
        when = datetime.fromtimestamp(ts, tz=timezone.utc)
        activated[node] = when
        for nxt in out_neighbors.get(node, ()):
            if nxt in activated:
                continue
            if rng.random() >= config.forward_prob:
                continue
            delay = max(float(rng.exponential(config.mean_delay_hours)), MIN_DELAY_HOURS)
            t_next = ts + delay * 3600.0
            if nxt not in scheduled or t_next < scheduled[nxt]:
                scheduled[nxt] = t_next
                heapq.heappush(heap, (t_next, nxt))
    return sorted(activated.items(), key=lambda kv: (kv[1], kv[0]))


def _format_price(value: float) -> str:
    return f"{value:.8f}"


def _render_text(entity: str, pair: str, plan_entry: float, targets: Sequence[float], stop: float) -> str:
    target_text = " ".join(_format_price(t) for t in targets)
    return (
        f"{entity} {pair} LONG Entry {_format_price(plan_entry)} "
        f"Targets {target_text} Stop loss {_format_price(stop)}"
    )


def generate_cascades(
    truth: GroundTruth, config: SynthConfig
) -> tuple[list[RawMessage], list[CascadePlan]]:
    """Render independent-cascade events as parseable signal messages.

    Event j runs on coin j mod n_coins from a mastermind chosen at random;
    every reached spreader posts the event's shared ladder under its own
    channel prefix (texts differ per channel, so no broadcast flags fire).
    """
    rng = np.random.default_rng(config.seed + 1)
    out_neighbors: dict[str, list[str]] = {}
    for src, dst in truth.edges:
        out_neighbors.setdefault(src, []).append(dst)
    for src in out_neighbors:
        out_neighbors[src].sort()
    masterminds = truth.masterminds
    clock_hours = [k * COIN_STAGGER_HOURS for k in range(config.n_coins)]
    per_coin_count = [0] * config.n_coins
    raw: list[RawMessage] = []
    plans: list[CascadePlan] = []
    for j in range(config.n_events):
        k = j % config.n_coins
        pair = config.pair(k)
        clock_hours[k] += EVENT_SPACING_HOURS + float(rng.uniform(0.0, EVENT_SPACING_JITTER_HOURS))
        t0 = _snap_to_bar(
            config.start + timedelta(hours=clock_hours[k]), config.bar_minutes
        )
        root = masterminds[int(rng.integers(len(masterminds)))]
        activations = _spread(truth, out_neighbors, root, t0, config, rng)
        entry = round(float(rng.uniform(0.5, 5.0)), 8)
        targets = tuple(
            round(entry * (1.0 + config.target_step * (i + 1)), 8)
            for i in range(config.targets_per_message)
        )
        stop = round(entry * (1.0 - 2.0 * config.target_step), 8)
        plan = CascadePlan(
            coin=config.coin(k),
            cluster_index=per_coin_count[k],
            root=root,
            activations=tuple(activations),
            entry=entry,
            targets=targets,
            stop=stop,
        )
        per_coin_count[k] += 1
        plans.append(plan)
        for entity, when in activations:
            audience = int.from_bytes(
                hashlib.sha256(entity.encode("utf-8")).digest()[:4], "big"
            )
            raw.append(
                RawMessage(
                    channel_id=entity,
                    timestamp=when,
                    text=_render_text(entity, pair, entry, targets, stop),
                    channel_participants=1000 + audience % 9000,
                )
            )
    raw.sort(key=lambda m: (m.timestamp, m.channel_id))
    return raw, plans


def _cluster_messages(
    messages: Sequence[CrowdPumpMessage],
) -> dict[str, list[list[CrowdPumpMessage]]]:
    """Group parsed messages per coin into events by long gaps."""
    per_coin: dict[str, list[CrowdPumpMessage]] = {}
    for m in sorted(messages, key=lambda m: (m.source_datetime, m.entity_id)):
        per_coin.setdefault(m.cryptocurrency, []).append(m)
    gap = timedelta(hours=CLUSTER_GAP_HOURS)
    out: dict[str, list[list[CrowdPumpMessage]]] = {}
    for coin, msgs in sorted(per_coin.items()):
        clusters: list[list[CrowdPumpMessage]] = [[msgs[0]]]
        for prev, cur in zip(msgs, msgs[1:]):
            if cur.source_datetime - prev.source_datetime > gap:
                clusters.append([cur])
            else:
                clusters[-1].append(cur)
        out[coin] = clusters
    return out


def generate_prices(
    messages: Sequence[CrowdPumpMessage], config: SynthConfig
) -> dict[str, PriceSeries]:
    """Per-pair bar series whose ramps achieve each event's planned hit count.

    The bar at each event's first announcement is pinned to the posted entry
    price. With hit count k the price ramps log-linearly to
    entry·(1 + step·(k + 1/2)) shortly after the cascade ends, then decays;
    outside event windows it follows a geometric random walk, and inside
    them it idles with bounded jitter so no extra target is crossed.

    The per-bar draws are part of the corpus contract: a walk or idle bar
    draws one standard normal, then every bar draws one uniform that no
    price uses, all from one generator per pair. The uniform stays so that
    later bars draw the normals they always have, and every corpus keeps
    its prices. Reordering, dropping or vectorizing the draws, or taking
    exp/log from numpy rather than `math`, changes every corpus.
    """
    clusters = _cluster_messages(messages)
    series: dict[str, PriceSeries] = {}
    bar = config.bar_minutes * 60
    drift, vol = config.price_drift, config.price_volatility
    jitter = 0.25 * vol
    exp, log = math.exp, math.log
    for coin, events in clusters.items():
        pair = f"{coin}USDT"
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [config.seed, int(hashlib.sha256(pair.encode()).hexdigest()[:8], 16)]
            )
        )
        normal, uniform = rng.standard_normal, rng.random
        # Per plan, as POSIX seconds: start, window end, peak, decay end.
        plans = []
        for idx, cluster in enumerate(events):
            first = cluster[0]
            entry = float(first.entry_prices[0])
            k = _hit_count(config, pair, idx)
            t0 = _snap_to_bar(first.source_datetime, config.bar_minutes)
            t_last = max(m.source_datetime for m in cluster)
            t_peak = _snap_to_bar(t_last + timedelta(hours=PEAK_LAG_HOURS), config.bar_minutes)
            t_decay = t_peak + timedelta(hours=DECAY_HOURS)
            peak = entry * (1.0 + config.target_step * (k + 0.5)) if k > 0 else entry
            s0 = t0.timestamp()
            plans.append((
                s0, s0 + 72 * 3600.0, t_peak.timestamp(), t_decay.timestamp(),
                entry, peak > entry, log(entry), log(peak),
            ))
        plans.append((math.inf,))  # no bar reaches it, so the last plan holds
        s_start = plans[0][0] - bar - 73 * 3600.0
        n_bars = int((plans[-2][0] + 73 * 3600.0 - s_start) // bar) + 1
        ts = [s_start + i * bar for i in range(n_bars)]
        prices = []
        plan_i = 0
        s0, s_end, s_peak, s_decay, entry, rises, log_entry, log_peak = plans[0]
        log_p = log_entry
        for t in ts:
            while t >= plans[plan_i + 1][0]:
                plan_i += 1
                s0, s_end, s_peak, s_decay, entry, rises, log_entry, log_peak = plans[plan_i]
            if t < s0:
                log_p += drift + vol * normal()
                level = exp(log_p)
            elif t == s0:
                level = entry
                log_p = log_entry
            elif t <= s_peak and rises:
                level = exp(log_entry + (t - s0) / (s_peak - s0) * (log_peak - log_entry))
                log_p = log(level)
            elif t <= s_decay and rises:
                level = exp(log_peak + (t - s_peak) / (s_decay - s_peak) * (log_entry - log_peak))
                log_p = log(level)
            elif t <= s_end:
                level = exp(log_p) * (1.0 + jitter * normal())
            else:
                log_p += drift + vol * normal()
                level = exp(log_p)
            prices.append(level)
            uniform()  # the dropped volume draw: keeps the per-pair random stream
        series[pair] = PriceSeries(pair, np.array(ts), np.array(prices))
    return series


@dataclass
class SynthCorpus:
    config: SynthConfig
    truth: GroundTruth
    raw_messages: list[RawMessage]
    plans: list[CascadePlan]
    messages: list[CrowdPumpMessage]


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Network, cascades and parsed messages; `generate_prices` makes the
    price series from the messages."""
    truth = generate_network(config)
    raw, plans = generate_cascades(truth, config)
    messages, report = parse_corpus(raw_message_to_json(m) for m in raw)
    if report.total:
        raise AssertionError(f"synthetic corpus failed to parse cleanly: {report.as_dict()}")
    return SynthCorpus(config=config, truth=truth, raw_messages=raw, plans=plans, messages=messages)


def score_edge_recovery(
    weighted: np.ndarray,
    nodes: Sequence[str],
    truth: GroundTruth,
    directed: Optional[np.ndarray] = None,
) -> float:
    """Precision at |E| of the strongest inferred edges against the truth.

    Candidates are ranked by inferred weight; when the directed adjacency is
    given, only its surviving arrows compete (the duel already eliminated
    the weaker direction of each pair). Only true edges between nodes
    present in the inferred graph count toward |E|; nodes never observed in
    a cascade cannot be recovered.
    """
    present = set(nodes)
    true_edges = {
        (s, d) for s, d in truth.edges if s in present and d in present
    }
    if not true_edges:
        raise ValueError("no ground-truth edges among the graph's nodes")
    candidates = weighted if directed is None else np.where(directed > 0, weighted, 0.0)
    src, dst = np.nonzero((candidates > 0.0) & ~np.eye(len(nodes), dtype=bool))
    names = np.array(nodes)
    order = np.lexsort((names[dst], names[src], -candidates[src, dst]))[: len(true_edges)]
    hits = sum((nodes[src[i]], nodes[dst[i]]) in true_edges for i in order)
    return hits / len(true_edges)


def write_truth(path: Path | str, truth: GroundTruth) -> None:
    write_json(path, truth.to_json())


def load_truth(path: Path | str) -> GroundTruth:
    return read_json(path, GroundTruth.from_json)


def write_labels(path: Path | str, labels: dict[str, int]) -> None:
    write_json(path, {"labels": labels})


def _labels(obj) -> dict[str, int]:
    labels = obj["labels"]
    for entity, label in labels.items():
        if type(label) is not int or label not in (0, 1):
            raise ValueError(f"label of {entity!r} is {label!r}, not 0 or 1")
    return labels


def load_labels(path: Path | str) -> dict[str, int]:
    """The labels write_labels wrote; any value but the integers 0 and 1
    raises ValueError naming the file and the entity."""
    return read_json(path, _labels)

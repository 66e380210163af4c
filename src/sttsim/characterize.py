"""Workload characterization over traces and single-unit simulations.

Covers read-write activity, cache block lifetimes, block persistence, and
expiration-miss curves across retention times.  Every analysis admits its
trace (see trace.check_records) and replays the selected stream through one
unit with a single loop (`_replay`), all cores feeding that unit in
(timestamp, core_id) order.  Lifetimes, persistence and the expiration
curve read one profile per stream (`_sram_profile`): the stream, selected
once from the admitted trace, and its unbounded-retention (SRAM) replay,
whose loop keeps the profile's tables itself, with no call per record.  The
profile is kept for the last stream of a Trace profiled; a list is
profiled on every call.  The curve replays its stream once per retention,
except where no block can expire before the stream's last record; that
point is the profile's own (see cache.cannot_expire_by).
"""

from __future__ import annotations

import bisect
import math
import numbers
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from operator import add, mul, not_

from .cache import DEFAULT_CLOCK_HZ, CacheUnit, CacheUnitConfig, Technology, cannot_expire_by, check_clock
from .errors import ConfigError
from .explore import _check_retentions, _ratio
from .trace import AccessKind, Trace, check_records

# log-decade lifetime buckets spanning 1us..1s, plus underflow/overflow
LIFETIME_BUCKET_EDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


@dataclass
class RwRatioReport:
    """Read fraction of data accesses, per core and aggregate.

    Fractions are loads / (loads + stores); instruction fetches are
    excluded.  A core (or trace) with zero data accesses reports None.
    """

    per_core: dict[int, tuple[int, int, float | None]]
    loads: int
    stores: int

    @property
    def read_fraction(self) -> float | None:
        total = self.loads + self.stores
        return self.loads / total if total else None


def read_write_ratio(trace) -> RwRatioReport:
    trace = check_records(trace)
    counts = Counter(map(add, map(mul, trace.cores, repeat(3)), trace.kinds))  # core * 3 + kind -> records
    per_core = {}
    loads = stores = 0
    for core in sorted({key // 3 for key in counts if key % 3}):
        ld, st = counts[core * 3 + AccessKind.LOAD], counts[core * 3 + AccessKind.STORE]
        loads += ld
        stores += st
        per_core[core] = (ld, st, ld / (ld + st) if ld + st else None)
    return RwRatioReport(per_core=per_core, loads=loads, stores=stores)


def _unbounded(cfg: CacheUnitConfig) -> CacheUnitConfig:
    if cfg.technology is Technology.SRAM:
        return cfg
    return replace(cfg, technology=Technology.SRAM, retention_time=None)


@dataclass(frozen=True)
class _SramProfile:
    """One stream in time order, and what the analyses read of its unbounded replay.

    Lifetimes are in seconds, one per completed residency, in eviction
    order.  fills_per_block has one count per block address ever filled;
    every miss fills, and under unbounded retention a block is refilled
    only after an eviction, so its reloads are its fills - 1.
    """

    records: Trace
    last_hit_lifetimes: array
    eviction_lifetimes: array
    fills_per_block: array
    misses: int


def _replay(records: Trace, cfg: CacheUnitConfig, clock_hz: float, profile: bool = False) -> CacheUnit | _SramProfile:
    """Replay records in time order (see trace.check_records) through one fresh unit, clocked at clock_hz.

    All cores feed the single unit.  Returns the unit or, with profile, the
    records' _SramProfile, whose tables this loop keeps itself, with no call
    per record but the access: a miss fills its block and records its
    victim's two lifetimes, and every access is its block's last hit so
    far.  The fill-time and last-hit tables drop a block as it is evicted,
    so they hold no more blocks than the unit does.
    """
    unit = CacheUnit(cfg, "probe", clock_hz)
    access = unit._access  # unchecked: the records are admitted and the loop masks each address
    mask = ~(cfg.line_size_bytes - 1)
    store = AccessKind.STORE.value
    fill_time: dict[int, int] = {}
    last_hit: dict[int, int] = {}
    fills: dict[int, int] = {}
    by_last_hit = array("d")
    by_eviction = array("d")
    for ts, kind, addr in zip(records.stamps, records.kinds, records.addresses):
        aligned = addr & mask
        out = access(aligned, kind == store, ts)
        if profile:
            if not out[0]:  # a miss
                victim = out[3]  # victim_address
                if victim is not None:
                    filled = fill_time.pop(victim)
                    by_last_hit.append((last_hit.pop(victim) - filled) / clock_hz)
                    by_eviction.append((ts - filled) / clock_hz)
                fill_time[aligned] = ts
                fills[aligned] = fills.get(aligned, 0) + 1
            last_hit[aligned] = ts
    if not profile:
        return unit
    return _SramProfile(records, by_last_hit, by_eviction, array("q", fills.values()), unit.misses)


# (stream, unbounded cfg, clock_hz, the caller's Trace, profile) of the last stream of a Trace profiled
_memo: tuple | None = None


def _sram_profile(trace, cfg: CacheUnitConfig, clock_hz: float, stream: str) -> _SramProfile:
    """Profile one stream of trace ("data", "instr" or "all") on cfg's unbounded-retention unit.

    The profile of the last stream of a Trace is kept with that Trace,
    which never changes, whether or not it was in time order.  A call with
    the same stream, an equal unbounded config and clock, and the same
    Trace returns it without admitting, selecting or replaying the stream.
    Other records, a list say, may change in place, so they are profiled on
    every call.  The clock is checked first: True equals a memo's clock of 1.
    """
    global _memo
    check_clock(clock_hz)
    cfg = _unbounded(cfg)
    memo = _memo  # read once: another thread may replace it
    if memo is not None and memo[0] == stream and memo[1] == cfg and memo[2] == clock_hz and memo[3] is trace:
        return memo[4]
    admitted = check_records(trace)
    if stream == "data":
        records = admitted.select(admitted.kinds)
    elif stream == "instr":
        records = admitted.select(bytes(map(not_, admitted.kinds)))
    elif stream == "all":
        records = admitted
    else:
        raise ConfigError(f"unknown stream {stream!r}; expected data, instr, or all")
    profile = _replay(records, cfg, clock_hz, True)
    if isinstance(trace, Trace):
        _memo = (stream, cfg, clock_hz, trace, profile)
    return profile


@dataclass
class LifetimeHistogram:
    """Distribution of completed block residency lifetimes.

    The primary measure is fill-to-last-hit (a residency with no hits
    contributes lifetime 0); fill-to-eviction is reported alongside.
    Bucket i counts lifetimes in [edges[i], edges[i+1]), with dedicated
    underflow (< edges[0]) and overflow (>= edges[-1]) buckets.
    """

    bucket_edges: tuple[float, ...]
    counts_last_hit: list[int]
    counts_fill_to_eviction: list[int]
    quantiles_last_hit: dict[str, float]
    quantiles_fill_to_eviction: dict[str, float]
    total_residencies: int

    @staticmethod
    def bucket_labels(edges: tuple[float, ...]) -> list[str]:
        labels = [f"<{edges[0]:g}"]
        labels += [f"[{lo:g},{hi:g})" for lo, hi in zip(edges, edges[1:])]
        labels.append(f">={edges[-1]:g}")
        return labels


def _bucketize(ordered: list[float], edges: tuple[float, ...]) -> list[int]:
    """Count ascending values into the buckets LifetimeHistogram describes.

    The count below each edge is a bisect_left of the values, so they must
    already be sorted.
    """
    below = [bisect.bisect_left(ordered, edge) for edge in edges]
    return [hi - lo for lo, hi in zip([0] + below, below + [len(ordered)])]


def _quantiles(ordered: list[float]) -> dict[str, float]:
    """p50, p90 and p99 of ascending values, interpolated linearly.

    Quantile q sits at position (n - 1) * q (method 7 of Hyndman and Fan).
    Between the values a and b around it, at fraction g past a, it is
    a + (b - a) * g below g = 0.5 and b - (b - a) * (1 - g) from 0.5, the
    form that is exact at both ends; the tests hold it to a reference
    quantile bit for bit.
    """
    if not ordered:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    last = len(ordered) - 1
    out = {}
    for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        pos = last * q
        i = int(pos)
        if i >= last:
            out[name] = float(ordered[last])
            continue
        a, b = ordered[i], ordered[i + 1]
        g = pos - i
        out[name] = a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
    return out


def _summarize(lifetimes, edges: tuple[float, ...]) -> tuple[list[int], dict[str, float]]:
    """Bucket counts and quantiles of lifetimes.

    The sorted list of boxed floats is freed on return, so a caller that
    summarizes one lifetimes array at a time holds one such list at once.
    """
    ordered = sorted(lifetimes)
    return _bucketize(ordered, edges), _quantiles(ordered)


def block_lifetimes(
    trace,
    cfg: CacheUnitConfig,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    stream: str = "data",
    bucket_edges: tuple[float, ...] = LIFETIME_BUCKET_EDGES,
) -> LifetimeHistogram:
    """Histogram completed residency lifetimes on an unbounded-retention unit.

    bucket_edges must be finite, positive and strictly ascending seconds; a bool is not one.
    """
    edges = tuple(bucket_edges)
    if not (
        edges
        and all(isinstance(e, numbers.Real) and not isinstance(e, bool) and 0 < e < math.inf for e in edges)
        and all(lo < hi for lo, hi in zip(edges, edges[1:]))
    ):
        raise ConfigError(f"bucket_edges must be finite positive seconds, strictly ascending; got {edges!r}")
    profile = _sram_profile(trace, cfg, clock_hz, stream)
    counts_last_hit, quantiles_last_hit = _summarize(profile.last_hit_lifetimes, edges)
    counts_fill_to_eviction, quantiles_fill_to_eviction = _summarize(profile.eviction_lifetimes, edges)
    return LifetimeHistogram(
        bucket_edges=edges,
        counts_last_hit=counts_last_hit,
        counts_fill_to_eviction=counts_fill_to_eviction,
        quantiles_last_hit=quantiles_last_hit,
        quantiles_fill_to_eviction=quantiles_fill_to_eviction,
        total_residencies=len(profile.last_hit_lifetimes),
    )


@dataclass
class PersistenceReport:
    """Fraction of unique block addresses reloaded at least thd times.

    A reload is a fill occurring after the block's first eviction, so a
    block filled exactly once (or never evicted) has a reload count of 0.
    """

    fractions: dict[int, float | None]  # None when no block was filled
    reloaded_counts: dict[int, int]
    unique_blocks: int
    total_fills: int


def persistence(
    trace,
    cfg: CacheUnitConfig,
    thresholds: tuple[int, ...] = (1, 2, 4, 8),
    clock_hz: float = DEFAULT_CLOCK_HZ,
    stream: str = "data",
) -> PersistenceReport:
    """Per-threshold persistent-block fractions on an unbounded-retention unit.

    Each threshold must be an int >= 1.
    """
    thresholds = tuple(thresholds)
    for thd in thresholds:
        if not isinstance(thd, int) or isinstance(thd, bool) or thd < 1:
            raise ConfigError(f"persistence thresholds must be ints >= 1, got {thd!r}")
    profile = _sram_profile(trace, cfg, clock_hz, stream)
    fills = profile.fills_per_block
    unique = len(fills)
    fractions = {}
    counts = {}
    for thd in thresholds:
        n = sum(map(thd.__lt__, fills))  # reloads >= thd
        counts[thd] = n
        fractions[thd] = _ratio(n, unique)
    return PersistenceReport(
        fractions=fractions,
        reloaded_counts=counts,
        unique_blocks=unique,
        total_fills=profile.misses,
    )


@dataclass
class ExpirationCurvePoint:
    retention_s: float
    expiration_misses: int
    total_misses: int
    miss_ratio_vs_unbounded: float | None  # None when the unbounded replay has no miss


def expiration_curve(
    trace,
    cfg: CacheUnitConfig,
    retentions,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    stream: str = "data",
) -> list[ExpirationCurvePoint]:
    """Expiration-miss counts of one unit across a sorted retention sweep.

    A retention whose first deadline is after the stream's last timestamp
    cannot expire a block, so its point is the unbounded replay's: no
    expiration misses and the baseline's misses, without a replay of its own.
    """
    retentions = list(retentions)
    if _check_retentions(retentions) != retentions:
        raise ConfigError("retentions must be sorted ascending")

    profile = _sram_profile(trace, cfg, clock_hz, stream)
    records = profile.records
    last = records.stamps[-1] if records else 0
    baseline_misses = profile.misses
    points = []
    for r in retentions:
        sttram = replace(cfg, technology=Technology.STTRAM, retention_time=r)
        if cannot_expire_by(sttram, clock_hz, last):
            expirations, misses = 0, baseline_misses
        else:
            unit = _replay(records, sttram, clock_hz)
            expirations, misses = unit.miss_expiration, unit.misses
            del unit  # before the next replay, not after it: the curve holds one replay's state at a time
        points.append(
            ExpirationCurvePoint(
                retention_s=r,
                expiration_misses=expirations,
                total_misses=misses,
                miss_ratio_vs_unbounded=_ratio(misses, baseline_misses),
            )
        )
    return points

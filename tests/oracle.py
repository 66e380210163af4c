"""Naive reference cache simulator used to cross-check the real one.

Deliberately independent of the package implementation: blocks live in
per-set dicts keyed by address, and retention ticks are fired eagerly one
at a time, incrementing every valid block's counter and evicting blocks
whose counter reaches N.  No expiry deadlines are precomputed anywhere.
Times are integer clock cycles; a tick lasts retention * clock_hz / N
rounded to whole cycles, computed here rather than by the package.

reference_generate_trace builds a synthetic trace one record at a time,
the plain form of sttsim's generator; the bulk generator must reproduce
its records exactly, element types included.

reference_block_lifetimes, reference_persistence and
reference_expiration_curve are the plain forms of the characterize
analyses: each filters and orders its stream and replays a fresh
CacheUnit on its own, with its own observer, sharing nothing between
calls; each lifetime is its residency in cycles divided by the clock.

reference_simulate is the plain form of hierarchy.simulate under its lazy
expiry rule: one OracleCache per unit, each record routed by hand, and the
memory traffic counted as it happens rather than derived from counters.
"""

import bisect
import heapq
import math
import random
from dataclasses import replace

import numpy as np

from sttsim.cache import CacheUnit, Technology
from sttsim.characterize import ExpirationCurvePoint, LifetimeHistogram, PersistenceReport
from sttsim.trace import (
    AccessKind,
    AccessRecord,
    ConstantGap,
    SequentialLoop,
    SyntheticTraceSpec,
    UniformRandom,
    Zipf,
)


class OracleCache:
    def __init__(self, num_sets, assoc, line_size, retention=None, counter_states=4,
                 refresh_on_read=False, clock_hz=1.9e9):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_size = line_size
        self.n_states = counter_states
        self.refresh_on_read = refresh_on_read
        self.use_expiry = retention is not None
        self.period = round(retention * clock_hz / counter_states) if retention is not None else None
        self.sets = [dict() for _ in range(num_sets)]
        self.ledger = {}  # addr -> 'resident' | 'repl' | 'exp'
        self.ticks_fired = 0
        self.seq = 0
        self.expired_events = []  # (addr, dirty, time)

        self.accesses = 0
        self.read_hits = 0
        self.write_hits = 0
        self.miss_compulsory = 0
        self.miss_replacement = 0
        self.miss_expiration = 0
        self.fills = 0
        self.writebacks = 0
        self.evictions_replacement = 0
        self.evictions_expiration = 0

    def _advance(self, now):
        while (self.ticks_fired + 1) * self.period <= now:
            self.ticks_fired += 1
            t = self.ticks_fired * self.period
            for s in self.sets:
                for addr in list(s):
                    entry = s[addr]
                    entry["ticks"] += 1
                    if entry["ticks"] >= self.n_states:
                        dirty = entry["dirty"]
                        del s[addr]
                        self.ledger[addr] = "exp"
                        self.evictions_expiration += 1
                        if dirty:
                            self.writebacks += 1
                        self.expired_events.append((addr, dirty, t))

    def access(self, addr, is_write, now):
        """Returns (hit, miss_class, writeback_issued, victim_address)."""
        if self.use_expiry:
            self._advance(now)
        self.accesses += 1
        self.seq += 1
        s = self.sets[(addr // self.line_size) % self.num_sets]
        if addr in s:
            entry = s[addr]
            entry["lru"] = self.seq
            if is_write:
                self.write_hits += 1
                entry["dirty"] = True
                entry["ticks"] = 0
            else:
                self.read_hits += 1
                if self.refresh_on_read:
                    entry["ticks"] = 0
            return (True, None, False, None)

        prior = self.ledger.get(addr)
        if prior is None:
            miss_class = "compulsory"
            self.miss_compulsory += 1
        elif prior == "repl":
            miss_class = "replacement"
            self.miss_replacement += 1
        else:
            miss_class = "expiration"
            self.miss_expiration += 1

        writeback = False
        victim = None
        if len(s) >= self.assoc:
            victim = min(s, key=lambda a: s[a]["lru"])
            writeback = s[victim]["dirty"]
            del s[victim]
            self.ledger[victim] = "repl"
            self.evictions_replacement += 1
            if writeback:
                self.writebacks += 1
        s[addr] = {"dirty": is_write, "ticks": 0, "lru": self.seq}
        self.ledger[addr] = "resident"
        self.fills += 1
        return (False, miss_class, writeback, victim)


# the counters of a unit that a report and an OracleCache both hold
UNIT_COUNTERS = ("accesses", "read_hits", "write_hits", "miss_compulsory", "miss_replacement", "miss_expiration",
                 "fills", "writebacks", "evictions_replacement", "evictions_expiration")


def _fire_ticks(unit, now):
    """Fire the unit's ticks up to now; its newly expired dirty blocks as (deadline, address), in that order."""
    if not unit.use_expiry:
        return []
    first = len(unit.expired_events)
    unit._advance(now)
    return sorted((t, addr) for addr, dirty, t in unit.expired_events[first:] if dirty)


def reference_simulate(cfg, records, table):
    """hierarchy.simulate's outcome, built record by record: each unit's
    UNIT_COUNTERS by unit name, each core's completion cycle, and the
    memory reads and writes.

    Records run in (timestamp, core_id) order.  A core starts a record at
    max(timestamp, its last completion).  The lazy rule: an L1 fires its
    ticks only when it is accessed, and nothing fires at the end of the
    run.  The dirty blocks an L1 expires on that access are written to the
    L2, in (deadline, address) order, each at max(deadline, the L2's
    time); then an L1 miss reads the L2 at max(start, the L2's time), and
    a dirty L1 victim is written to the L2 at that time.  A demand miss
    that the L2 does not serve (or any L1 miss, without an L2) is a memory
    read; memory writes are the L2's writebacks, or the L1s' without one.
    """
    def unit(c):
        retention = c.retention_time if c.technology is Technology.STTRAM else None
        return OracleCache(c.num_sets, c.associativity, c.line_size_bytes, retention, c.counter_states,
                           c.refresh_on_read, cfg.clock_hz)

    n = cfg.num_cores
    names = [f"core{i}.l1i" for i in range(n)] + [f"core{i}.l1d" for i in range(n)]
    configs = [*cfg.l1i, *cfg.l1d]
    units = [unit(c) for c in configs]
    l2 = unit(cfg.l2) if cfg.l2 is not None else None
    l2_read = table.lookup(cfg.l2.technology, cfg.l2.retention_time).t_read if l2 is not None else 0
    avail = [0] * n
    l2_time = 0
    mem_reads = 0
    for core, ts, kind, addr in sorted(records, key=lambda r: (r[1], r[0])):
        start = max(ts, avail[core])
        i = core if kind == AccessKind.INSTR_FETCH else n + core
        c, l1 = configs[i], units[i]
        addr -= addr % c.line_size_bytes
        is_write = kind == AccessKind.STORE
        params = table.lookup(c.technology, c.retention_time)
        latency = params.t_write if is_write else params.t_read
        due = _fire_ticks(l1, start)
        hit, _, writeback, victim = l1.access(addr, is_write, start)
        if l2 is not None:
            for deadline, block in due:
                l2_time = max(l2_time, deadline)
                l2.access(block, True, l2_time)
        if not hit:
            latency += l2_read
            served = False
            if l2 is not None:
                l2_time = max(l2_time, start)
                served = l2.access(addr, False, l2_time)[0]
                if writeback:
                    l2.access(victim, True, l2_time)
            if not served:
                mem_reads += 1
                latency += cfg.mem_latency_cycles
        avail[core] = start + latency
    if l2 is not None:
        names.append("l2")
        units.append(l2)
    return {
        "units": {name: tuple(getattr(u, f) for f in UNIT_COUNTERS) for name, u in zip(names, units)},
        "core_completion_cycles": avail,
        "mem_reads": mem_reads,
        "mem_writes": l2.writebacks if l2 is not None else sum(u.writebacks for u in units),
    }


def _zipf_cdf(num_blocks: int, s: float) -> list[float]:
    weights = [1.0 / (k + 1) ** s for k in range(num_blocks)]
    total = math.fsum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def reference_generate_trace(spec: SyntheticTraceSpec) -> list[AccessRecord]:
    """Generate a deterministic synthetic trace from a SyntheticTraceSpec.

    Records are returned merged across cores in (timestamp, core_id)
    order; per-core timestamps increase strictly by the sampled gaps,
    starting at 0.
    """
    line = spec.line_size_bytes
    nblocks = spec.working_set_blocks
    zipf_cdf = _zipf_cdf(nblocks, spec.pattern.s) if isinstance(spec.pattern, Zipf) else None

    per_core: list[list[AccessRecord]] = []
    for core in range(spec.num_cores):
        rng = random.Random(spec.seed * 1_000_003 + core)
        rand = rng.random
        records: list[AccessRecord] = []
        append = records.append
        t = 0
        read_frac = spec.read_fraction
        gap = spec.gap
        if isinstance(gap, ConstantGap):
            const_gap = gap.cycles
            log_lo = log_hi = 0.0
        else:
            const_gap = 0
            log_lo, log_hi = math.log(gap.lo), math.log(gap.hi)
        sequential = isinstance(spec.pattern, SequentialLoop)
        uniform = isinstance(spec.pattern, UniformRandom)
        for i in range(spec.accesses_per_core):
            if sequential:
                block = i % nblocks
            elif uniform:
                block = int(rand() * nblocks)
                if block == nblocks:  # rand() can return values arbitrarily close to 1
                    block = nblocks - 1
            else:
                block = bisect.bisect_right(zipf_cdf, rand())
                if block == nblocks:
                    block = nblocks - 1
            kind = AccessKind.LOAD if rand() < read_frac else AccessKind.STORE
            append(AccessRecord(core, t, kind, block * line))
            if const_gap:
                t += const_gap
            else:
                t += max(1, round(math.exp(log_lo + rand() * (log_hi - log_lo))))
        per_core.append(records)

    if spec.num_cores == 1:
        return per_core[0]
    merged = list(heapq.merge(*per_core, key=lambda r: (r[1], r[0])))
    return merged


def _reference_replay(trace, stream, cfg, clock_hz, observe=None):
    """Replay one stream of trace in (timestamp, core_id) order through a fresh unit."""
    keep = {
        "data": lambda kind: kind != AccessKind.INSTR_FETCH,
        "instr": lambda kind: kind == AccessKind.INSTR_FETCH,
        "all": lambda kind: True,
    }[stream]
    records = sorted((r for r in trace if keep(r[2])), key=lambda r: (r[1], r[0]))
    unit = CacheUnit(cfg, clock_hz=clock_hz)
    mask = ~(cfg.line_size_bytes - 1)
    for _core, ts, kind, addr in records:
        aligned = addr & mask
        out = unit.access(aligned, kind == AccessKind.STORE, ts)
        if observe is not None:
            observe(aligned, out, ts)
    return unit


def _sram(cfg):
    return replace(cfg, technology=Technology.SRAM, retention_time=None)


def _reference_quantiles(values):
    if not values:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    p50, p90, p99 = np.quantile(np.asarray(values), [0.50, 0.90, 0.99])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99)}


def reference_block_lifetimes(trace, cfg, clock_hz, stream, bucket_edges):
    fill_time = {}
    last_hit = {}
    by_last_hit = []
    by_eviction = []

    def observe(aligned, out, now):
        if not out.hit:
            victim = out.victim_address
            if victim is not None:
                filled = fill_time[victim]
                by_last_hit.append((last_hit[victim] - filled) / clock_hz)
                by_eviction.append((now - filled) / clock_hz)
            fill_time[aligned] = now
        last_hit[aligned] = now

    _reference_replay(trace, stream, _sram(cfg), clock_hz, observe)

    def counts(values):
        out = [0] * (len(bucket_edges) + 1)
        for v in values:
            out[bisect.bisect_right(bucket_edges, v)] += 1
        return out

    return LifetimeHistogram(
        bucket_edges=bucket_edges,
        counts_last_hit=counts(by_last_hit),
        counts_fill_to_eviction=counts(by_eviction),
        quantiles_last_hit=_reference_quantiles(by_last_hit),
        quantiles_fill_to_eviction=_reference_quantiles(by_eviction),
        total_residencies=len(by_last_hit),
    )


def reference_persistence(trace, cfg, thresholds, clock_hz, stream):
    reloads = {}
    evicted_once = set()
    seen = set()

    def observe(aligned, out, now):
        if out.hit:
            return
        seen.add(aligned)
        if aligned in evicted_once:
            reloads[aligned] = reloads.get(aligned, 0) + 1
        if out.victim_address is not None:
            evicted_once.add(out.victim_address)

    total_fills = _reference_replay(trace, stream, _sram(cfg), clock_hz, observe).fills
    unique = len(seen)
    counts = {thd: sum(1 for r in reloads.values() if r >= thd) for thd in thresholds}
    return PersistenceReport(
        fractions={thd: n / unique if unique else None for thd, n in counts.items()},  # no block filled: no ratio
        reloaded_counts=counts,
        unique_blocks=unique,
        total_fills=total_fills,
    )


def reference_expiration_curve(trace, cfg, retentions, clock_hz, stream):
    baseline = _reference_replay(trace, stream, _sram(cfg), clock_hz).misses
    points = []
    for r in retentions:
        unit = _reference_replay(trace, stream, replace(cfg, technology=Technology.STTRAM, retention_time=r), clock_hz)
        points.append(ExpirationCurvePoint(
            retention_s=r,
            expiration_misses=unit.miss_expiration,
            total_misses=unit.misses,
            miss_ratio_vs_unbounded=unit.misses / baseline if baseline else None,  # no baseline miss: no ratio
        ))
    return points

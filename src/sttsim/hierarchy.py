"""Single- or multicore cache hierarchies over a replayed access trace.

Each record is routed to the issuing core's private L1I (instruction
fetches) or L1D (loads/stores); an L1 miss probes the shared L2 when
present and main memory otherwise.  Allocation is non-inclusive,
allocate-on-miss at every level on the path; writebacks from a level
become write accesses at the next level down.

Timing is a blocking in-order core model: a core's local time advances to
max(record timestamp, previous completion) plus the demand-path latency
(one read/write latency term per level probed, plus the memory latency
when memory is reached).  Fills and writebacks are posted and do not
stall the core.  Records are processed in (timestamp, core_id) order;
shared-unit access times are serialized monotonically in that arbitration
order.  Times are integer clock cycles from the trace to every unit's
clock (see cache.tick_cycles); seconds appear only in the report.

The units count; the record loop only routes.  Before the loop, a route
table holds one entry per (core, kind): the L1's access core, the write
flag, the line mask and the record's cycles by the level that serves it,
sliced from _cycle_costs.  The loop zips the columns of a trace a study
has admitted (see trace.check_records), and each record takes all four
from one lookup.  Memory reads and writes are read from the unit counters
when the report is built (see _report).  Every unit applies its due
expirations inside its access, where they are only counted.  The L1 access
of a two-level run is also given a list, into which it puts only the
dirty blocks it expires, in (tick, address) order; each is written
to the L2 at its deadline before the record's own L2 traffic, with no
filtering in the loop.

Each check on a record is made once, when simulate admits the trace
(trace.check_records).  The loop drives every unit through its unchecked
core, CacheUnit._access, and keeps what that core requires in place of
CacheUnit.access's checks: masked addresses, and int times that never go
back, since a core's start time and the L2's time only grow.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import count

from .cache import DEFAULT_CLOCK_HZ, MAX_WAYS, CacheUnit, CacheUnitConfig, Technology, cannot_expire_by, check_clock
from .energy import EnergyBreakdown, TechParams, TechTable, unit_energy
from .errors import ConfigError, check_field_types
from .trace import Trace, check_records


def time_to_seconds(cycles: int, clock_hz: float) -> float:
    """Convert core clock cycles to seconds; ConfigError for a clock check_clock refuses."""
    check_clock(clock_hz)
    return cycles / clock_hz


def _as_per_core(cfg, num_cores: int, label: str) -> tuple[CacheUnitConfig, ...]:
    if isinstance(cfg, CacheUnitConfig):
        return (cfg,) * num_cores
    if not (isinstance(cfg, (list, tuple)) and all(isinstance(c, CacheUnitConfig) for c in cfg)):
        raise ConfigError(f"{label} must be a CacheUnitConfig or a list or tuple of them, got {cfg!r}")
    if len(cfg) != num_cores:
        raise ConfigError(f"{label}: expected {num_cores} per-core configs, got {len(cfg)}")
    return tuple(cfg)


# a config holds an L1I and an L1D config per core, and a run builds a unit of each
MAX_CORES = 1024


@dataclass(frozen=True)
class HierarchyConfig:
    """Cores, caches, and memory parameters of one simulated system.

    l1i and l1d accept a single CacheUnitConfig (replicated across cores)
    or a list or tuple of one per core; per-core L1 configs may differ only
    in technology and retention, not geometry.  num_cores is at most
    MAX_CORES, and the units hold at most MAX_WAYS ways (see
    cache.CacheUnitConfig) between them.  num_cores and
    mem_latency_cycles must be ints, and clock_hz and mem_energy_per_access
    real numbers.
    """

    num_cores: int
    l1i: object
    l1d: object
    l2: CacheUnitConfig | None = None
    clock_hz: float = DEFAULT_CLOCK_HZ
    mem_latency_cycles: int = 100
    mem_energy_per_access: float = 2.0e-11

    def __post_init__(self) -> None:
        check_field_types(self, int, "num_cores", "mem_latency_cycles")
        check_clock(self.clock_hz)
        check_field_types(self, numbers.Real, "mem_energy_per_access")
        if self.l2 is not None and not isinstance(self.l2, CacheUnitConfig):
            raise ConfigError(f"l2 must be a CacheUnitConfig or None, got {self.l2!r}")
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.num_cores > MAX_CORES:
            raise ConfigError(f"num_cores must be <= MAX_CORES = {MAX_CORES}, got {self.num_cores}")
        if self.mem_latency_cycles < 0 or not 0 <= self.mem_energy_per_access < math.inf:
            raise ConfigError("memory parameters must be >= 0 and finite")
        object.__setattr__(self, "l1i", _as_per_core(self.l1i, self.num_cores, "l1i"))
        object.__setattr__(self, "l1d", _as_per_core(self.l1d, self.num_cores, "l1d"))
        for label, cfgs in (("l1i", self.l1i), ("l1d", self.l1d)):
            if len({(c.size_bytes, c.associativity, c.line_size_bytes) for c in cfgs}) > 1:
                raise ConfigError(f"{label}: per-core configs must share geometry")
            if self.l2 is not None and cfgs[0].line_size_bytes != self.l2.line_size_bytes:
                raise ConfigError(f"l2 line size must match {label} line size")
        ways = sum(u.num_blocks for u in _unit_configs(self))
        if ways > MAX_WAYS:
            raise ConfigError(f"a hierarchy's units hold at most MAX_WAYS = {MAX_WAYS} ways between them, got {ways}")


@dataclass
class UnitStats:
    """Counters and energy of one cache unit after a run."""

    name: str
    technology: str
    retention_s: float | None
    accesses: int
    read_hits: int
    write_hits: int
    miss_compulsory: int
    miss_replacement: int
    miss_expiration: int
    fills: int
    writebacks: int
    evictions_replacement: int
    evictions_expiration: int
    energy: EnergyBreakdown

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.miss_compulsory + self.miss_replacement + self.miss_expiration


@dataclass
class SimReport:
    """Aggregated outcome of one hierarchy simulation."""

    units: dict[str, UnitStats]
    core_completion_cycles: list[int]
    core_completion_s: list[float]
    exec_time_s: float
    mem_reads: int
    mem_writes: int
    mem_energy_j: float
    cache_energy_j: float
    total_energy_j: float
    clock_hz: float
    counter_overhead_bytes: float = 0.0

    @property
    def mem_accesses(self) -> int:
        return self.mem_reads + self.mem_writes

    def total_misses(self) -> int:
        return sum(u.misses for u in self.units.values())

    def total_expiration_misses(self) -> int:
        return sum(u.miss_expiration for u in self.units.values())


def simulate(cfg: HierarchyConfig, trace, tech_table: TechTable) -> SimReport:
    """Run the trace through the hierarchy and aggregate counters and energy.

    Records replay in (timestamp, core_id) order, whatever their line
    order.  Deterministic for fixed inputs.  Raises ConfigError if the trace
    has no records, a record has a field that is not an int, a core outside
    0..num_cores-1 or a kind other than an AccessKind, or a unit's
    (technology, retention) is missing from the table.
    """
    return _simulate(cfg, check_records(trace, cfg.num_cores), tech_table)[0]


def _simulate(cfg: HierarchyConfig, records: Trace, tech_table: TechTable, derive=()) -> tuple[SimReport, tuple]:
    """simulate(cfg) of records already admitted, and so in time order (see
    trace.check_records), and the report of each config in `derive` built
    from that run (see _derived_report)."""
    ncores = cfg.num_cores
    clock = cfg.clock_hz
    # the level that served each record, kept only to derive reports
    levels = bytearray(len(records)) if derive else None

    l1i_units = [CacheUnit(c, f"core{i}.l1i", clock) for i, c in enumerate(cfg.l1i)]
    l1d_units = [CacheUnit(c, f"core{i}.l1d", clock) for i, c in enumerate(cfg.l1d)]
    l2 = CacheUnit(cfg.l2, "l2", clock) if cfg.l2 is not None else None
    params = [tech_table.lookup(u.technology, u.retention_time) for u in _unit_configs(cfg)]
    costs = _cycle_costs(cfg, params)

    i_mask = ~(cfg.l1i[0].line_size_bytes - 1)
    d_mask = ~(cfg.l1d[0].line_size_bytes - 1)
    # routes[core][kind]: the L1's unchecked access, the write flag, the line mask and
    # the record's cycles by the level that serves it
    routes = [
        [(l1i_units[c]._access, False, i_mask, costs[c][0:3]),
         (l1d_units[c]._access, False, d_mask, costs[c][3:6]),
         (l1d_units[c]._access, True, d_mask, costs[c][6:9])]
        for c in range(ncores)
    ]

    avail = [0] * ncores
    # shared-L2 accesses are serialized at a monotone time, the latest seen
    l2_last = 0
    l2_access = l2._access if l2 is not None else None
    # the dirty blocks an L1 access expires, collected only where an L2 takes them
    expired = [] if l2 is not None else None

    for pos, core, ts, kind, addr in zip(count(), records.cores, records.stamps, records.kinds, records.addresses):
        a = avail[core]
        start = ts if ts > a else a
        access, is_write, mask, cost = routes[core][kind]
        addr &= mask
        out = access(addr, is_write, start, expired)
        if expired:
            # each dirty block the L1 expired is written to the L2 at its deadline
            for victim, _, expire_time in expired:
                if expire_time > l2_last:
                    l2_last = expire_time
                l2_access(victim, True, l2_last)
            expired.clear()
        if out[0]:
            avail[core] = start + cost[0]
            continue
        level = 2
        if l2 is not None:
            if start > l2_last:
                l2_last = start
            if l2_access(addr, False, l2_last)[0]:
                level = 1
            # dirty line leaving an L1: full-line write, no fetch on an L2 miss
            if out[2]:
                l2_access(out[3], True, l2_last)
        if levels is not None:
            levels[pos] = level
        avail[core] = start + cost[level]

    units = l1i_units + l1d_units + ([l2] if l2 is not None else [])
    report = _report(cfg, units, params, avail)
    return report, tuple(_derived_report(c, report, records, levels, tech_table) for c in derive)


def _unit_configs(cfg: HierarchyConfig) -> list[CacheUnitConfig]:
    """Every unit's config in report order: each core's L1I, each core's L1D, then the L2."""
    return [*cfg.l1i, *cfg.l1d] + ([cfg.l2] if cfg.l2 is not None else [])


def _cycle_costs(cfg: HierarchyConfig, params: list[TechParams]) -> list[list]:
    """Per core, the cycles of a record by kind * 3 + the level that served it
    (0 its L1, 1 the L2, 2 memory): its L1's read or write latency, plus on a
    miss the L2's read latency, plus the memory latency when memory serves it."""
    n = cfg.num_cores
    l2 = params[-1].t_read if cfg.l2 is not None else 0
    return [
        [x for l1 in (params[c].t_read, params[n + c].t_read, params[n + c].t_write)
         for x in (l1, l1 + l2, l1 + l2 + cfg.mem_latency_cycles)]
        for c in range(n)
    ]


def _report(cfg: HierarchyConfig, counters: list, params: list[TechParams], avail: list[int]) -> SimReport:
    """The report of a run of cfg that ended at cycles `avail`, one per core.

    counters and params hold each unit's final counters (a CacheUnit or
    UnitStats) and tech parameters, in _unit_configs order.  This is the one
    place memory traffic is defined: reads are the L1 misses less the L2's
    read hits, writes the last level's writebacks.  That is exact because
    every L2 read is an L1 demand miss and every L2 write an L1 writeback,
    a writeback that misses the L2 fetches nothing, and `writebacks` counts
    dirty expirations as well as dirty victims.
    """
    clock = cfg.clock_hz
    completions_s = [time_to_seconds(c, clock) for c in avail]
    wall = max(completions_s) if completions_s else 0.0
    units: dict[str, UnitStats] = {}
    overhead = 0.0
    for unit_cfg, c, p in zip(_unit_configs(cfg), counters, params):
        units[c.name] = UnitStats(
            name=c.name,
            technology=unit_cfg.technology.value,
            retention_s=unit_cfg.retention_time if unit_cfg.technology is Technology.STTRAM else None,
            accesses=c.accesses,
            read_hits=c.read_hits,
            write_hits=c.write_hits,
            miss_compulsory=c.miss_compulsory,
            miss_replacement=c.miss_replacement,
            miss_expiration=c.miss_expiration,
            fills=c.fills,
            writebacks=c.writebacks,
            evictions_replacement=c.evictions_replacement,
            evictions_expiration=c.evictions_expiration,
            energy=unit_energy(p, c, wall),
        )
        overhead += unit_cfg.counter_overhead_bytes

    l1s, l2s = counters[: 2 * cfg.num_cores], counters[2 * cfg.num_cores :]
    mem_reads = sum(c.misses for c in l1s) - sum(c.read_hits for c in l2s)
    mem_writes = sum(c.writebacks for c in l2s or l1s)
    mem_energy = (mem_reads + mem_writes) * cfg.mem_energy_per_access
    cache_energy = sum(u.energy.total for u in units.values())
    return SimReport(
        units=units,
        core_completion_cycles=avail,
        core_completion_s=completions_s,
        exec_time_s=wall,
        mem_reads=mem_reads,
        mem_writes=mem_writes,
        mem_energy_j=mem_energy,
        cache_energy_j=cache_energy,
        total_energy_j=cache_energy + mem_energy,
        clock_hz=clock,
        counter_overhead_bytes=overhead,
    )


# -- reports derived from an SRAM run ---------------------------------------------
#
# A run in which no unit expires a block has the hits, misses and traffic of
# the SRAM run of the same trace: records are replayed in (timestamp, core_id)
# order whatever the latencies, so only the timing and the energy differ: the
# record loop's timing is replayed over the levels the SRAM run recorded.


def _cannot_expire(cfg: HierarchyConfig, t: int) -> bool:
    """True when no unit of cfg can expire a block at any cycle up to t
    (see cache.cannot_expire_by).

    The same rule lets characterize.expiration_curve build a retention's
    point from the stream's unbounded replay, without replaying it, when
    the stream's last timestamp is before that retention's first deadline.
    """
    return all(cannot_expire_by(u, cfg.clock_hz, t) for u in _unit_configs(cfg))


def _derived_report(
    cfg: HierarchyConfig, sram: SimReport, records: Trace, levels: bytearray, tech_table: TechTable
) -> SimReport:
    """cfg's report from the SRAM run of the same time-ordered records, given
    the level that served each of them in that run.

    Each core's completion time replays the record loop of _simulate with
    cfg's cycle costs.  When that time reaches a unit's first deadline the
    run might expire a block, so cfg is simulated in full here instead.
    """
    params = [tech_table.lookup(u.technology, u.retention_time) for u in _unit_configs(cfg)]
    costs = _cycle_costs(cfg, params)
    avail = [0] * cfg.num_cores
    for core, ts, kind, level in zip(records.cores, records.stamps, records.kinds, levels):
        a = avail[core]
        avail[core] = (ts if ts > a else a) + costs[core][kind * 3 + level]
    if not _cannot_expire(cfg, max(avail)):
        return _simulate(cfg, records, tech_table)[0]
    return _report(cfg, list(sram.units.values()), params, avail)

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
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheUnit, CacheUnitConfig, Technology
from .energy import EnergyBreakdown, TechParams, TechTable, unit_energy
from .errors import ConfigError
from .trace import time_ordered


def time_to_seconds(cycles: int, clock_hz: float) -> float:
    """Convert core clock cycles to seconds."""
    if not clock_hz > 0:
        raise ValueError("clock_hz must be > 0")
    return cycles / clock_hz


def _as_per_core(cfg, num_cores: int, label: str) -> tuple[CacheUnitConfig, ...]:
    if isinstance(cfg, CacheUnitConfig):
        return (cfg,) * num_cores
    cfgs = tuple(cfg)
    if len(cfgs) != num_cores:
        raise ConfigError(f"{label}: expected {num_cores} per-core configs, got {len(cfgs)}")
    return cfgs


@dataclass(frozen=True)
class HierarchyConfig:
    """Cores, caches, and memory parameters of one simulated system.

    l1i and l1d accept a single CacheUnitConfig (replicated across cores)
    or one per core; per-core L1 configs may differ only in technology and
    retention, not geometry.
    """

    num_cores: int
    l1i: object
    l1d: object
    l2: CacheUnitConfig | None = None
    clock_hz: float = 1.9e9
    mem_latency_cycles: int = 100
    mem_energy_per_access: float = 2.0e-11

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if not self.clock_hz > 0:
            raise ConfigError("clock_hz must be > 0")
        if self.mem_latency_cycles < 0 or self.mem_energy_per_access < 0:
            raise ConfigError("memory parameters must be >= 0")
        object.__setattr__(self, "l1i", _as_per_core(self.l1i, self.num_cores, "l1i"))
        object.__setattr__(self, "l1d", _as_per_core(self.l1d, self.num_cores, "l1d"))
        for label, cfgs in (("l1i", self.l1i), ("l1d", self.l1d)):
            first = cfgs[0]
            for c in cfgs[1:]:
                if (c.size_bytes, c.associativity, c.line_size_bytes) != (
                    first.size_bytes,
                    first.associativity,
                    first.line_size_bytes,
                ):
                    raise ConfigError(f"{label}: per-core configs must share geometry")
        if self.l2 is not None:
            for label, cfgs in (("l1i", self.l1i), ("l1d", self.l1d)):
                if cfgs[0].line_size_bytes != self.l2.line_size_bytes:
                    raise ConfigError(f"l2 line size must match {label} line size")


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

    Deterministic for fixed inputs.  Raises ConfigError if a record names
    a core >= num_cores or a unit's (technology, retention) is missing
    from the table.
    """
    ncores = cfg.num_cores
    clock = cfg.clock_hz
    records = time_ordered(trace)

    l1i_units = [CacheUnit(c, f"core{i}.l1i") for i, c in enumerate(cfg.l1i)]
    l1d_units = [CacheUnit(c, f"core{i}.l1d") for i, c in enumerate(cfg.l1d)]
    l1i_params = [tech_table.lookup(c.technology, c.retention_time) for c in cfg.l1i]
    l1d_params = [tech_table.lookup(c.technology, c.retention_time) for c in cfg.l1d]
    l2 = CacheUnit(cfg.l2, "l2") if cfg.l2 is not None else None
    l2_params = tech_table.lookup(cfg.l2.technology, cfg.l2.retention_time) if cfg.l2 is not None else None

    i_mask = ~(cfg.l1i[0].line_size_bytes - 1)
    d_mask = ~(cfg.l1d[0].line_size_bytes - 1)
    i_tr = [p.t_read for p in l1i_params]
    d_tr = [p.t_read for p in l1d_params]
    d_tw = [p.t_write for p in l1d_params]
    l2_tr = l2_params.t_read if l2_params else 0
    mem_lat = cfg.mem_latency_cycles

    avail = [0] * ncores
    state = {"l2_last": 0.0, "mem_reads": 0, "mem_writes": 0}

    def l2_service(addr: int, is_write: bool, t: float) -> bool:
        """Access the shared L2 at a monotone serialized time; True on hit."""
        t2 = t if t > state["l2_last"] else state["l2_last"]
        state["l2_last"] = t2
        if t2 >= l2.next_tick_time:
            for ev in l2.tick_expirations(t2):
                if ev.dirty:
                    state["mem_writes"] += 1
        out = l2.access(addr, is_write, t2)
        if not out.hit and out.writeback_issued:
            state["mem_writes"] += 1
        return out.hit

    def wb_downstream(addr: int, t: float) -> None:
        # dirty line leaving an L1: full-line write, no fetch on an L2 miss
        if l2 is None:
            state["mem_writes"] += 1
        else:
            l2_service(addr, True, t)

    for rec in records:
        core = rec[0]
        if core >= ncores:
            raise ConfigError(f"trace references core {core} but num_cores is {ncores}")
        ts = rec[1]
        kind = rec[2]
        a = avail[core]
        start = ts if ts > a else a
        now = start / clock
        if kind:
            unit = l1d_units[core]
            is_write = kind == 2
            aligned = rec[3] & d_mask
            cyc = d_tw[core] if is_write else d_tr[core]
        else:
            unit = l1i_units[core]
            is_write = False
            aligned = rec[3] & i_mask
            cyc = i_tr[core]

        if now >= unit.next_tick_time:
            for ev in unit.tick_expirations(now):
                if ev.dirty:
                    wb_downstream(ev.address, ev.expire_time)

        out = unit.access(aligned, is_write, now)
        if not out.hit:
            if l2 is not None:
                cyc += l2_tr
                if not l2_service(aligned, False, now):
                    cyc += mem_lat
                    state["mem_reads"] += 1
            else:
                cyc += mem_lat
                state["mem_reads"] += 1
            if out.writeback_issued:
                wb_downstream(out.victim_address, now)
        avail[core] = start + cyc

    completions_s = [time_to_seconds(c, clock) for c in avail]
    wall = max(completions_s) if completions_s else 0.0

    units: dict[str, UnitStats] = {}
    overhead = 0.0
    for unit_list, params_list in (
        (l1i_units, l1i_params),
        (l1d_units, l1d_params),
    ):
        for u, p in zip(unit_list, params_list):
            units[u.name] = _unit_stats(u, p, wall)
            overhead += u.config.counter_overhead_bytes
    if l2 is not None:
        units[l2.name] = _unit_stats(l2, l2_params, wall)
        overhead += l2.config.counter_overhead_bytes

    mem_energy = (state["mem_reads"] + state["mem_writes"]) * cfg.mem_energy_per_access
    cache_energy = sum(u.energy.total for u in units.values())
    return SimReport(
        units=units,
        core_completion_cycles=avail,
        core_completion_s=completions_s,
        exec_time_s=wall,
        mem_reads=state["mem_reads"],
        mem_writes=state["mem_writes"],
        mem_energy_j=mem_energy,
        cache_energy_j=cache_energy,
        total_energy_j=cache_energy + mem_energy,
        clock_hz=clock,
        counter_overhead_bytes=overhead,
    )


def _unit_stats(unit: CacheUnit, params: TechParams, wall: float) -> UnitStats:
    cfg = unit.config
    return UnitStats(
        name=unit.name,
        technology=cfg.technology.value,
        retention_s=cfg.retention_time if cfg.technology is Technology.STTRAM else None,
        accesses=unit.accesses,
        read_hits=unit.read_hits,
        write_hits=unit.write_hits,
        miss_compulsory=unit.miss_compulsory,
        miss_replacement=unit.miss_replacement,
        miss_expiration=unit.miss_expiration,
        fills=unit.fills,
        writebacks=unit.writebacks,
        evictions_replacement=unit.evictions_replacement,
        evictions_expiration=unit.evictions_expiration,
        energy=unit_energy(params, unit, wall),
    )

import hashlib
import math
import re

import pytest

from conftest import random_trace
from sttsim import (
    AccessKind,
    AccessRecord,
    CacheUnit,
    CacheUnitConfig,
    ConfigError,
    HierarchyConfig,
    Technology,
    assign_asymmetric,
    block_lifetimes,
    expiration_curve,
    persistence,
    sample_tech_table,
    simulate,
    specialize,
    sweep,
    time_to_seconds,
)

TABLE = sample_tech_table()
MS = 1e-3


def l1(tech=Technology.STTRAM, retention=1e-3, size=4 * 2 * 64, assoc=2, line=64):
    return CacheUnitConfig(size, assoc, line, tech, retention if tech is Technology.STTRAM else None)


def small_hier(num_cores=1, with_l2=False, retention=1e-3, tech=Technology.STTRAM):
    l2 = None
    if with_l2:
        l2 = CacheUnitConfig(16 * 4 * 64, 4, 64, tech, retention if tech is Technology.STTRAM else None)
    return HierarchyConfig(
        num_cores=num_cores,
        l1i=l1(tech, retention),
        l1d=l1(tech, retention),
        l2=l2,
        clock_hz=1.9e9,
        mem_latency_cycles=100,
        mem_energy_per_access=2e-11,
    )


class TestTimeToSeconds:
    def test_definition(self):
        assert time_to_seconds(1_900_000_000, 1.9e9) == 1.0

    def test_zero(self):
        assert time_to_seconds(0, 123.0) == 0.0

    def test_arithmetic(self):
        assert time_to_seconds(19_000, 1.9e9) == 1.0e-5

    @pytest.mark.parametrize("clock", [0.0, -1.0, math.inf, math.nan, True])
    def test_invalid_clock(self, clock):
        with pytest.raises(ConfigError, match="clock_hz must be"):
            time_to_seconds(5, clock)


class TestSingleAccess:
    def test_single_load_latency(self):
        cfg = small_hier()
        rep = simulate(cfg, [AccessRecord(0, 0, AccessKind.LOAD, 0x0)], TABLE)
        t_read = TABLE.lookup(Technology.STTRAM, 1e-3).t_read
        assert rep.core_completion_cycles[0] == t_read + cfg.mem_latency_cycles
        d = rep.units["core0.l1d"]
        assert (d.miss_compulsory, d.fills) == (1, 1)
        assert rep.mem_reads == 1 and rep.mem_writes == 0

    def test_if_routed_to_l1i(self):
        rep = simulate(small_hier(), [AccessRecord(0, 0, AccessKind.INSTR_FETCH, 0x0)], TABLE)
        assert rep.units["core0.l1i"].accesses == 1
        assert rep.units["core0.l1d"].accesses == 0

    def test_dirty_expiration_writes_memory_once(self):
        trace = [
            AccessRecord(0, 0, AccessKind.STORE, 0x0),
            # far beyond retention: the dirty block expired in between
            AccessRecord(0, int(5 * MS * 1.9e9), AccessKind.LOAD, 0x40),
        ]
        rep = simulate(small_hier(), trace, TABLE)
        assert rep.mem_writes == 1
        assert rep.units["core0.l1d"].evictions_expiration == 1

    def test_store_charges_write_latency(self):
        cfg = small_hier()
        params = TABLE.lookup(Technology.STTRAM, 1e-3)
        rep = simulate(cfg, [AccessRecord(0, 0, AccessKind.STORE, 0x0)], TABLE)
        assert rep.core_completion_cycles[0] == params.t_write + cfg.mem_latency_cycles

    def test_blocking_core_stalls(self):
        cfg = small_hier()
        params = TABLE.lookup(Technology.STTRAM, 1e-3)
        first_done = params.t_read + cfg.mem_latency_cycles
        trace = [
            AccessRecord(0, 0, AccessKind.LOAD, 0x0),
            AccessRecord(0, 1, AccessKind.LOAD, 0x0),  # issued before the first completes
        ]
        rep = simulate(cfg, trace, TABLE)
        assert rep.core_completion_cycles[0] == first_done + params.t_read


class TestSharedL2:
    def test_cross_core_l2_hit(self):
        cfg = small_hier(num_cores=2, with_l2=True)
        trace = [
            AccessRecord(0, 0, AccessKind.LOAD, 0x0),  # fills L2 (and core0 L1)
            AccessRecord(1, 1000, AccessKind.LOAD, 0x0),  # misses its L1, hits L2
        ]
        rep = simulate(cfg, trace, TABLE)
        l2 = rep.units["l2"]
        assert l2.accesses == 2
        assert l2.hits == 1
        assert rep.mem_reads == 1

    @pytest.mark.parametrize("core", [1, -1])
    def test_trace_core_out_of_range(self, core):
        cfg = small_hier(num_cores=1, tech=Technology.SRAM)
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), AccessRecord(core, 1, AccessKind.LOAD, 0x40)]
        with pytest.raises(ConfigError, match=f"core {core} "):
            simulate(cfg, trace, TABLE)
        with pytest.raises(ConfigError, match=f"core {core} "):
            sweep(trace, cfg, [1e-3], tech_table=TABLE, jobs=1)

    @pytest.mark.parametrize("kind", [3, -1])
    def test_trace_kind_out_of_range(self, kind):
        cfg = small_hier(num_cores=1, tech=Technology.SRAM)
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), AccessRecord(0, 1, kind, 0x40)]
        with pytest.raises(ConfigError, match=f"kind {kind} "):
            simulate(cfg, trace, TABLE)
        with pytest.raises(ConfigError, match=f"kind {kind} "):
            sweep(trace, cfg, [1e-3], tech_table=TABLE, jobs=1)

    # a bool is refused in every field, though Python counts it an int
    @pytest.mark.parametrize("field, value", [(0, 0.0), (1, 1.0), (2, 1.0), (3, 0.5), (3, 64.0), (1, "1"), (2, []),
                                              (0, False), (1, True), (2, True), (3, False)])
    def test_record_field_that_is_not_an_int(self, field, value):
        cfg = small_hier(num_cores=1, tech=Technology.SRAM)
        bad = AccessRecord(*(value if i == field else x for i, x in enumerate((0, 1, AccessKind.LOAD, 0x40))))
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), bad, AccessRecord(0, 2, AccessKind.STORE, 0x80)]
        studies = [
            lambda: simulate(cfg, trace, TABLE),
            lambda: sweep(trace, cfg, [1e-3], tech_table=TABLE, jobs=1),
            lambda: specialize(trace, cfg, [1e-3], 1e-3, 3, tech_table=TABLE),
            lambda: assign_asymmetric([trace], cfg, [1e-3], 3, tech_table=TABLE),
            lambda: block_lifetimes(trace, cfg.l1d[0], stream="all"),
            lambda: persistence(trace, cfg.l1d[0], stream="all"),
            lambda: expiration_curve(trace, cfg.l1d[0], [1e-3], stream="all"),
        ]
        for study in studies:
            with pytest.raises(ConfigError, match=re.escape(f"record {bad!r} has a field that is not an int")):
                study()

    # unhashable values included, and a negative core id, which assign_asymmetric must name before it
    # moves every thread to core 0
    @pytest.mark.parametrize("field, value", [(0, 0.5), (0, []), (2, 1.0), (2, []), (0, -1)])
    def test_core_or_kind_that_is_not_an_int(self, field, value):
        cfg = small_hier(num_cores=1, tech=Technology.SRAM)
        bad = AccessRecord(*(value if i == field else x for i, x in enumerate((0, 1, AccessKind.LOAD, 0x40))))
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), bad]
        if value == -1:
            match = "trace references core -1 "
        else:
            match = re.escape(f"trace record {bad!r} has a ") + ".* not an int"
        for study in (lambda: simulate(cfg, trace, TABLE),
                      lambda: sweep(trace, cfg, [1e-3], tech_table=TABLE, jobs=1),
                      lambda: assign_asymmetric([trace], cfg, [1e-3], 2, tech_table=TABLE)):
            with pytest.raises(ConfigError, match=match):
                study()

    @pytest.mark.parametrize("seed", range(4))
    def test_level_flow_conservation(self, seed):
        cfg = small_hier(num_cores=4, with_l2=True, retention=1e-4)
        trace = random_trace(seed, 8000, num_cores=4, num_blocks=64, write_fraction=0.4,
                             gap_lo=100, gap_hi=30_000, instr_fraction=0.2)
        rep = simulate(cfg, trace, TABLE)
        l1_units = [u for name, u in rep.units.items() if name != "l2"]
        l2 = rep.units["l2"]
        for u in rep.units.values():
            assert u.hits + u.misses == u.accesses
            assert u.misses == u.miss_compulsory + u.miss_replacement + u.miss_expiration
            assert u.fills == u.misses
        assert l2.accesses == sum(u.misses + u.writebacks for u in l1_units)
        # demand misses fetch from memory; writeback-write misses allocate
        # the full line without a fetch, so mem reads are a subset
        assert rep.mem_reads <= l2.misses
        assert rep.mem_writes == l2.writebacks

    def test_l2_never_increases_memory_accesses(self):
        for seed in range(3):
            trace = random_trace(seed + 50, 4000, num_cores=2, num_blocks=48, write_fraction=0.5,
                                 gap_lo=100, gap_hi=20_000)
            without = simulate(small_hier(num_cores=2, with_l2=False, retention=1e-4), trace, TABLE)
            with_l2 = simulate(small_hier(num_cores=2, with_l2=True, retention=1e-4), trace, TABLE)
            assert with_l2.mem_accesses <= without.mem_accesses

    def test_l2_does_not_change_l1_behavior(self):
        trace = random_trace(91, 3000, num_cores=1, num_blocks=32, write_fraction=0.3,
                             gap_lo=100, gap_hi=50_000)
        a = simulate(small_hier(with_l2=False, retention=1e-4), trace, TABLE)
        b = simulate(small_hier(with_l2=True, retention=1e-4), trace, TABLE)
        for name in ("core0.l1i", "core0.l1d"):
            ua, ub = a.units[name], b.units[name]
            assert (ua.hits, ua.miss_compulsory, ua.miss_replacement, ua.miss_expiration) == (
                ub.hits,
                ub.miss_compulsory,
                ub.miss_replacement,
                ub.miss_expiration,
            )

    def test_deterministic_reports(self):
        cfg = small_hier(num_cores=4, with_l2=True, retention=1e-4)
        trace = random_trace(7, 5000, num_cores=4, num_blocks=64, write_fraction=0.4)
        a = simulate(cfg, trace, TABLE)
        b = simulate(cfg, trace, TABLE)
        assert a.cache_energy_j == b.cache_energy_j
        assert a.core_completion_cycles == b.core_completion_cycles
        assert [u.__dict__ for u in a.units.values()] == [u.__dict__ for u in b.units.values()]


def _report_rows(rep):
    rows = [[name, u.accesses, u.read_hits, u.write_hits, u.miss_compulsory, u.miss_replacement,
             u.miss_expiration, u.fills, u.writebacks, u.evictions_replacement,
             u.evictions_expiration, *u.energy] for name, u in rep.units.items()]
    rows.append(["system", *rep.core_completion_cycles, rep.exec_time_s, rep.mem_reads,
                 rep.mem_writes, rep.total_energy_j])
    return "\n".join(",".join(repr(v) for v in row) for row in rows)


class TestPinnedTwoLevelRun:
    """A write-heavy quad-core run with expiries at every level, pinned by digest.

    Same-tick dirty L1 expiries reach L2 in the unit's expiry order, which
    decides L2's LRU order and so its later victims; this digest changes if
    that order does.  Re-recorded when that order became address order.
    """

    DIGEST = "49c2609b882b6e19ded418fd8a69ffad177fd6b1dde98d9c15ed9de065e5d141"

    def test_report_digest(self):
        def unit(sets, assoc):
            return CacheUnitConfig(sets * assoc * 64, assoc, 64, Technology.STTRAM, 1e-6)

        cfg = HierarchyConfig(num_cores=4, l1i=unit(4, 2), l1d=unit(4, 2), l2=unit(8, 4))
        trace = random_trace(2024, 8000, num_cores=4, num_blocks=64, write_fraction=0.7,
                             gap_lo=10, gap_hi=400, instr_fraction=0.1)
        rep = simulate(cfg, trace, TABLE)
        assert all(u.evictions_expiration > 0 for u in rep.units.values())
        assert rep.units["l2"].miss_replacement > 0
        assert hashlib.sha256(_report_rows(rep).encode()).hexdigest() == self.DIGEST


class TestPinnedBenchmarkGeometryRun:
    """A write-heavy quad-core run with 4-way L1s, a 16-way L2 and 1e-6
    expiries at every level, pinned by digest.

    Expiries leave invalid ways between valid ones and full sets evict
    their LRU way, so the run takes both victim rules.  Which free way a
    block takes changes no counter; the unit tests pin that.  Re-recorded
    when same-tick expiries reached L2 in address order.
    """

    DIGEST = "8f97bd0b99d3b3ed7e04e57d1d98552fd9eef83d34f0528f838444d25c64ed48"

    def test_report_digest(self):
        def unit(sets, assoc):
            return CacheUnitConfig(sets * assoc * 64, assoc, 64, Technology.STTRAM, 1e-6)

        cfg = HierarchyConfig(num_cores=4, l1i=unit(4, 4), l1d=unit(4, 4), l2=unit(8, 16))
        trace = random_trace(2025, 12000, num_cores=4, num_blocks=1024, write_fraction=0.7,
                             gap_lo=10, gap_hi=100, instr_fraction=0.1)
        rep = simulate(cfg, trace, TABLE)
        assert all(u.evictions_expiration > 0 for u in rep.units.values())
        assert rep.units["l2"].evictions_replacement > 0
        assert rep.units["core0.l1d"].evictions_replacement > 0
        assert hashlib.sha256(_report_rows(rep).encode()).hexdigest() == self.DIGEST


def test_pinned_single_level_memory_traffic():
    """Memory reads and writes of a quad-core run with no L2, pinned.

    Recorded while the record loop still counted memory traffic itself; the
    writes then split into 1,042 dirty expirations and 1,422 dirty victims.
    """
    trace = random_trace(0, 8000, num_cores=4, num_blocks=64, write_fraction=0.4,
                         gap_lo=100, gap_hi=30_000, instr_fraction=0.2)
    rep = simulate(small_hier(num_cores=4, retention=1e-4), trace, TABLE)
    assert sum(u.evictions_expiration for u in rep.units.values()) > 0
    assert sum(u.evictions_replacement for u in rep.units.values()) > 0
    assert (rep.mem_reads, rep.mem_writes) == (7334, 2464)


def test_replays_call_only_the_unchecked_access_core(monkeypatch):
    # each replay binds CacheUnit._access, whose callers' admitted records make access()'s checks
    # redundant: with access() refusing every call, each study still gives the same report
    records = random_trace(5, 600, num_cores=2, num_blocks=64, write_fraction=0.4, gap_lo=20, gap_hi=2000,
                           instr_fraction=0.2)
    unit = l1(retention=1e-6)
    runs = [
        lambda: simulate(small_hier(2, retention=1e-6), records, TABLE),
        lambda: simulate(small_hier(2, with_l2=True, retention=1e-6), records, TABLE),
        lambda: sweep(records, small_hier(2, with_l2=True), [1e-6, 1e-3], tech_table=TABLE, jobs=1),
        lambda: block_lifetimes(records, unit),
        lambda: persistence(records, unit),
        lambda: expiration_curve(records, unit, [1e-6, 1e-5]),
    ]
    want = [run() for run in runs]
    assert want[1].units["l2"].miss_expiration > 0 and want[5][0].expiration_misses > 0  # the drains run too

    def refuse(self, *args):
        raise AssertionError(f"{self.name}: a replay called the public CacheUnit.access")

    monkeypatch.setattr(CacheUnit, "access", refuse)
    assert [run() for run in runs] == want


class TestReport:
    def test_completion_covers_trace_end(self):
        trace = random_trace(3, 1000, num_cores=2, num_blocks=16)
        cfg = small_hier(num_cores=2)
        rep = simulate(cfg, trace, TABLE)
        last_ts = {0: 0, 1: 0}
        for r in trace:
            last_ts[r.core_id] = r.timestamp
        for core in (0, 1):
            assert rep.core_completion_s[core] >= last_ts[core] / cfg.clock_hz

    def test_leakage_runs_to_the_latest_completion(self):
        # core 1 finishes long after core 0, and every unit, idle L1Is included, leaks until then
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), AccessRecord(1, 10**6, AccessKind.LOAD, 0x40)]
        rep = simulate(small_hier(num_cores=2, with_l2=True), trace, TABLE)
        assert rep.exec_time_s == max(rep.core_completion_s) > rep.core_completion_s[0]
        p_leak = TABLE.lookup(Technology.STTRAM, 1e-3).p_leak
        assert {u.energy.leakage for u in rep.units.values()} == {p_leak * rep.exec_time_s}

    def test_energy_totals_add_up(self):
        trace = random_trace(4, 2000, num_cores=1, num_blocks=32, write_fraction=0.4)
        rep = simulate(small_hier(with_l2=True), trace, TABLE)
        assert rep.total_energy_j == rep.cache_energy_j + rep.mem_energy_j
        assert rep.cache_energy_j == sum(u.energy.total for u in rep.units.values())
        assert rep.mem_energy_j == rep.mem_accesses * 2e-11

    def test_counter_overhead_reported(self):
        rep = simulate(small_hier(with_l2=True), [AccessRecord(0, 0, AccessKind.LOAD, 0x0)], TABLE)
        # 8 L1 blocks per unit * 2 units * 2 bits, plus 64 L2 blocks * 2 bits
        assert rep.counter_overhead_bytes == (8 * 2 * 2 + 64 * 2) / 8

    def test_missing_table_entry_names_pair(self):
        cfg = small_hier(retention=5e-3)  # not in the sample table
        with pytest.raises(ConfigError) as exc:
            simulate(cfg, [AccessRecord(0, 0, AccessKind.LOAD, 0x0)], TABLE)
        assert "STTRAM" in str(exc.value) and "0.005" in str(exc.value)


class TestConfigValidation:
    def test_geometry_must_match_across_cores(self):
        a = l1()
        b = CacheUnitConfig(8 * 2 * 64, 2, 64, Technology.STTRAM, 1e-3)
        with pytest.raises(ConfigError, match="^l1i: per-core configs must share geometry$"):
            HierarchyConfig(num_cores=2, l1i=(a, b), l1d=(a, a))
        with pytest.raises(ConfigError, match="^l1d: per-core configs must share geometry$"):
            HierarchyConfig(num_cores=3, l1i=a, l1d=(a, a, b))

    def test_retention_may_differ_across_cores(self):
        a = l1(retention=1e-3)
        b = l1(retention=1e-2)
        cfg = HierarchyConfig(num_cores=2, l1i=(a, b), l1d=(a, b))
        assert cfg.l1i[1].retention_time == 1e-2

    def test_l2_line_size_must_match(self):
        l2 = CacheUnitConfig(4096, 4, 128, Technology.SRAM)
        with pytest.raises(ConfigError, match="^l2 line size must match l1i line size$"):
            HierarchyConfig(num_cores=1, l1i=l1(), l1d=l1(), l2=l2)
        with pytest.raises(ConfigError, match="^l2 line size must match l1d line size$"):
            HierarchyConfig(num_cores=1, l1i=l1(size=4 * 2 * 128, line=128), l1d=l1(), l2=l2)

    def test_per_core_list_length(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(num_cores=3, l1i=(l1(), l1()), l1d=l1())

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("num_cores", 0, "num_cores must be >= 1"),
            ("clock_hz", 0.0, "clock_hz must be > 0"),
            ("clock_hz", float("nan"), "clock_hz must be > 0"),
            ("mem_latency_cycles", -1, "memory parameters must be >= 0"),
            ("mem_energy_per_access", -1e-12, "memory parameters must be >= 0"),
            # a NaN or infinite energy or clock would turn every report's energy or time into NaN or inf
            ("clock_hz", math.inf, "clock_hz must be > 0 and finite"),
            ("mem_energy_per_access", float("nan"), "memory parameters must be >= 0 and finite"),
            ("mem_energy_per_access", math.inf, "memory parameters must be >= 0 and finite"),
        ],
    )
    def test_bad_hierarchy_field_named(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            HierarchyConfig(**{"num_cores": 1, "l1i": l1(), "l1d": l1(), field: value})

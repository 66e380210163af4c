import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_access_stream
from oracle import OracleCache
from sttsim import (
    CacheUnit,
    CacheUnitConfig,
    ConfigError,
    EvictionCause,
    MissClass,
    Technology,
    tick_cycles,
)
from sttsim import cache as cache_mod
from sttsim.cache import DEFAULT_CLOCK_HZ, MAX_COUNTER_STATES, ExpiredBlock

MS = 1e-3  # retentions are in seconds, unit times in cycles of the default clock
CLOCK = DEFAULT_CLOCK_HZ


def cyc(seconds):
    return round(seconds * CLOCK)


def stt_unit(sets=1, assoc=1, line=64, retention=1 * MS, n=4, refresh_on_read=False):
    cfg = CacheUnitConfig(
        size_bytes=sets * assoc * line,
        associativity=assoc,
        line_size_bytes=line,
        technology=Technology.STTRAM,
        retention_time=retention,
        counter_states=n,
        refresh_on_read=refresh_on_read,
    )
    return CacheUnit(cfg)


def sram_unit(sets=4, assoc=2, line=64):
    cfg = CacheUnitConfig(sets * assoc * line, assoc, line, Technology.SRAM)
    return CacheUnit(cfg)


class TestConfig:
    def test_geometry(self):
        cfg = CacheUnitConfig(32 * 1024, 4, 64, Technology.SRAM)
        assert cfg.num_sets == 128
        assert cfg.num_blocks == 512

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            CacheUnitConfig(3 * 64, 1, 64, Technology.SRAM)

    def test_sttram_needs_retention(self):
        with pytest.raises(ConfigError):
            CacheUnitConfig(64, 1, 64, Technology.STTRAM)
        for retention in (0.0, -1 * MS, math.inf, math.nan):
            with pytest.raises(ConfigError):
                CacheUnitConfig(64, 1, 64, Technology.STTRAM, retention_time=retention)

    def test_counter_overhead(self):
        cfg = CacheUnitConfig(32 * 1024, 4, 64, Technology.STTRAM, 1 * MS, counter_states=4)
        assert cfg.counter_bits == 2
        assert cfg.counter_overhead_bytes == 2 * 512 / 8
        sram = CacheUnitConfig(32 * 1024, 4, 64, Technology.SRAM)
        assert sram.counter_overhead_bytes == 0.0

    def test_counter_states_minimum(self):
        with pytest.raises(ConfigError):
            CacheUnitConfig(64, 1, 64, Technology.STTRAM, 1 * MS, counter_states=1)

    def test_counter_states_bound(self, monkeypatch):
        # a unit builds one wheel slot per state; no unit of a rejected size is built
        monkeypatch.setattr(cache_mod.CacheUnit, "__init__", None)
        top = CacheUnitConfig(64, 1, 64, Technology.STTRAM, 1 * MS, counter_states=MAX_COUNTER_STATES)
        assert MAX_COUNTER_STATES == 256 and top.counter_bits == 8
        for n in (MAX_COUNTER_STATES + 1, 10**6):
            with pytest.raises(ConfigError, match=f"counter_states must be <= 256, got {n}"):
                CacheUnitConfig(64, 1, 64, Technology.STTRAM, 1 * MS, counter_states=n)


class TestAccessBasics:
    def test_state_lives_in_slots(self):
        # an instance dict would put the hot paths back on hashed attribute lookups
        for u in (sram_unit(), stt_unit()):
            assert not hasattr(u, "__dict__")
            assert all(hasattr(u, name) for name in CacheUnit.__slots__)
            with pytest.raises(AttributeError):
                u.extra = 0

    def test_cold_start_compulsory(self):
        u = sram_unit()
        out = u.access(0x0, False, 0)
        assert (out.hit, out.miss_class, out.writeback_issued) == (False, MissClass.COMPULSORY, False)

    def test_hit_within_minimum_residency(self):
        u = stt_unit()
        u.access(0x0, True, 0)  # fill dirty, counter reset
        out = u.access(0x0, False, cyc(0.5 * MS))  # below the (N-1)/N * t_ret lower bound
        assert out.hit

    def test_expiration_miss_past_retention(self):
        u = stt_unit()
        u.access(0x0, True, 0)
        out = u.access(0x0, False, cyc(1.1 * MS))
        assert not out.hit
        assert out.miss_class == MissClass.EXPIRATION
        assert u.writebacks == 1  # the expired block was dirty

    def test_access_on_a_tick_boundary_sees_that_tick(self):
        # 4,750-cycle ticks: filled in tick 2, the block's deadline is tick 6, cycle 28,500
        u = stt_unit(retention=1e-5, n=4)
        assert u.tick_period == 4_750
        u.access(0x0, False, 9_500)
        assert u.access(0x0, False, 28_499).hit
        out = u.access(0x0, False, 28_500)
        assert (out.hit, out.miss_class) == (False, MissClass.EXPIRATION)

    def test_conflict_prefix_replacement_miss(self):
        # direct-mapped single set: A, then B evicting A, then A again
        u = sram_unit(sets=1, assoc=1)
        assert not u.access(0x0, False, 0).hit
        out_b = u.access(0x40, False, 1)
        assert not out_b.hit and out_b.victim_address == 0x0
        out_a = u.access(0x0, False, 2)
        assert out_a.miss_class == MissClass.REPLACEMENT

    def test_unaligned_address_rejected(self):
        u = sram_unit()
        with pytest.raises(ValueError):
            u.access(0x3, False, 0)

    def test_time_regression_rejected(self):
        u = sram_unit()
        u.access(0x0, False, 10)
        with pytest.raises(ValueError):
            u.access(0x40, False, 5)
        u.access(0x40, False, 10)  # equal time is allowed

    def test_float_time_past_a_tick_rejected(self):
        # a float below the first tick is never turned into ticks; one past it is named
        u = stt_unit(retention=1e-5)
        u.access(0x0, False, 0)
        u.access(0x0, False, 100.0)
        with pytest.raises(ValueError, match=r"unit: time 5000\.0 "):
            u.access(0x0, False, 5000.0)
        with pytest.raises(ValueError, match=r"unit: time 6000\.0 "):
            u.tick_expirations(6000.0)

    def test_tick_expirations_advances_clock(self):
        u = stt_unit()
        u.access(0x0, True, 0)
        assert len(u.tick_expirations(cyc(2 * MS))) == 1
        assert u.time == cyc(2 * MS)
        with pytest.raises(ValueError, match="time regression"):
            u.access(0x0, False, cyc(1.5 * MS))
        assert u.tick_expirations(cyc(1.5 * MS)) == []  # an earlier tick is a no-op
        assert u.time == cyc(2 * MS)
        out = u.access(0x0, False, cyc(2 * MS))
        assert out.miss_class == MissClass.EXPIRATION
        assert u.block_state(0, 0).counter == 0  # refilled at the clock's tick

    def test_lru_victim_selection(self):
        u = sram_unit(sets=1, assoc=2)
        u.access(0x0, False, 0)
        u.access(0x40, False, 1)
        u.access(0x0, False, 2)  # refresh LRU of 0x0
        out = u.access(0x80, False, 3)
        assert out.victim_address == 0x40

    def test_invalid_way_preferred_over_lru(self):
        u = sram_unit(sets=1, assoc=2)
        u.access(0x0, False, 0)
        out = u.access(0x40, False, 1)
        assert out.victim_address is None  # second way was free

    def test_dirty_victim_writeback(self):
        u = sram_unit(sets=1, assoc=1)
        u.access(0x0, True, 0)
        out = u.access(0x40, False, 1)
        assert out.writeback_issued and out.victim_address == 0x0
        assert u.writebacks == 1


class TestVictimChoice:
    """A miss fills its set's first invalid way, else its least recently used way."""

    @staticmethod
    def _addrs(assoc):
        # blocks of set 1 of 2, so the set does not start at way 0
        return [(2 * i + 1) * 64 for i in range(assoc + 1)]

    @pytest.mark.parametrize("assoc", [1, 4, 16])
    def test_first_invalid_way(self, assoc):
        u = stt_unit(sets=2, assoc=assoc)
        *addrs, new = self._addrs(assoc)
        for a in addrs:  # fills the ways in order, all at tick 0
            u.access(a, True, 0)
        gone = {assoc // 2, assoc - 1}  # a middle way and the last one expire
        for way, a in enumerate(addrs):
            if way not in gone:
                u.access(a, True, cyc(0.5 * MS))  # restarts its counter
        out = u.access(new, False, cyc(1.1 * MS))
        assert (out.hit, out.victim_address) == (False, None)
        assert u.block_state(1, assoc // 2).tag == new
        assert [u.block_state(1, w).valid for w in range(assoc)] == [
            w not in gone or w == assoc // 2 for w in range(assoc)
        ]

    @pytest.mark.parametrize("assoc", [1, 4, 16])
    def test_lru_way_of_a_full_set(self, assoc):
        u = sram_unit(sets=2, assoc=assoc)
        *addrs, new = self._addrs(assoc)
        for a in addrs:
            u.access(a, False, 0)
        lru = assoc // 2
        for way, a in enumerate(addrs):
            if way != lru:
                u.access(a, False, 1)
        out = u.access(new, True, 2)
        assert (out.hit, out.victim_address) == (False, addrs[lru])
        assert u.block_state(1, lru).tag == new
        assert u.resident_addresses() == set(addrs) - {addrs[lru]} | {new}


class TestCounterPolicy:
    def test_write_hit_resets_counter(self):
        u = stt_unit()
        u.access(0x0, True, 0)
        u.access(0x0, True, cyc(0.9 * MS))  # write hit, retention restarts
        assert u.access(0x0, False, cyc(1.6 * MS)).hit

    def test_read_hit_does_not_reset(self):
        u = stt_unit()
        u.access(0x0, True, 0)
        assert u.access(0x0, False, cyc(0.9 * MS)).hit  # read hit, no refresh
        out = u.access(0x0, False, cyc(1.2 * MS))
        assert not out.hit and out.miss_class == MissClass.EXPIRATION

    def test_refresh_on_read_switch(self):
        u = stt_unit(refresh_on_read=True)
        u.access(0x0, True, 0)
        assert u.access(0x0, False, cyc(0.9 * MS)).hit
        assert u.access(0x0, False, cyc(1.2 * MS)).hit  # the read at 0.9ms restarted retention

    def test_periodic_writes_never_expire(self):
        u = stt_unit(retention=1 * MS)
        t = 0
        for _ in range(200):  # refresh every 0.5 * t_ret across 100 * t_ret
            u.access(0x0, True, t)
            t += cyc(0.5 * MS)
        assert u.miss_expiration == 0
        assert u.evictions_expiration == 0


class TestTickSchedule:
    def test_aligned_reset_expires_at_exact_retention(self):
        u = stt_unit(retention=1 * MS, n=4)  # ticks every 0.25 ms
        u.access(0x0, True, 0)
        assert u.tick_expirations(cyc(1.0 * MS) - 1) == []
        events = u.tick_expirations(cyc(1.0 * MS))
        assert len(events) == 1
        assert events[0].address == 0x0
        assert events[0].dirty
        assert events[0].expire_time == cyc(1.0 * MS)

    def test_offset_reset_rounds_up_to_tick_grid(self):
        # reset at 0.1 ms; ticks at 0.25/0.5/0.75/1.0 ms; expiry at 1.0 ms
        u = stt_unit(retention=1 * MS, n=4)
        u.access(0x0, True, cyc(0.1 * MS))
        assert u.tick_expirations(cyc(0.99 * MS)) == []
        events = u.tick_expirations(cyc(1.0 * MS))
        assert events[0].expire_time == cyc(1.0 * MS)

    def test_sram_tick_is_noop(self):
        u = sram_unit()
        u.access(0x0, True, 0)
        assert u.tick_expirations(cyc(100.0)) == []

    def test_access_does_not_keep_expired_blocks(self):
        u = stt_unit(sets=2, assoc=2, retention=1e-5)
        for addr, w, t in random_access_stream(5, 500, num_blocks=8, write_fraction=0.4, gap_hi=40_000):
            u.access(addr, w, t)
        assert u.evictions_expiration > 0
        assert u.tick_expirations(u.time) == []

    def test_access_builds_no_expired_blocks(self, monkeypatch):
        built = []
        real = cache_mod._new_tuple

        def counting(cls, fields):
            if cls is ExpiredBlock:
                built.append(fields)
            return real(cls, fields)

        # the constructor the unit calls for both outcomes and expired blocks
        monkeypatch.setattr(cache_mod, "_new_tuple", counting)
        u = stt_unit(sets=2, assoc=2, retention=1e-5)
        stream = list(random_access_stream(5, 500, num_blocks=8, write_fraction=0.4, gap_hi=40_000))
        for addr, w, t in stream[:200]:
            u.access(addr, w, t)
        before = u.evictions_expiration
        assert before > 0 and built == []
        # only a caller that collects them gets them built, one per block expired
        returned = 0
        for addr, w, t in stream[200:350]:
            returned += len(u.tick_expirations(t))
            u.access(addr, w, t)
        assert len(built) == returned == u.evictions_expiration - before > 0
        # a collecting access() builds one block per dirty expiry and none for a clean one;
        # a twin in the same state counts the dirty ones through tick_expirations
        twin = stt_unit(sets=2, assoc=2, retention=1e-5)
        for addr, w, t in stream[:350]:
            twin.access(addr, w, t)
        before = u.evictions_expiration
        sink = []
        built_by_access = dirty_expiries = 0
        for addr, w, t in stream[350:]:
            dirty_expiries += sum(e.dirty for e in twin.tick_expirations(t))
            twin.access(addr, w, t)
            seen = len(built)
            u.access(addr, w, t, sink)
            built_by_access += len(built) - seen
        assert built_by_access == len(sink) == dirty_expiries > 0
        assert u.evictions_expiration - before > dirty_expiries  # clean ones expired too, unbuilt
        assert all(type(e) is ExpiredBlock and e.dirty for e in sink)

    def test_idle_gap_drains_in_bounded_steps(self):
        # one-cycle ticks: 1.9e10 ticks pass; only the N slots after the last access can hold a deadline
        u = stt_unit(retention=4 / CLOCK)
        assert u.tick_period == 1
        u.access(0x0, True, 0)
        events = u.tick_expirations(cyc(10.0))
        assert [(e.address, e.dirty) for e in events] == [(0x0, True)]
        assert events[0].expire_time == 4 * u.tick_period
        assert u.next_tick_time > cyc(10.0)
        assert u.tick_expirations(cyc(10.0)) == []

    @staticmethod
    def four_due_at_tick_8():
        """An L1 whose four ways all come due at tick 8, filed on the wheel as D, C, E, B."""
        u = stt_unit(sets=1, assoc=4, retention=1 * MS, n=4)
        p = u.tick_period
        u.access(0xA00, True, 0)  # way 0, due at tick 4
        u.access(0xB00, True, 3 * p)  # way 1, filed for tick 7
        u.access(0xD00, True, 4 * p)  # A expires first; D refills way 0 (generation 3)
        u.access(0xB00, True, 4 * p)  # refreshes way 1 (generation 2): re-filed at tick 7 for tick 8
        u.access(0xC00, True, 4 * p)  # way 2 (generation 1)
        u.access(0xE00, False, 4 * p)  # way 3 (generation 1), clean
        return u

    def expected_tick_8(self, p):
        # (generation, way) order: C (1, 2), E (1, 3), B (2, 1), D (3, 0)
        return [ExpiredBlock(0xC00, True, 8 * p), ExpiredBlock(0xE00, False, 8 * p),
                ExpiredBlock(0xB00, True, 8 * p), ExpiredBlock(0xD00, True, 8 * p)]

    def test_order_within_a_tick(self):
        u = self.four_due_at_tick_8()
        p = u.tick_period
        assert u.evictions_expiration == 1
        assert u.tick_expirations(7 * p) == []  # B re-filed, nothing due
        assert u.tick_expirations(8 * p) == self.expected_tick_8(p)
        # one drain over ticks 5-8, re-filing B and expiring it in the same call
        twin = self.four_due_at_tick_8()
        assert twin.tick_expirations(8 * p) == self.expected_tick_8(p)
        # access()'s list gets the dirty ones in that order, C, B, D (not filing order D, C, B,
        # nor way order D, B, C), after what it held; the clean E is only counted
        for at in (7 * p, 8 * p - 1):
            twin = self.four_due_at_tick_8()
            sink = ["kept"]
            assert twin.access(0xE00, False, at, sink).hit  # a read leaves E's counter running
            assert twin.access(0xE00, False, 8 * p, sink).miss_class is MissClass.EXPIRATION
            assert sink == ["kept", *(e for e in self.expected_tick_8(p) if e.dirty)]
            assert twin.evictions_expiration == 5

    def test_next_tick_time(self):
        u = stt_unit(retention=1 * MS, n=4)
        assert u.next_tick_time == cyc(0.25 * MS)
        u.access(0x0, False, cyc(0.6 * MS))
        assert u.next_tick_time == cyc(0.75 * MS)
        assert sram_unit().next_tick_time == float("inf")

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_residency_bound_random_phases(self, n):
        retention = cyc(1 * MS)  # a whole number of ticks for every n
        u = stt_unit(retention=1 * MS, n=n)
        rng = random.Random(n)
        t = 0
        for _ in range(1000):
            t += round(rng.random() * 0.4 * retention)
            u.access(0x0, True, t)  # write resets the counter at phase t
            events = u.tick_expirations(t + 2 * retention)
            assert len(events) == 1
            residency = events[0].expire_time - t
            assert (n - 1) * retention < n * residency <= n * retention
            t = t + 2 * retention

    def test_counter_value_progression(self):
        u = stt_unit(retention=1 * MS, n=4)
        u.access(0x0, True, 0)
        assert u.counter_value(0, cyc(0.1 * MS)) == 0
        assert u.counter_value(0, cyc(0.25 * MS)) == 1
        assert u.counter_value(0, cyc(0.6 * MS)) == 2
        assert u.counter_value(0, cyc(0.99 * MS)) == 3

    def test_block_state_snapshot(self):
        u = stt_unit(retention=1 * MS, n=4)
        u.access(0x0, True, 0)
        st = u.block_state(0, 0, at=cyc(0.3 * MS))
        assert st.valid and st.dirty and st.tag == 0x0 and st.counter == 1


class TestInspectionRefusals:
    """The inspection calls refuse what no way or block of the unit is, as access does."""

    def unit_holding_0x40(self):
        u = sram_unit(sets=2, assoc=2)
        u.access(0x40, False, 0)  # set 1, way 0
        return u

    def test_block_state_set_out_of_range(self):
        u = self.unit_holding_0x40()
        for set_index in (2, -1):  # one past the last set, and an index from the end
            with pytest.raises(ValueError, match=rf"^unit: no way 0 of set {set_index} in 2 sets of 2 ways$"):
                u.block_state(set_index, 0)
        assert u.block_state(1, 0).tag == 0x40

    def test_block_state_way_out_of_range(self):
        u = self.unit_holding_0x40()
        for way in (2, -1):  # one past the set's last way, and an index from the end
            with pytest.raises(ValueError, match=rf"^unit: no way {way} of set 0 in 2 sets of 2 ways$"):
                u.block_state(0, way)

    def stt_unit_holding_0x40(self):
        u = stt_unit(sets=2, assoc=2, retention=1 * MS)
        u.access(0x40, False, 0)  # set 1, way 0: flat way 2
        assert u.counter_value(2, 10**6) == 2
        return u

    def test_counter_value_of_a_way_from_the_end(self):
        # -2 answered for flat way 2, the way of 0x40
        with pytest.raises(ValueError, match=r"^unit: no way -2 in 4 ways$"):
            self.stt_unit_holding_0x40().counter_value(-2, 10**6)

    def test_counter_value_of_a_way_past_the_last(self):
        # 4 raised a bare IndexError from the reset-tick list
        with pytest.raises(ValueError, match=r"^unit: no way 4 in 4 ways$"):
            self.stt_unit_holding_0x40().counter_value(4, 0)

    def test_counter_value_of_a_way_that_holds_no_block(self):
        # way 3 was never filled: its reset tick 0 gave a stale count; block_state reports 0
        u = self.stt_unit_holding_0x40()
        assert u.counter_value(3, 10**6) == 0
        assert u.block_state(1, 1, 10**6).counter == 0

    def test_eviction_cause_of_an_unaligned_address(self):
        u = self.unit_holding_0x40()
        with pytest.raises(ValueError, match=r"^unit: address 0x41 not aligned to 64-byte line$"):
            u.eviction_cause(0x41)
        assert u.eviction_cause(0x40) is EvictionCause.RESIDENT


class TestLedger:
    def test_cause_transitions(self):
        u = stt_unit(sets=1, assoc=1, retention=1 * MS)
        assert u.eviction_cause(0x0) == EvictionCause.NEVER_RESIDENT
        u.access(0x0, False, 0)
        assert u.eviction_cause(0x0) == EvictionCause.RESIDENT
        u.access(0x40, False, cyc(0.1 * MS))  # replaces 0x0
        assert u.eviction_cause(0x0) == EvictionCause.EVICTED_BY_REPLACEMENT
        u.tick_expirations(cyc(5 * MS))
        assert u.eviction_cause(0x40) == EvictionCause.EVICTED_BY_EXPIRATION

    def test_resident_iff_hit(self):
        u = stt_unit(sets=2, assoc=2, retention=1 * MS)
        stream = random_access_stream(11, 300, num_blocks=8, gap_hi=40_000)
        for addr, w, t in stream:
            u.access(addr, w, t)
        resident = u.resident_addresses()
        untouched = max(addr for addr, _, _ in stream) + 64
        for addr in {addr for addr, _, _ in stream} | {untouched}:
            assert (u.eviction_cause(addr) == EvictionCause.RESIDENT) == (addr in resident)
        assert u.eviction_cause(untouched) == EvictionCause.NEVER_RESIDENT


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_conservation(self, seed):
        retention = [1e-5, 1e-4, 1e-3][seed % 3]
        u = stt_unit(sets=4, assoc=2, retention=retention)
        stream = random_access_stream(seed, 2000, num_blocks=24, write_fraction=0.4)
        for addr, w, now in stream:
            u.access(addr, w, now)
        assert u.hits + u.misses == u.accesses == len(stream)
        assert u.misses == u.miss_compulsory + u.miss_replacement + u.miss_expiration
        assert u.fills == u.misses  # allocate-on-miss, write-allocate
        resident = len(u.resident_addresses())
        assert u.evictions_replacement + u.evictions_expiration + resident == u.fills
        assert u.writebacks <= u.fills

    def test_sram_equivalence_long_retention(self):
        stream = random_access_stream(23, 1500, num_blocks=20, write_fraction=0.5)
        duration = stream[-1][2]
        stt = stt_unit(sets=4, assoc=2, retention=duration * 1.01 / CLOCK)
        ram = sram_unit(sets=4, assoc=2)
        for addr, w, now in stream:
            assert stt.access(addr, w, now) == ram.access(addr, w, now)
        assert stt.miss_expiration == 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_simulator(self, seed):
        retention = [1e-6, 1e-5, 1e-4, 1e-3][seed % 4]
        refresh = seed % 2 == 1
        unit = stt_unit(sets=4, assoc=2, retention=retention, refresh_on_read=refresh)
        ref = OracleCache(4, 2, 64, retention=retention, refresh_on_read=refresh)
        for addr, w, now in random_access_stream(seed + 100, 1000, num_blocks=16, gap_lo=20, gap_hi=1000):
            out = unit.access(addr, w, now)
            expected = ref.access(addr, w, now)
            got = (
                out.hit,
                {None: None, MissClass.COMPULSORY: "compulsory", MissClass.REPLACEMENT: "replacement",
                 MissClass.EXPIRATION: "expiration"}[out.miss_class],
                out.writeback_issued,
                out.victim_address,
            )
            assert got == expected
        assert unit.writebacks == ref.writebacks
        assert unit.evictions_expiration == ref.evictions_expiration
        assert unit.miss_expiration == ref.miss_expiration


_MISS_NAME = {None: None, MissClass.COMPULSORY: "compulsory", MissClass.REPLACEMENT: "replacement",
              MissClass.EXPIRATION: "expiration"}


class TestOraclePropertyEquivalence:
    """Per-access agreement with the eager oracle over random geometries and policies."""

    @settings(max_examples=150, deadline=None)
    @given(
        sets=st.sampled_from([1, 2, 4, 8]),
        assoc=st.integers(1, 16),
        retention=st.sampled_from([None, 1e-6, 1e-5, 1e-4, 1e-3]),
        n=st.integers(2, 8),
        clock_hz=st.sampled_from([1e9, 1.9e9, 3.2e9]),
        refresh_on_read=st.booleans(),
        write_fraction=st.floats(0.0, 1.0),
        blocks_per_way=st.floats(0.25, 3.0),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(["access", "tick_first", "sink", "core"]),
    )
    def test_matches_oracle(self, sets, assoc, retention, n, clock_hz, refresh_on_read, write_fraction,
                            blocks_per_way, seed, mode):
        tech = Technology.SRAM if retention is None else Technology.STTRAM
        cfg = CacheUnitConfig(sets * assoc * 64, assoc, 64, tech, retention_time=retention,
                              counter_states=n, refresh_on_read=refresh_on_read)
        unit = CacheUnit(cfg, clock_hz=clock_hz)
        twin = CacheUnit(cfg, clock_hz=clock_hz)
        ref = OracleCache(sets, assoc, 64, retention=retention, counter_states=n,
                          refresh_on_read=refresh_on_read, clock_hz=clock_hz)
        num_blocks = max(1, round(blocks_per_way * sets * assoc))
        stream = random_access_stream(seed, 300, num_blocks=num_blocks, write_fraction=write_fraction,
                                      gap_lo=20, gap_hi=1000)
        # core drives the unchecked core as the replays do, with admitted input: aligned addresses at int
        # times that never go back (the stream's), and a list as a two-level run's L1 is given
        sink = mode in ("sink", "core")
        access = unit._access if mode == "core" else unit.access
        for addr, w, now in stream:
            # tick_first sees every expiry through tick_expirations, sink and core through the
            # access's list; access only lets access() apply them
            expired = unit.tick_expirations(now) if mode == "tick_first" else []
            out = access(addr, w, now, expired if sink else None)
            got = (out.hit, _MISS_NAME[out.miss_class], out.writeback_issued, out.victim_address)
            seen = len(ref.expired_events)
            assert got == ref.access(addr, w, now)
            if mode != "access":
                # same blocks per tick (sink, core: the dirty ones only); the order within a tick is the unit's own
                want = [e for e in ref.expired_events[seen:] if e[1] or mode == "tick_first"]
                assert Counter((e.address, e.dirty, e.expire_time) for e in expired) == Counter(want)
                times = [e.expire_time for e in expired]
                assert times == sorted(times)
            if sink:
                # and the order tick_expirations gives them among the clean ones
                assert expired == [e for e in twin.tick_expirations(now) if e.dirty]
                assert twin.access(addr, w, now) == out
        assert unit.resident_addresses() == {a for s in ref.sets for a in s}
        # the address map: every address seen, its way while resident, else how it left
        where = unit._where
        assert {a: way for a, way in where.items() if way >= 0} == {
            t: way for way, t in enumerate(unit._tags) if t is not None}
        assert set(where) == set(ref.ledger)
        assert {way for way in where.values() if way < 0} <= {cache_mod._REPLACED, cache_mod._EXPIRED}
        cause_of = {"resident": EvictionCause.RESIDENT, "repl": EvictionCause.EVICTED_BY_REPLACEMENT,
                    "exp": EvictionCause.EVICTED_BY_EXPIRATION}
        for a, state in ref.ledger.items():
            assert unit.eviction_cause(a) is cause_of[state]
        assert unit.eviction_cause(num_blocks * 64) is EvictionCause.NEVER_RESIDENT
        assert unit.writebacks == ref.writebacks
        assert unit.evictions_expiration == ref.evictions_expiration
        assert unit.evictions_replacement == ref.evictions_replacement


def test_tick_cycles_rounds_to_whole_cycles():
    def cfg(retention, n):
        return CacheUnitConfig(64, 1, 64, Technology.STTRAM, retention, counter_states=n)

    assert tick_cycles(cfg(1e-5, 4), 1.9e9) == 4_750
    assert tick_cycles(cfg(1e-6, 7), 3.2e9) == 457  # 457.14 cycles
    assert tick_cycles(cfg(1e-6, 6), 1e9) == 167  # 166.67 cycles
    assert CacheUnit(cfg(1e-6, 7), clock_hz=3.2e9).tick_period == 457
    for retention, clock in ((1e-9, 1.9e9), (1e-320, 1.9e9), (5e-324, 1e9)):
        with pytest.raises(ConfigError, match=rf"{retention!r} s at {clock!r} Hz .* at least one"):
            tick_cycles(cfg(retention, 4), clock)
        with pytest.raises(ConfigError):
            CacheUnit(cfg(retention, 4), clock_hz=clock)

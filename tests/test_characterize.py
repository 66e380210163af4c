import bisect
import math
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import random_trace
from oracle import _reference_quantiles, reference_block_lifetimes, reference_expiration_curve, reference_persistence
from sttsim import (
    AccessKind,
    AccessRecord,
    CacheUnitConfig,
    ConfigError,
    ConstantGap,
    LogUniformGap,
    SyntheticTraceSpec,
    Technology,
    TraceRecordsError,
    UniformRandom,
    Zipf,
    block_lifetimes,
    expiration_curve,
    generate_trace,
    persistence,
    read_trace,
    read_write_ratio,
    tick_cycles,
    write_trace,
)
from sttsim import characterize
from sttsim.trace import check_records
from sttsim.characterize import LIFETIME_BUCKET_EDGES, ExpirationCurvePoint, _bucketize, _quantiles

CLOCK = 1.9e9
MS = 1e-3


def cycles(seconds):
    return int(round(seconds * CLOCK))


def unit_cfg(sets=1, assoc=1, line=64):
    return CacheUnitConfig(sets * assoc * line, assoc, line, Technology.SRAM)


def ld(core, t_s, addr):
    return AccessRecord(core, cycles(t_s), AccessKind.LOAD, addr)


def st(core, t_s, addr):
    return AccessRecord(core, cycles(t_s), AccessKind.STORE, addr)


ONE_SHOT = {"list": list, "generator": lambda xs: (x for x in xs)}


class TestReadWriteRatio:
    def test_two_loads_one_store(self):
        trace = [ld(0, 0, 0x0), ld(0, 1e-6, 0x40), st(0, 2e-6, 0x80)]
        assert read_write_ratio(trace).read_fraction == 2 / 3

    def test_instruction_fetches_excluded(self):
        trace = [AccessRecord(0, 0, AccessKind.INSTR_FETCH, 0x0), ld(0, 1e-6, 0x40), st(0, 2e-6, 0x80)]
        assert read_write_ratio(trace).read_fraction == 1 / 2

    def test_all_if_trace_reports_absent(self):
        trace = [AccessRecord(0, t, AccessKind.INSTR_FETCH, 0x0) for t in range(5)]
        report = read_write_ratio(trace)
        assert report.read_fraction is None

    def test_per_core_breakdown(self):
        trace = sorted(
            [ld(0, 0, 0x0), st(0, 1e-6, 0x0), ld(1, 0, 0x0), ld(1, 1e-6, 0x40), ld(1, 2e-6, 0x80)],
            key=lambda r: (r.timestamp, r.core_id),
        )
        report = read_write_ratio(trace)
        assert report.per_core[0] == (1, 1, 0.5)
        assert report.per_core[1] == (3, 0, 1.0)

    def test_per_core_counts_match_a_count_of_records(self):
        # adjacent core ids, and one past the narrow cores column
        records = [r._replace(core_id=(0, 1, 300)[r.core_id])
                   for r in random_trace(5, 900, num_cores=3, write_fraction=0.4, instr_fraction=0.2)]
        counts = Counter((r.core_id, r.kind) for r in records)
        loads = {core: counts[core, AccessKind.LOAD] for core in (0, 1, 300)}
        stores = {core: counts[core, AccessKind.STORE] for core in (0, 1, 300)}
        report = read_write_ratio(records)
        assert report.per_core == {c: (loads[c], stores[c], loads[c] / (loads[c] + stores[c])) for c in loads}
        assert (report.loads, report.stores) == (sum(loads.values()), sum(stores.values()))

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            read_write_ratio([])

    def test_generator_realization(self):
        spec = SyntheticTraceSpec(
            seed=12, num_cores=1, accesses_per_core=100_000, read_fraction=0.67,
            working_set_blocks=512, gap=ConstantGap(10), pattern=UniformRandom(),
        )
        frac = read_write_ratio(generate_trace(spec)).read_fraction
        assert 0.65 <= frac <= 0.69


class TestBlockLifetimes:
    def test_single_residency_last_hit(self):
        # fill at 0, hits at 1ms and 5ms, evicted later: lifetime 5ms
        trace = [ld(0, 0, 0x0), ld(0, 1 * MS, 0x0), ld(0, 5 * MS, 0x0), ld(0, 9 * MS, 0x40)]
        hist = block_lifetimes(trace, unit_cfg(), clock_hz=CLOCK)
        assert hist.total_residencies == 1
        # 5ms lands in the [1ms, 10ms) bucket: index 4 with underflow at 0
        assert hist.counts_last_hit[4] == 1
        assert sum(hist.counts_last_hit) == 1
        assert hist.quantiles_last_hit["p50"] == pytest.approx(5 * MS, rel=1e-9)

    def test_never_rereferenced_is_zero_lifetime_underflow(self):
        trace = [ld(0, 0, 0x0), ld(0, 1 * MS, 0x40)]  # 0x40 evicts 0x0
        hist = block_lifetimes(trace, unit_cfg(), clock_hz=CLOCK)
        assert hist.total_residencies == 1
        assert hist.counts_last_hit[0] == 1  # underflow bucket

    def test_fill_to_eviction_alternate_measure(self):
        trace = [ld(0, 0, 0x0), ld(0, 2 * MS, 0x40)]
        hist = block_lifetimes(trace, unit_cfg(), clock_hz=CLOCK)
        assert hist.counts_fill_to_eviction[4] == 1  # evicted 2ms after fill
        assert hist.quantiles_fill_to_eviction["p50"] == pytest.approx(2 * MS, rel=1e-9)

    def test_loop_trace_closed_form(self):
        # 8 blocks revisited each period; direct-mapped 8-line unit keeps all
        # resident, so each completed interval is impossible; force eviction
        # with a second address wave at the end via a smaller unit.
        period_cycles = 8 * 1000
        loop_count = 5
        records = []
        for i in range(loop_count * 8):
            records.append(AccessRecord(0, i * 1000, AccessKind.LOAD, (i % 8) * 64))
        # evict everything by touching 8 fresh conflicting blocks
        base = loop_count * 8 * 1000
        for j in range(8):
            records.append(AccessRecord(0, base + j * 1000, AccessKind.LOAD, (8 + j) * 64))
        cfg = CacheUnitConfig(8 * 64, 1, 64, Technology.SRAM)
        hist = block_lifetimes(records, cfg, clock_hz=CLOCK)
        assert hist.total_residencies == 8
        expected = period_cycles * (loop_count - 1) / CLOCK
        assert hist.quantiles_last_hit["p50"] == pytest.approx(expected, rel=1e-9)
        # all 8 lifetimes are identical, hence a single occupied bucket
        assert max(hist.counts_last_hit) == 8

    def test_total_residencies_matches_fills_minus_resident(self):
        trace = random_trace(31, 4000, num_blocks=64, write_fraction=0.3)
        cfg = CacheUnitConfig(16 * 2 * 64, 2, 64, Technology.SRAM)
        hist = block_lifetimes(trace, cfg, clock_hz=CLOCK)
        # replay manually to count fills and end-resident blocks
        from sttsim import CacheUnit

        unit = CacheUnit(cfg)
        for r in trace:
            if r.kind:
                unit.access(r.address, r.kind == AccessKind.STORE, r.timestamp)
        assert hist.total_residencies == unit.fills - len(unit.resident_addresses())

    def test_lifetime_is_its_cycles_divided_by_the_clock(self):
        # 190,000 cycles are exactly 1e-4 s at 1.9 GHz; 201,000 / clock - 11,000 / clock is below it
        trace = [AccessRecord(0, 11_000, AccessKind.LOAD, 0x0), AccessRecord(0, 201_000, AccessKind.LOAD, 0x0),
                 AccessRecord(0, 300_000, AccessKind.LOAD, 0x40)]
        hist = block_lifetimes(trace, unit_cfg(), clock_hz=CLOCK)
        assert hist.counts_last_hit == [0, 0, 0, 1, 0, 0, 0, 0]  # [1e-4, 1e-3)
        assert hist.quantiles_last_hit["p50"] == 1e-4

    def test_sttram_config_forced_unbounded(self):
        cfg = CacheUnitConfig(64, 1, 64, Technology.STTRAM, 1e-6)
        trace = [ld(0, 0, 0x0), ld(0, 50 * MS, 0x0), ld(0, 60 * MS, 0x40)]
        hist = block_lifetimes(trace, cfg, clock_hz=CLOCK)
        # with expiration disabled the 50ms re-reference is a hit
        assert hist.quantiles_last_hit["p50"] == pytest.approx(50 * MS, rel=1e-9)

    @pytest.mark.parametrize(
        "edges",
        [(1e-4, 1e-6), (), (1e-3, 1e-3), (0.0, 1e-3), (-1e-3,), (1e-6, math.nan), (1e-6, math.inf), ("1e-3",),
         (True,), (1e-6, True)],
    )
    def test_bad_bucket_edges_rejected(self, edges):
        trace = [ld(0, k * 50e-6, (k % 2) * 0x40) for k in range(12)]
        with pytest.raises(ConfigError, match="bucket_edges"):
            block_lifetimes(trace, unit_cfg(), clock_hz=CLOCK, bucket_edges=edges)


    @pytest.mark.parametrize("kind", ["list", "generator"])
    def test_edges_of_any_iterable(self, kind):
        # a one-shot iterable is read once: validated and bucketed alike, stored as a tuple
        trace = random_trace(5, 400, num_blocks=8)
        edges = (1e-8, 1e-7, 1e-6)
        want = block_lifetimes(trace, unit_cfg(), clock_hz=CLOCK, bucket_edges=edges)
        got = block_lifetimes(trace, unit_cfg(), clock_hz=CLOCK, bucket_edges=ONE_SHOT[kind](edges))
        assert len(want.counts_last_hit) == 4
        assert got == want and type(got.bucket_edges) is tuple


class TestPersistence:
    @pytest.mark.parametrize("kind", ["list", "generator"])
    def test_thresholds_of_any_iterable(self, kind):
        trace = random_trace(17, 200, num_blocks=8)
        want = persistence(trace, unit_cfg(), thresholds=(1, 2, 4))
        got = persistence(trace, unit_cfg(), thresholds=ONE_SHOT[kind]((1, 2, 4)))
        assert list(want.fractions) == [1, 2, 4]
        assert got == want

    @pytest.mark.parametrize("thresholds", [(0, -3), (1, 0), (1.5,), ("2",), (True,)])
    def test_bad_thresholds_rejected(self, thresholds):
        trace = random_trace(17, 200, num_blocks=8)
        with pytest.raises(ConfigError, match="thresholds"):
            persistence(trace, unit_cfg(), thresholds=thresholds)

    def test_filled_once_never_evicted(self):
        report = persistence([ld(0, 0, 0x0)], unit_cfg())
        assert report.unique_blocks == 1
        assert report.fractions == {1: 0.0, 2: 0.0, 4: 0.0, 8: 0.0}

    def test_reload_counting(self):
        # 0x0 filled, evicted, refilled twice (each refill after an eviction)
        trace = [
            ld(0, 0e-6, 0x0),
            ld(0, 1e-6, 0x40),  # evicts 0x0
            ld(0, 2e-6, 0x0),   # reload 1
            ld(0, 3e-6, 0x40),  # evicts 0x0
            ld(0, 4e-6, 0x0),   # reload 2
        ]
        report = persistence(trace, unit_cfg())
        # 0x0 reloads twice; 0x40's own second fill is also a reload
        assert report.reloaded_counts == {1: 2, 2: 1, 4: 0, 8: 0}
        assert report.fractions[1] == 1.0
        assert report.fractions[2] == 0.5  # only 0x0 reaches two reloads
        assert report.fractions[4] == 0.0

    def test_fractions_non_increasing(self):
        trace = random_trace(17, 5000, num_blocks=32, write_fraction=0.3)
        report = persistence(trace, unit_cfg(sets=2, assoc=2))
        fr = [report.fractions[t] for t in (1, 2, 4, 8)]
        assert fr == sorted(fr, reverse=True)

    def test_matches_bruteforce_recount(self):
        trace = random_trace(19, 3000, num_blocks=24, write_fraction=0.4)
        cfg = unit_cfg(sets=1, assoc=4)
        report = persistence(trace, cfg)

        # independent recount from a from-scratch fill/eviction log
        from oracle import OracleCache

        ref = OracleCache(1, 4, 64)
        fills = {}
        evicted = set()
        reloads = {}
        for r in trace:
            if not r.kind:
                continue
            hit, _, _, victim = ref.access(r.address, r.kind == AccessKind.STORE, r.timestamp / CLOCK)
            if not hit:
                fills[r.address] = fills.get(r.address, 0) + 1
                if r.address in evicted:
                    reloads[r.address] = reloads.get(r.address, 0) + 1
            if victim is not None:
                evicted.add(victim)
        for thd in (1, 2, 4, 8):
            assert report.reloaded_counts[thd] == sum(1 for v in reloads.values() if v >= thd)
        assert report.unique_blocks == len(fills)
        assert report.total_fills == sum(fills.values())


@pytest.mark.parametrize("clock", [0, -1.9e9, float("nan"), math.inf])
def test_every_replay_refuses_a_clock_that_is_not_positive_and_finite(clock):
    # 0 ended in a ZeroDivisionError; -1.9e9, NaN and inf gave lifetimes of -0.0, NaN and 0.0
    trace = random_trace(17, 200, num_blocks=8)
    for analysis in (
        lambda: block_lifetimes(trace, unit_cfg(), clock_hz=clock),
        lambda: persistence(trace, unit_cfg(), clock_hz=clock),
        lambda: expiration_curve(trace, unit_cfg(), [1e-3], clock_hz=clock),
    ):
        with pytest.raises(ConfigError, match=rf"^clock_hz must be > 0 and finite, got {clock!r}$"):
            analysis()


class TestExpirationCurve:
    def test_long_retention_no_expirations(self):
        trace = random_trace(5, 1000, num_blocks=8, write_fraction=0.5)
        duration = trace[-1].timestamp / CLOCK
        points = expiration_curve(trace, unit_cfg(sets=2, assoc=2), [duration * 2], clock_hz=CLOCK)
        assert points[0].expiration_misses == 0

    def test_periodic_store_closed_form(self):
        # one block stored every 2ms across 100ms: at 1ms retention every
        # re-reference finds the block expired; at 10ms each store resets
        # the counter in time and nothing ever expires
        trace = [st(0, k * 2 * MS, 0x0) for k in range(50)]
        cfg = CacheUnitConfig(64, 1, 64, Technology.STTRAM, 1e-3)
        points = expiration_curve(trace, cfg, [1 * MS, 10 * MS], clock_hz=CLOCK)
        assert points[0].expiration_misses == 49
        assert points[1].expiration_misses == 0

    def test_counts_non_increasing_on_loguniform_gaps(self):
        rng = random.Random(77)
        records = []
        # one fill plus one re-reference per block, gaps log-uniform in
        # [100us, 50ms]; sized so that replacement never interferes
        for b in range(600):
            start = rng.random() * 0.2
            gap = math.exp(math.log(100e-6) + rng.random() * (math.log(50e-3) - math.log(100e-6)))
            records.append(ld(0, start, b * 64))
            records.append(ld(0, start + gap, b * 64))
        records.sort(key=lambda r: (r.timestamp, r.core_id))
        cfg = CacheUnitConfig(128 * 8 * 64, 8, 64, Technology.SRAM)
        retentions = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        points = expiration_curve(records, cfg, retentions, clock_hz=CLOCK)
        counts = [p.expiration_misses for p in points]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0
        assert counts[0] > 0

    def test_requires_sorted_positive_retentions(self):
        trace = [ld(0, 0, 0x0)]
        with pytest.raises(ConfigError):
            expiration_curve(trace, unit_cfg(), [1e-3, 1e-6])
        with pytest.raises(ConfigError):
            expiration_curve(trace, unit_cfg(), [])
        with pytest.raises(ConfigError):
            expiration_curve(trace, unit_cfg(), [-1e-3])
        with pytest.raises(ConfigError, match="sorted ascending"):
            expiration_curve(trace, unit_cfg(), [1e-3, 1e-6])

    @pytest.mark.parametrize(
        "retentions, message",
        [([1e-6, 1e-3, 1e-3], "duplicate"), ([1e-6, math.inf], "finite"), ([math.nan, 1e-3], "finite"),
         (["1e-3"], r"^retentions must be real numbers, got '1e-3'$"),
         ([None], r"^retentions must be real numbers, got None$"),
         ([1e-3, True], r"^retentions must be real numbers, got True$")],
    )
    def test_rejects_duplicate_and_non_finite_retentions(self, retentions, message):
        with pytest.raises(ConfigError, match=message):
            expiration_curve([ld(0, 0, 0x0)], unit_cfg(), retentions)

    def test_repeated_invocation_identical(self):
        trace = random_trace(9, 2000, num_blocks=32, write_fraction=0.4)
        cfg = unit_cfg(sets=4, assoc=2)
        a = expiration_curve(trace, cfg, [1e-5, 1e-4, 1e-3], clock_hz=CLOCK)
        b = expiration_curve(trace, cfg, [1e-5, 1e-4, 1e-3], clock_hz=CLOCK)
        assert a == b


def counted_replays(monkeypatch):
    """The retention of each unit _replay runs from now on (None for the unbounded profile)."""
    replayed = []
    real_replay = characterize._replay

    def counting_replay(records, cfg, clock_hz, profile=False):
        replayed.append(cfg.retention_time)
        return real_replay(records, cfg, clock_hz, profile)

    monkeypatch.setattr(characterize, "_replay", counting_replay)
    monkeypatch.setattr(characterize, "_memo", None)
    return replayed


def first_deadline(retention, counter_states=4):
    cfg = CacheUnitConfig(64, 1, 64, Technology.STTRAM, retention, counter_states)
    return counter_states * tick_cycles(cfg, CLOCK)


class TestCurvePointsThatCannotExpire:
    """A retention whose first deadline is after the stream's last record takes its point from the profile."""

    def test_points_past_the_stream_do_not_replay(self, monkeypatch):
        replayed = counted_replays(monkeypatch)
        trace = random_trace(13, 3000, num_cores=2, num_blocks=24, write_fraction=0.4, gap_lo=1, gap_hi=20)
        last = trace[-1].timestamp
        retentions = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3]
        assert first_deadline(1e-6) <= last < first_deadline(1e-5)
        cfg = unit_cfg(sets=8, assoc=2)
        points = expiration_curve(trace, cfg, retentions, clock_hz=CLOCK)
        assert points == reference_expiration_curve(trace, cfg, retentions, CLOCK, "data")
        assert points[0].expiration_misses > 0
        assert replayed == [None, 1e-7, 1e-6]

    def test_last_record_on_a_first_deadline_replays(self, monkeypatch):
        # the block filled at cycle 0 comes due at the first deadline, and a read at that very cycle finds it
        # expired: no unbounded replay can show that
        replayed = counted_replays(monkeypatch)
        cfg = CacheUnitConfig(64, 1, 64, Technology.STTRAM, 1e-5)
        deadline = first_deadline(1e-5)
        trace = [ld(0, 0, 0x0), AccessRecord(0, deadline, AccessKind.LOAD, 0x0)]
        points = expiration_curve(trace, cfg, [1e-5], clock_hz=CLOCK)
        assert replayed == [None, 1e-5]
        assert points == reference_expiration_curve(trace, cfg, [1e-5], CLOCK, "data")
        assert points == [ExpirationCurvePoint(1e-5, 1, 2, 2.0)]
        # a cycle earlier the block is still there, and the point is the profile's
        trace[-1] = trace[-1]._replace(timestamp=deadline - 1)
        points = expiration_curve(trace, cfg, [1e-5], clock_hz=CLOCK)
        assert replayed == [None, 1e-5, None]
        assert points == reference_expiration_curve(trace, cfg, [1e-5], CLOCK, "data")
        assert points == [ExpirationCurvePoint(1e-5, 0, 1, 1.0)]

    def test_empty_stream(self, monkeypatch):
        replayed = counted_replays(monkeypatch)
        trace = [AccessRecord(0, 5, AccessKind.INSTR_FETCH, 0x0)]
        cfg = unit_cfg()
        points = expiration_curve(trace, cfg, [1e-6, 1e-3], clock_hz=CLOCK)
        assert points == reference_expiration_curve(trace, cfg, [1e-6, 1e-3], CLOCK, "data")
        # no unbounded miss to compare with: the ratio is not a number
        assert points == [ExpirationCurvePoint(1e-6, 0, 0, None), ExpirationCurvePoint(1e-3, 0, 0, None)]
        assert replayed == [None]
        assert persistence(trace, cfg, clock_hz=CLOCK).fractions == {1: None, 2: None, 4: None, 8: None}
        # a retention below one cycle is still named, though nothing is replayed at it
        with pytest.raises(ConfigError, match="a tick must last a whole number of cycles"):
            expiration_curve(trace, cfg, [1e-12], clock_hz=CLOCK)


class TestRecordOrder:
    """Reports do not depend on the order records arrive in."""

    def _traces(self):
        # core-major concatenation, as read from per-core files, and its sorted copy
        merged = random_trace(41, 6000, num_cores=3, num_blocks=96, write_fraction=0.4, instr_fraction=0.2)
        core_major = sorted(merged, key=lambda r: r.core_id)
        assert core_major != merged
        return core_major, merged

    @pytest.mark.parametrize("stream", ["data", "instr", "all"])
    def test_lifetimes_and_persistence(self, stream):
        shuffled, ordered = self._traces()
        cfg = unit_cfg(sets=8, assoc=2)
        assert block_lifetimes(shuffled, cfg, CLOCK, stream) == block_lifetimes(ordered, cfg, CLOCK, stream)
        assert persistence(shuffled, cfg, clock_hz=CLOCK, stream=stream) == \
            persistence(ordered, cfg, clock_hz=CLOCK, stream=stream)

    def test_expiration_curve(self):
        shuffled, ordered = self._traces()
        cfg = CacheUnitConfig(8 * 2 * 64, 2, 64, Technology.STTRAM, 1e-5)
        retentions = [1e-7, 1e-6, 1e-5]
        a = expiration_curve(shuffled, cfg, retentions, clock_hz=CLOCK)
        b = expiration_curve(ordered, cfg, retentions, clock_hz=CLOCK)
        assert a == b
        assert a[0].expiration_misses > 0


def mixed_trace(seed, n, num_cores, line, ties):
    """Records of every kind, unaligned addresses, shared timestamps when ties, not in time order."""
    rng = random.Random(seed)
    records = []
    t = [0] * num_cores
    for _ in range(n):
        core = rng.randrange(num_cores)
        kind = rng.choice((AccessKind.INSTR_FETCH, AccessKind.LOAD, AccessKind.LOAD, AccessKind.STORE))
        records.append(AccessRecord(core, t[core], kind, rng.randrange(24) * line + rng.randrange(line)))
        t[core] += rng.randint(0 if ties else 1, 2500)
    return records


def unit_config(sets, assoc, line, retention, counter_states, refresh_on_read):
    tech = Technology.SRAM if retention is None else Technology.STTRAM
    return CacheUnitConfig(sets * assoc * line, assoc, line, tech, retention, counter_states, refresh_on_read)


def reference_results(trace, cfg, clock_hz, stream, retentions):
    return (
        reference_block_lifetimes(trace, cfg, clock_hz, stream, LIFETIME_BUCKET_EDGES),
        reference_persistence(trace, cfg, (1, 2, 4, 8), clock_hz, stream),
        reference_expiration_curve(trace, cfg, retentions, clock_hz, stream),
    )


def results(trace, cfg, clock_hz, stream, retentions):
    return (
        block_lifetimes(trace, cfg, clock_hz, stream),
        persistence(trace, cfg, clock_hz=clock_hz, stream=stream),
        expiration_curve(trace, cfg, retentions, clock_hz=clock_hz, stream=stream),
    )


RETENTIONS = [1e-7, 1e-6, 1e-5]


class TestEquivalence:
    """The three analyses equal the former per-analysis replays (tests/oracle.py)."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=hs.integers(0, 2**32 - 1),
        n=hs.integers(0, 300),
        num_cores=hs.integers(1, 3),
        ties=hs.booleans(),
        sets=hs.sampled_from([1, 2, 4, 8]),
        assoc=hs.sampled_from([1, 2, 4]),
        line=hs.sampled_from([16, 64]),
        retention=hs.sampled_from([None, 1e-7, 1e-6, 1e-3]),
        counter_states=hs.sampled_from([2, 4]),
        refresh_on_read=hs.booleans(),
        clock_hz=hs.sampled_from([1e9, 1.9e9, 3.2e9]),
        streams=hs.lists(hs.sampled_from(["data", "instr", "all"]), min_size=1, max_size=3),
        retentions=hs.lists(hs.sampled_from(RETENTIONS), min_size=1, max_size=3, unique=True).map(sorted),
    )
    def test_matches_reference(self, seed, n, num_cores, ties, sets, assoc, line, retention,
                               counter_states, refresh_on_read, clock_hz, streams, retentions):
        trace = mixed_trace(seed, n, num_cores, line, ties)
        cfg = unit_config(sets, assoc, line, retention, counter_states, refresh_on_read)
        for stream in streams:
            if not trace:  # an empty trace is refused, whatever the stream
                with pytest.raises(TraceRecordsError, match="^trace has no records$"):
                    results(trace, cfg, clock_hz, stream, retentions)
                continue
            assert results(trace, cfg, clock_hz, stream, retentions) == \
                reference_results(trace, cfg, clock_hz, stream, retentions)


class TestProfileMemo:
    """Results never depend on what the one-entry profile memo holds."""

    CFG = unit_config(4, 2, 64, 1e-6, 4, False)

    def test_list_changed_in_place(self):
        trace = sorted(mixed_trace(3, 400, 2, 64, True), key=lambda r: (r.timestamp, r.core_id))
        before = results(trace, self.CFG, CLOCK, "all", RETENTIONS)
        assert before == reference_results(trace, self.CFG, CLOCK, "all", RETENTIONS)
        trace.append(AccessRecord(0, trace[-1].timestamp + 10, AccessKind.LOAD, 0x40))
        assert results(trace, self.CFG, CLOCK, "all", RETENTIONS) == \
            reference_results(trace, self.CFG, CLOCK, "all", RETENTIONS)
        old = trace[200]
        trace[200] = old._replace(address=old.address + 64 * 24)
        after = results(trace, self.CFG, CLOCK, "all", RETENTIONS)
        assert after == reference_results(trace, self.CFG, CLOCK, "all", RETENTIONS)
        assert after != before
        # an instruction fetch turned into a load of a new block joins the data stream
        before = results(trace, self.CFG, CLOCK, "data", RETENTIONS)
        i = next(i for i, r in enumerate(trace) if r.kind == AccessKind.INSTR_FETCH)
        trace[i] = trace[i]._replace(kind=AccessKind.LOAD, address=64 * 99)
        after = results(trace, self.CFG, CLOCK, "data", RETENTIONS)
        assert after == reference_results(trace, self.CFG, CLOCK, "data", RETENTIONS)
        assert after != before

    def test_config_clock_and_stream_varied_and_interleaved(self):
        trace = mixed_trace(5, 600, 3, 64, True)
        other = unit_config(8, 1, 64, None, 4, False)
        calls = [
            (self.CFG, CLOCK, "data"),
            (self.CFG, CLOCK, "instr"),
            (self.CFG, CLOCK, "data"),
            (self.CFG, 1e9, "data"),
            (other, 1e9, "data"),
            (self.CFG, CLOCK, "all"),
            (self.CFG, CLOCK, "data"),
        ]
        for cfg, clock_hz, stream in calls:
            for one, ref in zip(results(trace, cfg, clock_hz, stream, RETENTIONS),
                                reference_results(trace, cfg, clock_hz, stream, RETENTIONS)):
                assert one == ref
            # one analysis per call, interleaving streams between the three analyses
            assert persistence(trace, cfg, clock_hz=clock_hz, stream="instr") == \
                reference_persistence(trace, cfg, (1, 2, 4, 8), clock_hz, "instr")
            assert block_lifetimes(trace, cfg, clock_hz, stream) == \
                reference_block_lifetimes(trace, cfg, clock_hz, stream, LIFETIME_BUCKET_EDGES)

    def test_one_unbounded_replay_per_stream(self, monkeypatch):
        replayed = []
        real_replay = characterize._replay

        def counting_replay(records, cfg, clock_hz, profile=False):
            replayed.append(cfg.technology)
            return real_replay(records, cfg, clock_hz, profile)

        monkeypatch.setattr(characterize, "_replay", counting_replay)
        monkeypatch.setattr(characterize, "_memo", None)
        trace = check_records(mixed_trace(7, 500, 2, 64, False))
        results(trace, self.CFG, CLOCK, "data", RETENTIONS)
        assert replayed.count(Technology.SRAM) == 1
        assert replayed.count(Technology.STTRAM) == len(RETENTIONS)
        results(trace, self.CFG, CLOCK, "data", RETENTIONS)
        assert replayed.count(Technology.SRAM) == 1
        results(trace, self.CFG, CLOCK, "instr", RETENTIONS)
        assert replayed.count(Technology.SRAM) == 2
        # a list may change in place between calls: each of the three analyses replays it anew, even one
        # equal to the Trace just profiled
        records = list(trace)
        results(records, self.CFG, CLOCK, "instr", RETENTIONS)
        assert replayed.count(Technology.SRAM) == 5
        results(records, self.CFG, CLOCK, "instr", RETENTIONS)
        assert replayed.count(Technology.SRAM) == 8

    def test_an_out_of_order_trace_is_profiled_once_per_stream(self, monkeypatch, tmp_path):
        # a trace file grouped by core: admission orders a copy, and the memo keeps the caller's Trace, so the
        # next analysis of the stream finds it
        replayed = counted_replays(monkeypatch)
        records = mixed_trace(9, 600, 3, 64, True)
        write_trace(sorted(records, key=lambda r: r.core_id), str(tmp_path / "by_core.trace"))
        by_core = read_trace(str(tmp_path / "by_core.trace"))
        assert check_records(by_core) is not by_core
        for stream in ("data", "instr", "data"):
            assert results(by_core, self.CFG, CLOCK, stream, RETENTIONS) == \
                reference_results(records, self.CFG, CLOCK, stream, RETENTIONS)
        assert replayed.count(None) == 3  # data, instr, and data again after instr took the memo
        assert characterize._memo[3] is by_core


    def test_an_all_data_trace_is_profiled_in_place(self, monkeypatch):
        # no instruction fetch, in time order: the data stream is the caller's trace, and the memo keeps it
        monkeypatch.setattr(characterize, "_memo", None)
        spec = SyntheticTraceSpec(seed=3, num_cores=2, accesses_per_core=500, read_fraction=0.7,
                                  working_set_blocks=64, gap=LogUniformGap(20, 2000), pattern=Zipf(1.0))
        trace = generate_trace(spec)
        profile = characterize._sram_profile(trace, self.CFG, CLOCK, "data")
        assert profile.records is trace
        assert characterize._memo[3] is trace
        assert characterize._sram_profile(trace, self.CFG, CLOCK, "data") is profile
        assert characterize._sram_profile(trace, self.CFG, CLOCK, "all").records is trace

    @pytest.mark.parametrize("analysis", [
        lambda t, cfg, clock: block_lifetimes(t, cfg, clock_hz=clock),
        lambda t, cfg, clock: persistence(t, cfg, clock_hz=clock),
        lambda t, cfg, clock: expiration_curve(t, cfg, [1e-3], clock_hz=clock),
    ], ids=["lifetimes", "persistence", "curve"])
    def test_a_bool_clock_is_refused_after_a_profile_at_1_hz(self, monkeypatch, analysis):
        # True == 1, so the memo of a 1 Hz profile of the same Trace would answer a clock of True
        monkeypatch.setattr(characterize, "_memo", None)
        trace = check_records(mixed_trace(7, 200, 2, 64, False))
        block_lifetimes(trace, self.CFG, clock_hz=1)
        with pytest.raises(ConfigError, match="clock_hz must be a real number, got True"):
            analysis(trace, self.CFG, True)

    def test_one_selection_per_trace_and_stream(self, monkeypatch):
        admitted = []
        real_check_records = characterize.check_records

        def counting_check_records(records, ncores=None):
            admitted.append(records)
            return real_check_records(records, ncores)

        monkeypatch.setattr(characterize, "check_records", counting_check_records)
        monkeypatch.setattr(characterize, "_memo", None)
        # a stream of a Trace is admitted, and so selected, once: the memo answers the later analyses
        trace = check_records(mixed_trace(7, 500, 2, 64, False))
        results(trace, self.CFG, CLOCK, "data", RETENTIONS)
        results(trace, self.CFG, CLOCK, "data", RETENTIONS)
        assert len(admitted) == 1 and admitted[0] is trace
        results(trace, self.CFG, CLOCK, "instr", RETENTIONS)
        assert len(admitted) == 2 and admitted[1] is trace


class TestProfileMemory:
    """A profile holds no copy of the caller's trace, and its tables no more blocks than the unit."""

    # the characterize-tracefile benchmark's trace, and a unit of 512 blocks
    SPEC = SyntheticTraceSpec(seed=1, num_cores=4, accesses_per_core=30_000, read_fraction=0.67,
                              working_set_blocks=16384, gap=LogUniformGap(20, 20000), pattern=Zipf(1.0))
    CFG = unit_cfg(sets=128, assoc=4)

    def traced(self, monkeypatch, analysis):
        """Bytes per record (held after, peak during) that analysis(trace) allocates."""
        trace = generate_trace(self.SPEC)
        monkeypatch.setattr(characterize, "_memo", None)
        tracemalloc.start()
        try:
            analysis(trace)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held / len(trace), peak / len(trace)

    def test_lifetimes_hold_no_copy_of_the_trace(self, monkeypatch):
        # the profile's lifetimes and fill counts take about 8 bytes a record; the memo's and the data stream's
        # copies of the columns took about 51 more
        held, _ = self.traced(monkeypatch, lambda trace: block_lifetimes(trace, self.CFG, CLOCK))
        assert held <= 16

    def test_profile_tables_hold_resident_blocks_only(self, monkeypatch):
        # about 23 bytes a record at the peak; fill-time and last-hit tables of every block ever filled
        # (12,611 here, against the unit's 512) took about 35
        _, peak = self.traced(monkeypatch, lambda trace: characterize._sram_profile(trace, self.CFG, CLOCK, "data"))
        assert peak <= 28

    def test_curve_holds_one_replay_at_a_time(self, monkeypatch):
        # a quarter of the benchmark's trace: both retentions replay, each unit's state peaks at about 0.7 MB,
        # and the curve peaked at their sum when it kept the 1e-5 unit through the 1e-3 replay
        trace = generate_trace(replace(self.SPEC, accesses_per_core=7_500))
        monkeypatch.setattr(characterize, "_memo", None)
        records = characterize._sram_profile(trace, self.CFG, CLOCK, "data").records  # the curve reads this profile

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        retentions = [1e-5, 1e-3]
        units = [replace(self.CFG, technology=Technology.STTRAM, retention_time=r) for r in retentions]
        one = max(peak(lambda: characterize._replay(records, unit, CLOCK)) for unit in units)
        points = []
        curve = peak(lambda: points.extend(expiration_curve(trace, self.CFG, retentions, CLOCK)))
        assert all(p.expiration_misses for p in points)  # neither point was built without a replay
        assert curve <= 1.05 * one


class TestBadRecords:
    """Every analysis names a record kind outside 0-2, a negative core id or a field that is not an int."""

    CFG = unit_cfg()

    def analyses(self, trace):
        return [
            lambda: read_write_ratio(trace),
            lambda: block_lifetimes(trace, self.CFG),
            lambda: persistence(trace, self.CFG, stream="instr"),
            lambda: expiration_curve(trace, self.CFG, [1e-3], stream="all"),
        ]

    @pytest.mark.parametrize("kind", [3, -1])
    def test_kind_out_of_range(self, kind):
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), AccessRecord(0, 10, kind, 0x40)]
        for analysis in self.analyses(trace):
            with pytest.raises(ConfigError, match=f"kind {kind} "):
                analysis()

    def test_negative_core(self):
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), AccessRecord(-1, 10, AccessKind.INSTR_FETCH, 0x40)]
        for analysis in self.analyses(trace):
            with pytest.raises(ConfigError, match="core -1 "):
                analysis()

    # a float equal to an int core id or kind seen before it, unhashable values, values outside
    # the data stream that the lifetimes analyse, and timestamps and addresses outside the
    # instruction stream that persistence analyses, numpy integers included
    @pytest.mark.parametrize("field, value", [(0, 0.5), (0, 0.0), (0, []), (2, 1.0), (2, []), (2, "1"),
                                              (1, 10.0), (1, np.int64(10)), (3, 64.0), (3, np.uint64(64))])
    def test_core_or_kind_that_is_not_an_int(self, field, value):
        good = AccessRecord(0, 0, AccessKind.LOAD, 0x0)
        bad = AccessRecord(*(value if i == field else x for i, x in enumerate((0, 10, AccessKind.LOAD, 0x40))))
        for analysis in self.analyses([good, bad]):
            with pytest.raises(ConfigError, match=re.escape(f"trace record {bad!r} has a ") + ".* not an int"):
                analysis()
        with pytest.raises(ConfigError, match=re.escape(f"trace record {bad!r} has a ") + ".* not an int"):
            read_write_ratio([bad])


class TestBucketize:
    EDGES = LIFETIME_BUCKET_EDGES

    def test_value_on_edge_goes_to_upper_bucket(self):
        for i, edge in enumerate(self.EDGES):
            counts = _bucketize([edge], self.EDGES)
            assert counts[i + 1] == 1 and sum(counts) == 1

    def test_underflow_and_overflow(self):
        counts = _bucketize([0.0, 1e-9, 5.0, 1e3], self.EDGES)
        assert counts[0] == 2
        assert counts[-1] == 2
        assert len(counts) == len(self.EDGES) + 1

    def test_empty(self):
        assert _bucketize([], self.EDGES) == [0] * (len(self.EDGES) + 1)

    def test_matches_loop_reference(self):
        rng = random.Random(3)
        values = sorted([10 ** rng.uniform(-8, 1) for _ in range(2000)] + list(self.EDGES) + [0.0])
        expected = [0] * (len(self.EDGES) + 1)
        for v in values:
            expected[bisect.bisect_right(self.EDGES, v)] += 1
        got = _bucketize(values, self.EDGES)
        assert got == expected
        assert all(type(c) is int for c in got)


class TestQuantiles:
    """_quantiles against numpy.quantile (tests/oracle.py), bit for bit."""

    @staticmethod
    def check(values):
        got = _quantiles(sorted(values))
        assert got == _reference_quantiles(values)
        assert all(type(v) is float for v in got.values())

    @given(values=hs.lists(hs.one_of(hs.floats(0.0, 10.0), hs.sampled_from([0.0, 1e-6, 2.5e-4, 1.0])),
                           min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, values):
        self.check(values)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 51])
    def test_short_lists_duplicates_and_halfway_positions(self, n):
        # (n - 1) * q lies exactly halfway between two values for p50 at n = 2 and 4,
        # for p90 at n = 6 and for p99 at n = 51
        rng = random.Random(n)
        for _ in range(200):
            self.check([rng.choice([0.0, 1e-5, 3e-3]) if rng.random() < 0.4 else rng.uniform(0, 1e-3)
                        for _ in range(n)])
        self.check([7e-4] * n)

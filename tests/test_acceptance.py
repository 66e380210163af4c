"""Acceptance suite; prints one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import itertools
import math
import random
import time

from conftest import random_access_stream
from oracle import OracleCache
from sttsim import (
    AccessKind,
    AccessRecord,
    CacheUnit,
    CacheUnitConfig,
    EnergyBreakdown,
    HierarchyConfig,
    MissClass,
    TechParams,
    Technology,
    assign_asymmetric,
    expiration_curve,
    sample_tech_table,
    simulate,
    specialize,
    sweep,
    unit_energy,
)
from sttsim.cli import main as cli_main

TABLE = sample_tech_table()
CLOCK = 1.9e9
MS = 1e-3
RETENTION_SWEEP = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]


def criterion(cid, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {cid}: {label}")
                raise
            print(f"[PASS] criterion {cid}: {label}")
            return result

        return wrapper

    return deco


def cyc(seconds):
    return int(round(seconds * CLOCK))


def stt_cfg(sets, assoc, retention, n=4, line=64):
    return CacheUnitConfig(sets * assoc * line, assoc, line, Technology.STTRAM, retention,
                           counter_states=n)


def sram_cfg(sets, assoc, line=64):
    return CacheUnitConfig(sets * assoc * line, assoc, line, Technology.SRAM)


_MISS_NAME = {
    None: None,
    MissClass.COMPULSORY: "compulsory",
    MissClass.REPLACEMENT: "replacement",
    MissClass.EXPIRATION: "expiration",
}


@criterion(1, "per-access outcomes match the brute-force oracle")
def test_c01_oracle_equivalence():
    started = time.perf_counter()
    n_traces = 102
    for i in range(n_traces):
        retention = RETENTION_SWEEP[i % len(RETENTION_SWEEP)]
        unit = CacheUnit(stt_cfg(4, 2, retention), clock_hz=CLOCK)
        ref = OracleCache(4, 2, 64, retention=retention, clock_hz=CLOCK)
        stream = random_access_stream(1000 + i, 1000, num_blocks=16, write_fraction=0.35,
                                      gap_lo=20, gap_hi=1000)
        for addr, is_write, now in stream:
            out = unit.access(addr, is_write, now)
            assert (out.hit, _MISS_NAME[out.miss_class], out.writeback_issued, out.victim_address) \
                == ref.access(addr, is_write, now)
        assert unit.miss_expiration == ref.miss_expiration
        assert unit.writebacks == ref.writebacks
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


@criterion(2, "expiry residency in ((N-1)/N * t_ret, t_ret] over random phases")
def test_c02_residency_bound():
    retention = cyc(1 * MS)  # cycles, a whole number of ticks for every n
    for n in (2, 4, 8):
        unit = CacheUnit(stt_cfg(1, 1, 1 * MS, n=n), clock_hz=CLOCK)
        rng = random.Random(n * 7919)
        t = 0
        for _ in range(10_000):
            t += round(rng.random() * 0.9 * retention)
            unit.access(0x0, True, t)
            events = unit.tick_expirations(t + 2 * retention)
            assert len(events) == 1
            residency = events[0].expire_time - t
            assert (n - 1) * retention < n * residency <= n * retention, (n, t, residency)
            t += 2 * retention


@criterion(3, "retention >= trace duration behaves exactly like SRAM")
def test_c03_sram_equivalence():
    for seed in range(30):
        stream = random_access_stream(3000 + seed, 600 + 30 * seed, num_blocks=20,
                                      write_fraction=0.5, gap_lo=50, gap_hi=5000)
        duration = stream[-1][2]
        # a tick rounds to whole cycles, so the first deadline (N = 4 ticks)
        # lies within 2 cycles of the retention; 4 cycles more clear the last access
        for retention in ((duration + 4) / CLOCK, 10 * duration / CLOCK):
            stt = CacheUnit(stt_cfg(4, 2, retention), clock_hz=CLOCK)
            ram = CacheUnit(sram_cfg(4, 2))
            for addr, is_write, now in stream:
                assert stt.access(addr, is_write, now) == ram.access(addr, is_write, now)
            assert stt.miss_expiration == 0
            assert stt.evictions_expiration == 0


@criterion(4, "expiration misses fall monotonically across the retention sweep")
def test_c04_expiration_trend():
    started = time.perf_counter()
    rng = random.Random(4242)
    records = []
    lo, hi = math.log(100e-6), math.log(50e-3)
    for block in range(1500):
        start = rng.random() * 0.25
        gap = math.exp(lo + rng.random() * (hi - lo))
        records.append(AccessRecord(0, cyc(start), AccessKind.LOAD, block * 64))
        records.append(AccessRecord(0, cyc(start + gap), AccessKind.LOAD, block * 64))
    records.sort(key=lambda r: (r.timestamp, r.core_id))
    # unit sized so replacement never interferes (1500 blocks < 256 sets x 8 ways)
    points = expiration_curve(records, sram_cfg(256, 8), RETENTION_SWEEP, clock_hz=CLOCK)
    counts = [p.expiration_misses for p in points]
    assert counts == sorted(counts, reverse=True), counts
    assert counts[-1] == 0, counts
    assert counts[0] > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"expiration sweep took {elapsed:.1f}s"


@criterion(5, "hand-computed 5-access trace matches unit_energy exactly")
def test_c05_energy_closed_form():
    unit = CacheUnit(stt_cfg(1, 1, 10 * MS))
    a, b = 0x0, 0x40
    unit.access(a, False, 0)       # compulsory fill
    unit.access(a, True, 1)        # write hit, block now dirty
    unit.access(a, False, 2)       # read hit
    unit.access(b, False, 3)       # fills over dirty A: writeback
    unit.access(a, False, 4)       # replacement miss, evicts clean B
    assert (unit.read_hits, unit.write_hits, unit.fills, unit.writebacks) == (1, 1, 3, 1)

    params = TechParams(Technology.STTRAM, 10 * MS, 1e-12, 2e-12, 1e-3, 2, 4)
    got = unit_energy(params, unit, wall_time=1e-3)
    dr = 1e-12 * (1 + 1)     # read hits + writeback array reads
    dw = 2e-12 * (1 + 3)     # write hits + fills
    lk = 1e-3 * 1e-3
    assert got == EnergyBreakdown(dr, dw, lk, dr + dw + lk)


@criterion(6, "level flow conservation on random two-level quad-core runs")
def test_c06_level_flow():
    l1 = stt_cfg(4, 2, 1e-4)
    l2 = stt_cfg(16, 4, 1e-4)
    cfg = HierarchyConfig(num_cores=4, l1i=l1, l1d=l1, l2=l2, clock_hz=CLOCK)
    for seed in range(3):
        rng = random.Random(600 + seed)
        per_core = []
        for core in range(4):
            t = 0
            records = []
            for _ in range(2500):
                kind = (AccessKind.INSTR_FETCH if rng.random() < 0.25
                        else AccessKind.STORE if rng.random() < 0.4 else AccessKind.LOAD)
                records.append(AccessRecord(core, t, kind, rng.randrange(64) * 64))
                t += rng.randint(100, 30_000)
            per_core.append(records)
        trace = sorted((r for rs in per_core for r in rs), key=lambda r: (r.timestamp, r.core_id))
        rep = simulate(cfg, trace, TABLE)
        for u in rep.units.values():
            assert u.hits + u.misses == u.accesses
            assert u.miss_compulsory + u.miss_replacement + u.miss_expiration == u.misses
        l1_units = [u for name, u in rep.units.items() if name != "l2"]
        assert rep.units["l2"].accesses == sum(u.misses + u.writebacks for u in l1_units)


def _loop_thread(num_blocks, reuse_gap_s, duration_s, kind=AccessKind.LOAD, base_block=0):
    gap = reuse_gap_s / num_blocks
    records = []
    t, i = 0.0, 0
    while t < duration_s:
        records.append(AccessRecord(0, cyc(t), kind, (base_block + i % num_blocks) * 64))
        t += gap
        i += 1
    return records


def _l1_template():
    l1 = CacheUnitConfig(32 * 1024, 4, 64, Technology.SRAM)
    return HierarchyConfig(num_cores=1, l1i=l1, l1d=l1, clock_hz=CLOCK)


@criterion(7, "full-length sampling picks the exhaustive sweep argmin")
def test_c07_specialize_degeneracy():
    fast = _loop_thread(8, 2 * MS, 150 * MS)
    slow = _loop_thread(8, 20 * MS, 150 * MS, base_block=64)
    trace = sorted(fast + slow, key=lambda r: (r.timestamp, r.core_id))
    rets = [1e-4, 1e-3, 1e-2, 1e-1]
    exhaustive = sweep(trace, _l1_template(), rets, tech_table=TABLE)
    sampled = specialize(trace, _l1_template(), rets, base_retention=1e-3,
                         sample_len=len(trace), tech_table=TABLE)
    assert sampled.chosen_retention == exhaustive.best_retention


def _four_threads():
    return [
        _loop_thread(8, 0.5 * MS, 200 * MS),
        _loop_thread(8, 3 * MS, 200 * MS),
        _loop_thread(8, 30 * MS, 200 * MS),
        _loop_thread(2, 0.1 * MS, 200 * MS, kind=AccessKind.STORE),
    ]


CORE_RETENTIONS = [1e-3, 1e-2, 1e-1, 1e-3]


@criterion(8, "asymmetric assignment beats the best homogeneous retention")
def test_c08_asymmetric_superiority():
    result = assign_asymmetric(_four_threads(), _l1_template(), CORE_RETENTIONS,
                               profile_len=400, tech_table=TABLE)
    assert result.full_asym_total < result.best_homogeneous_total
    print(
        f"    asymmetric cache energy {result.full_asym_total:.3e} J vs best homogeneous "
        f"({result.best_homogeneous_retention:g}s) {result.best_homogeneous_total:.3e} J: "
        f"{100 * result.savings_vs_best_homogeneous:.1f}% savings (workload-dependent)"
    )


@criterion(9, "chosen assignment minimizes the profiled cost over all bijections")
def test_c09_assignment_optimality():
    result = assign_asymmetric(_four_threads(), _l1_template(), CORE_RETENTIONS,
                               profile_len=400, tech_table=TABLE)
    chosen = sum(result.cost_matrix[t][result.assignment[t]] for t in range(4))
    for perm in itertools.permutations(range(4)):
        assert chosen <= sum(result.cost_matrix[t][perm[t]] for t in range(4))


CLI_CONFIG = """
[hierarchy]
num_cores = 4

[l1i]
technology = STTRAM
retention_s = 1e-3

[l1d]
technology = STTRAM
retention_s = 1e-3

[l2]
technology = STTRAM
retention_s = 1e-3
size_bytes = 65536
associativity = 16

[synthetic]
seed = 9
accesses_per_core = 1500
read_fraction = 0.7
working_set_blocks = 256
gap = loguniform:1000:500000
pattern = zipf:1.1

[experiment]
retentions = 1e-4 1e-3 1e-2
profile_len = 800
core_retentions = 1e-3 1e-2 1e-1 1e-3
"""


@criterion(10, "every CLI subcommand is byte-deterministic across reruns")
def test_c10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CLI_CONFIG)

    def run_all(out_root):
        produced = []
        t1 = out_root / "gen.trace"
        assert cli_main(["gen-trace", "--seed", "4", "--num-cores", "2",
                         "--accesses-per-core", "400", "--pattern", "zipf:1.3",
                         "--gap", "loguniform:10:1000", "--working-set-blocks", "64",
                         "--out", str(t1)]) == 0
        produced.append(t1)
        for sub in ("simulate", "characterize", "sweep", "specialize", "asym"):
            out = out_root / sub
            assert cli_main([sub, "--config", str(cfg_path), "--out-dir", str(out),
                             "--jobs", "2"]) == 0
            produced.extend(sorted(out.iterdir()))
        return produced

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name


THROUGHPUT_CONFIG = """
[hierarchy]
num_cores = 4

[l1i]
technology = STTRAM
retention_s = 1e-3

[l1d]
technology = STTRAM
retention_s = 1e-3

[l2]
technology = STTRAM
retention_s = 1e-3

[synthetic]
seed = 77
accesses_per_core = 250000
read_fraction = 0.9
working_set_blocks = 4096
gap = constant:20
pattern = zipf:1.2

[experiment]
retentions = 1e-6 1e-5 1e-4 1e-3 1e-2 1e-1 1e0
"""


@criterion(11, "1M-access quad-core two-level sweep finishes under 60 s")
def test_c11_throughput(tmp_path):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(THROUGHPUT_CONFIG)
    out = tmp_path / "reports"
    started = time.perf_counter()
    assert cli_main(["sweep", "--config", str(cfg_path), "--out-dir", str(out),
                     "--jobs", "4"]) == 0
    elapsed = time.perf_counter() - started
    with open(out / "sweep.csv") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 1 + 1 + 7  # header, SRAM baseline, 7 retention points
    print(f"    sweep wall time {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"

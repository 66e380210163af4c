"""
Anatomy of an expiration miss
=============================

A reduced-retention STTRAM block only holds data reliably for the
configured retention time.  A per-block N-state counter, ticking every
retention/N (a whole number of core clock cycles), evicts each block
before its data can decay; dirty blocks are written back first.  A later
reference to an expired block is an expiration miss, a miss class that
simply does not exist in SRAM.  Units keep time in clock cycles.
"""

from sttsim import CacheUnit, CacheUnitConfig, Technology

MS = 1e-3
CLOCK_HZ = 1.9e9


def cycles(seconds):
    return round(seconds * CLOCK_HZ)


cfg = CacheUnitConfig(
    size_bytes=64,          # one block is enough to watch the counter
    associativity=1,
    line_size_bytes=64,
    technology=Technology.STTRAM,
    retention_time=1 * MS,
    counter_states=4,       # two bits per block of modeled overhead
)
unit = CacheUnit(cfg, clock_hz=CLOCK_HZ)
print(f"counter ticks every {unit.tick_period} cycles ({unit.tick_period / CLOCK_HZ * 1e3:.2f} ms"
      f" at {CLOCK_HZ / 1e9:.1f} GHz); {cfg.counter_bits} bits per block")

# Write the block at t=0, then watch the counter advance.
unit.access(0x0, True, 0)
for t in (0.1 * MS, 0.3 * MS, 0.6 * MS, 0.9 * MS):
    print(f"t={t * 1e3:.1f}ms counter={unit.counter_value(0, cycles(t))}")

# Reading within the retention window hits and does NOT reset the counter
# (reads are non-destructive; only writes re-magnetize the cells).
print("read at 0.5ms:", unit.access(0x0, False, cycles(0.5 * MS)))

# Past the deadline the block is gone; the reference is an expiration miss
# and the dirty data was written back at the expiry instant.
out = unit.access(0x0, False, cycles(1.2 * MS))
print("read at 1.2ms:", out)
print(f"expiration misses: {unit.miss_expiration}, writebacks: {unit.writebacks}")

# A write stream that returns more often than the retention time never
# expires: each write restarts the counter.
unit2 = CacheUnit(cfg, clock_hz=CLOCK_HZ)
t = 0
for _ in range(100):
    unit2.access(0x0, True, t)
    t += cycles(0.5 * MS)
print(f"\nwrite every 0.5ms for 50ms: expiration misses = {unit2.miss_expiration}")

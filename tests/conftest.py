import random

from sttsim import AccessKind, AccessRecord


def random_access_stream(seed, n, num_blocks=16, line_size=64, write_fraction=0.3,
                         gap_lo=50, gap_hi=2000):
    """Random (addr, is_write, now_cycles) tuples with increasing times."""
    rng = random.Random(seed)
    t = 0
    out = []
    for _ in range(n):
        addr = rng.randrange(num_blocks) * line_size
        is_write = rng.random() < write_fraction
        out.append((addr, is_write, t))
        t += rng.randint(gap_lo, gap_hi)
    return out


def random_trace(seed, n, num_cores=1, num_blocks=64, line_size=64, write_fraction=0.3,
                 gap_lo=20, gap_hi=500, instr_fraction=0.0):
    """Random multi-core AccessRecord list in (timestamp, core_id) order."""
    rng = random.Random(seed)
    per_core = []
    for core in range(num_cores):
        t = 0
        records = []
        for _ in range(n // num_cores):
            r = rng.random()
            if r < instr_fraction:
                kind = AccessKind.INSTR_FETCH
            elif rng.random() < write_fraction:
                kind = AccessKind.STORE
            else:
                kind = AccessKind.LOAD
            records.append(AccessRecord(core, t, kind, rng.randrange(num_blocks) * line_size))
            t += rng.randint(gap_lo, gap_hi)
        per_core.append(records)
    merged = [r for records in per_core for r in records]
    merged.sort(key=lambda r: (r.timestamp, r.core_id))
    return merged

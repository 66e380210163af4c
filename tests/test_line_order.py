"""Line order never changes a result.

A trace fixes each core's own record order (read_trace allows equal
timestamps within a core, and their order is program order) but not how
the cores' records interleave.  Every study must give identical results for
any interleaving that keeps each core's order.
"""

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as hs

from sttsim import (
    AccessRecord,
    CacheUnitConfig,
    HierarchyConfig,
    Technology,
    assign_asymmetric,
    block_lifetimes,
    expiration_curve,
    persistence,
    read_write_ratio,
    sample_tech_table,
    simulate,
    specialize,
    sweep,
)

TABLE = sample_tech_table()
CLOCK = 1.9e9
RETS = [1e-6, 1e-5, 1e-4]
# small enough that blocks are replaced, and that 1e-6 (1,900 cycles) expires them
L1 = CacheUnitConfig(256, 2, 64, Technology.SRAM)
L2 = CacheUnitConfig(1024, 4, 64, Technology.SRAM)

# gap 0 gives equal timestamps within a core and across cores
_GAPS = hs.sampled_from([0, 0, 1, 40, 700, 2500])
_CORE = hs.lists(hs.tuples(_GAPS, hs.integers(0, 2), hs.integers(0, 15)), min_size=1, max_size=40)


@hs.composite
def _trace_and_interleaving(draw):
    """A multi-core trace in (timestamp, core_id) order, and another
    interleaving of the same records that keeps each core's order."""
    cores = draw(hs.lists(_CORE, min_size=1, max_size=3))
    per_core = [
        [AccessRecord(c, t, kind, block * 64) for t, (_, kind, block) in zip(accumulate(g for g, _, _ in recs), recs)]
        for c, recs in enumerate(cores)
    ]
    ordered = sorted((r for recs in per_core for r in recs), key=lambda r: (r.timestamp, r.core_id))
    pending = [iter(recs) for recs in per_core]
    mixed = [next(pending[c]) for c in draw(hs.permutations([r.core_id for r in ordered]))]
    return ordered, mixed


def _hierarchy(num_cores, with_l2):
    return HierarchyConfig(num_cores=num_cores, l1i=L1, l1d=L1, l2=L2 if with_l2 else None, clock_hz=CLOCK)


@settings(max_examples=60, deadline=None)
@given(traces=_trace_and_interleaving(), with_l2=hs.booleans(), data=hs.data())
def test_hierarchy_studies_ignore_line_order(traces, with_l2, data):
    ordered, mixed = traces
    cfg = _hierarchy(max(r.core_id for r in ordered) + 1, with_l2)
    assert simulate(cfg, mixed, TABLE) == simulate(cfg, ordered, TABLE)
    assert sweep(mixed, cfg, RETS, tech_table=TABLE) == sweep(ordered, cfg, RETS, tech_table=TABLE)
    k = data.draw(hs.integers(1, len(ordered)), label="sample_len")
    assert specialize(mixed, cfg, RETS, 1e-4, k, tech_table=TABLE) == \
        specialize(ordered, cfg, RETS, 1e-4, k, tech_table=TABLE)
    # a thread trace may name several cores; each is replayed as one core
    k = data.draw(hs.integers(1, len(ordered)), label="profile_len")
    threads = [r for r in ordered if r.core_id == 0]
    assert assign_asymmetric([mixed, threads], cfg, RETS[:2], k, tech_table=TABLE) == \
        assign_asymmetric([ordered, threads], cfg, RETS[:2], k, tech_table=TABLE)


@settings(max_examples=60, deadline=None)
@given(traces=_trace_and_interleaving(), stream=hs.sampled_from(["data", "instr", "all"]))
def test_characterize_ignores_line_order(traces, stream):
    ordered, mixed = traces

    def analyses(trace):
        return (
            read_write_ratio(trace),
            block_lifetimes(trace, L1, CLOCK, stream),
            persistence(trace, L1, clock_hz=CLOCK, stream=stream),
            expiration_curve(trace, L1, RETS, CLOCK, stream),
        )

    assert analyses(mixed) == analyses(ordered)

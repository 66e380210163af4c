import dataclasses
import random
import re
import sys
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_trace
from oracle import reference_generate_trace
from sttsim import (
    AccessKind,
    AccessRecord,
    CacheUnitConfig,
    ConfigError,
    ConstantGap,
    HierarchyConfig,
    LogUniformGap,
    SequentialLoop,
    SttsimError,
    SyntheticTraceSpec,
    Technology,
    Trace,
    TraceParseError,
    TraceValidationError,
    UniformRandom,
    Zipf,
    assign_asymmetric,
    block_lifetimes,
    expiration_curve,
    generate_trace,
    persistence,
    read_trace,
    read_write_ratio,
    sample_tech_table,
    simulate,
    specialize,
    sweep,
    write_trace,
)
from sttsim import characterize
from sttsim import trace as trace_mod
from sttsim.errors import TraceRecordsError
from sttsim.trace import check_records, parse_gap_spec, parse_pattern_spec

TABLE = sample_tech_table()


def test_read_basic_line(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("0 100 LD 0x7f00\n")
    records = read_trace(str(p))
    assert records == [AccessRecord(0, 100, AccessKind.LOAD, 0x7F00)]


def test_read_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("# comment\n\n1 5 ST 0x40\n   \n# another\n")
    records = read_trace(str(p))
    assert records == [AccessRecord(1, 5, AccessKind.STORE, 0x40)]


def test_read_timestamp_regression(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("0 200 LD 0x0\n0 100 LD 0x0\n")
    with pytest.raises(TraceValidationError) as exc:
        read_trace(str(p))
    assert "core 0" in str(exc.value)
    assert ":2" in str(exc.value)


def test_read_regression_only_within_core(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("0 200 LD 0x0\n1 100 LD 0x0\n0 200 IF 0x40\n")
    assert len(read_trace(str(p))) == 3


@pytest.mark.parametrize(
    "line",
    ["0 100 LD", "x 100 LD 0x0", "0 1.5 LD 0x0", "0 100 XX 0x0", "0 100 LD 7f00", "0 100 LD 0xzz"],
)
def test_read_malformed_lines(tmp_path, line):
    p = tmp_path / "t.trace"
    p.write_text(line + "\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(str(p))
    assert ":1" in str(exc.value)


def test_roundtrip(tmp_path):
    rng = random.Random(7)
    records = []
    t = {0: 0, 1: 0}
    for _ in range(200):
        core = rng.randrange(2)
        t[core] += rng.randrange(100)
        records.append(
            AccessRecord(core, t[core], AccessKind(rng.randrange(3)), rng.randrange(1 << 40) * 64)
        )
    p = tmp_path / "t.trace"
    write_trace(records, str(p))
    assert read_trace(str(p)) == records
    # a second write of the parsed records reproduces the file byte for byte
    q = tmp_path / "u.trace"
    write_trace(read_trace(str(p)), str(q))
    assert p.read_bytes() == q.read_bytes()


def test_sequential_loop_pattern():
    spec = SyntheticTraceSpec(
        seed=1,
        num_cores=1,
        accesses_per_core=8,
        read_fraction=1.0,
        working_set_blocks=4,
        gap=ConstantGap(10),
        pattern=SequentialLoop(),
    )
    records = generate_trace(spec)
    assert [r.address for r in records] == [0x0, 0x40, 0x80, 0xC0, 0x0, 0x40, 0x80, 0xC0]
    assert [r.timestamp for r in records] == [0, 10, 20, 30, 40, 50, 60, 70]
    assert all(r.kind == AccessKind.LOAD for r in records)


def test_generator_deterministic(tmp_path):
    spec = SyntheticTraceSpec(
        seed=42,
        num_cores=2,
        accesses_per_core=2000,
        read_fraction=0.6,
        working_set_blocks=128,
        gap=LogUniformGap(10, 10_000),
        pattern=Zipf(1.2),
    )
    a = generate_trace(spec)
    b = generate_trace(spec)
    assert a == b
    pa, pb = tmp_path / "a.trace", tmp_path / "b.trace"
    write_trace(a, str(pa))
    write_trace(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_generator_seed_changes_output():
    base = dict(
        num_cores=1,
        accesses_per_core=500,
        read_fraction=0.5,
        working_set_blocks=64,
        gap=ConstantGap(10),
        pattern=UniformRandom(),
    )
    assert generate_trace(SyntheticTraceSpec(seed=1, **base)) != generate_trace(
        SyntheticTraceSpec(seed=2, **base)
    )


def test_realized_read_fraction():
    spec = SyntheticTraceSpec(
        seed=3,
        num_cores=1,
        accesses_per_core=100_000,
        read_fraction=0.5,
        working_set_blocks=256,
        gap=ConstantGap(5),
        pattern=UniformRandom(),
    )
    records = generate_trace(spec)
    loads = sum(1 for r in records if r.kind == AccessKind.LOAD)
    assert 0.48 <= loads / len(records) <= 0.52


def test_generated_addresses_block_aligned():
    for pattern in (SequentialLoop(), UniformRandom(), Zipf(0.8)):
        spec = SyntheticTraceSpec(
            seed=5,
            num_cores=2,
            accesses_per_core=1000,
            read_fraction=0.7,
            working_set_blocks=37,
            line_size_bytes=128,
            gap=LogUniformGap(1, 100),
            pattern=pattern,
        )
        records = generate_trace(spec)
        assert all(r.address % 128 == 0 for r in records)
        assert all(r.address < 37 * 128 for r in records)


def test_per_core_timestamps_strictly_increase():
    spec = SyntheticTraceSpec(
        seed=9,
        num_cores=3,
        accesses_per_core=500,
        read_fraction=0.5,
        working_set_blocks=32,
        gap=LogUniformGap(1, 50),
        pattern=UniformRandom(),
    )
    records = generate_trace(spec)
    last = {}
    for r in records:
        if r.core_id in last:
            assert r.timestamp > last[r.core_id]
        last[r.core_id] = r.timestamp
    # merged output is ordered by (timestamp, core_id)
    keys = [(r.timestamp, r.core_id) for r in records]
    assert keys == sorted(keys)


def test_invalid_specs():
    good = dict(seed=1, num_cores=1, accesses_per_core=10, read_fraction=0.5,
                working_set_blocks=4, gap=ConstantGap(1), pattern=SequentialLoop())
    with pytest.raises(ConfigError):
        generate_trace(SyntheticTraceSpec(**{**good, "working_set_blocks": 0}))
    with pytest.raises(ConfigError):
        generate_trace(SyntheticTraceSpec(**{**good, "read_fraction": 1.5}))
    with pytest.raises(ConfigError):
        generate_trace(SyntheticTraceSpec(**{**good, "num_cores": 0}))
    with pytest.raises(ConfigError):
        generate_trace(SyntheticTraceSpec(**{**good, "gap": LogUniformGap(10, 5)}))
    with pytest.raises(ConfigError):
        generate_trace(SyntheticTraceSpec(**{**good, "line_size_bytes": 48}))
    with pytest.raises(ConfigError):
        generate_trace(SyntheticTraceSpec(**{**good, "accesses_per_core": 0}))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: ConstantGap(0), "constant inter-access gap must be >= 1 cycle"),
        (lambda: LogUniformGap(0, 5), r"log-uniform gap requires 1 <= lo <= hi"),
        (lambda: LogUniformGap(1, int(sys.float_info.max) + 1), "log-uniform gap hi must be at most the largest float"),
        (lambda: Zipf(0), "zipf exponent must be > 0"),
        (lambda: Zipf(float("nan")), "zipf exponent must be > 0"),
    ],
)
def test_specs_check_themselves_when_built(build, match):
    with pytest.raises(ConfigError, match=match):
        build()


def test_a_log_uniform_gap_at_the_largest_float_generates():
    # its gaps are math.exp of an exponent below log(hi), so none overflows the float they are drawn as
    spec = SyntheticTraceSpec(seed=1, accesses_per_core=200, gap=LogUniformGap(1, int(sys.float_info.max)))
    assert len(generate_trace(spec)) == 200


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SyntheticTraceSpec(seed=1, gap="constant:5"),
         "gap must be a ConstantGap or LogUniformGap, got 'constant:5'"),
        (lambda: SyntheticTraceSpec(seed=1, pattern="zipf:1.2"),
         "pattern must be a SequentialLoop, UniformRandom or Zipf, got 'zipf:1.2'"),
        (lambda: ConstantGap(2.5), "constant inter-access gap must be a whole number of cycles, got 2.5"),
        (lambda: LogUniformGap(1, 2.0), "log-uniform gap bounds must be whole numbers of cycles, got 1, 2.0"),
        (lambda: SyntheticTraceSpec(seed=1, working_set_blocks=4.5), "working_set_blocks must be an int, got 4.5"),
        (lambda: SyntheticTraceSpec(seed="1"), "seed must be an int, got '1'"),
        (lambda: SyntheticTraceSpec(seed=1, num_cores=2.0), "num_cores must be an int, got 2.0"),
        (lambda: SyntheticTraceSpec(seed=1, accesses_per_core=None), "accesses_per_core must be an int, got None"),
        (lambda: SyntheticTraceSpec(seed=1, line_size_bytes=64.0), "line_size_bytes must be an int, got 64.0"),
        (lambda: SyntheticTraceSpec(seed=1, read_fraction="0.5"), "read_fraction must be a real number, got '0.5'"),
        (lambda: Zipf("1.2"), "s must be a real number, got '1.2'"),
        # a bool is an int to isinstance, but no count or quantity
        (lambda: SyntheticTraceSpec(seed=True), "seed must be an int, got True"),
        (lambda: SyntheticTraceSpec(seed=1, read_fraction=True), "read_fraction must be a real number, got True"),
        (lambda: ConstantGap(True), "constant inter-access gap must be a whole number of cycles, got True"),
        (lambda: LogUniformGap(True, 2), "log-uniform gap bounds must be whole numbers of cycles, got True, 2"),
        (lambda: Zipf(True), "s must be a real number, got True"),
    ],
)
def test_spec_fields_of_the_wrong_type(build, match):
    with pytest.raises(ConfigError, match=re.escape(match)):
        build()


def test_replaced_spec_is_checked():
    spec = SyntheticTraceSpec(seed=1, working_set_blocks=8)
    with pytest.raises(ConfigError, match="working_set_blocks must be >= 1"):
        dataclasses.replace(spec, working_set_blocks=0)
    with pytest.raises(ConfigError, match="zipf exponent must be > 0"):
        dataclasses.replace(spec, pattern=dataclasses.replace(Zipf(1.0), s=-1.0))


def test_zipf_working_set_bound(monkeypatch):
    def no_cdf(*args):
        raise AssertionError("a spec over the bound must fail before any CDF is built")

    monkeypatch.setattr(trace_mod, "_zipf_cdf", no_cdf)
    bound = trace_mod.MAX_ZIPF_BLOCKS
    assert bound == 2**22
    with pytest.raises(ConfigError, match=f"zipf working set must be at most {bound} blocks, got {bound + 1}"):
        SyntheticTraceSpec(seed=1, working_set_blocks=bound + 1, pattern=Zipf(1.2))


def test_spec_string_parsers():
    assert parse_gap_spec("constant:7") == ConstantGap(7)
    assert parse_gap_spec("loguniform:10:100") == LogUniformGap(10, 100)
    assert parse_pattern_spec("sequential") == SequentialLoop()
    assert parse_pattern_spec("uniform") == UniformRandom()
    assert parse_pattern_spec("zipf:1.5") == Zipf(1.5)
    for bad in ("constant", "loguniform:5", "zipf", "gauss:1", "constant:x", "constant:0", "zipf:0", "zipf:x"):
        with pytest.raises(ConfigError):
            parse_gap_spec(bad) if bad.startswith(("constant", "loguniform")) else parse_pattern_spec(bad)


def _trace_of(records):
    """A Trace of the records as they are, in their order and empty or not: the container, not an admitted trace."""
    columns = [[r[i] for r in records] for i in range(4)]
    return Trace(*map(trace_mod._append, [array(code) for code in trace_mod._TYPECODES], columns))


def test_check_records_returns_time_order():
    records = [AccessRecord(1, 0, AccessKind.LOAD, 0x0), AccessRecord(0, 5, AccessKind.STORE, 0x40),
               AccessRecord(1, 5, AccessKind.LOAD, 0x80)]
    ordered = check_records(records)
    assert check_records(ordered) is ordered  # already ordered: no copy, no sort
    shuffled = [records[2], records[0], records[1]]
    assert check_records(shuffled) == records
    assert shuffled == [records[2], records[0], records[1]]  # the list is left as it was
    out_of_order = _trace_of(shuffled)
    admitted = check_records(out_of_order)
    assert type(admitted) is Trace and admitted is not out_of_order and admitted == records
    assert out_of_order == shuffled  # the Trace is left as it was


def test_check_records_admits_a_trace_as_a_list():
    records = [AccessRecord(1, 0, AccessKind.LOAD, 0x0), AccessRecord(0, 5, AccessKind.INSTR_FETCH, 0x40)]
    trace = check_records(records, 2)
    assert type(trace) is Trace and check_records(trace, 2) is trace  # a Trace is returned as is
    assert check_records(iter(records)) == records
    for empty in ([], iter([]), _trace_of([])):
        with pytest.raises(TraceRecordsError, match="^trace has no records$"):
            check_records(empty)


class _CountedIterations(array):
    """An array column that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_trace_takes_one_order_pass():
    records = [AccessRecord(c, t, AccessKind.LOAD, 64 * t) for t in range(4) for c in (0, 1)]
    cores, stamps, kinds, addresses = _trace_of(records).columns
    stamps = _CountedIterations("I", stamps)  # unsigned, so no sign pass reads it
    ordered = Trace(cores, stamps, kinds, addresses)
    assert check_records(ordered) is ordered and stamps.passes == 1
    assert check_records(ordered, 2) is ordered and stamps.passes == 1  # admitted again: no second order pass
    # the other checks still run on every call
    with pytest.raises(TraceRecordsError, match="core 1 but num_cores is 1"):
        check_records(ordered, 1)


def test_a_generated_trace_takes_no_order_pass():
    spec = SyntheticTraceSpec(seed=1, num_cores=4, accesses_per_core=300, gap=LogUniformGap(10, 1000), pattern=Zipf(1.2))
    generated = generate_trace(spec)
    generated.stamps = _CountedIterations(generated.stamps.typecode, generated.stamps)  # unsigned: no sign pass
    assert check_records(generated, 4) is generated and generated.stamps.passes == 0
    # the other checks still run
    with pytest.raises(TraceRecordsError, match="core 3 but num_cores is 3"):
        check_records(generated, 3)


def test_only_the_sorted_copy_is_marked_ordered():
    records = [AccessRecord(1, 0, AccessKind.LOAD, 0x0), AccessRecord(0, 5, AccessKind.STORE, 0x40)]
    out_of_order = _trace_of(records[::-1])
    admitted = check_records(out_of_order)
    assert admitted._ordered and not out_of_order._ordered
    again = check_records(out_of_order)  # the caller's Trace is ordered again, into a new copy
    assert again == records and again is not out_of_order


def test_a_forward_slice_keeps_the_order_mark_and_a_backward_one_drops_it():
    admitted = check_records([AccessRecord(c, t, AccessKind.LOAD, 0x40) for t in range(5) for c in (0, 1)])
    assert admitted[2:]._ordered and admitted[::3]._ordered and admitted.select([1, 0] * 5)._ordered
    backward = admitted[::-1]
    assert not backward._ordered
    assert check_records(backward) == list(admitted)  # admitted in time order, not as it came


def test_every_study_refuses_an_empty_trace():
    unit = CacheUnitConfig(1024, 2, 64, Technology.SRAM)
    cfg = HierarchyConfig(num_cores=1, l1i=unit, l1d=unit)
    studies = [
        lambda t: simulate(cfg, t, TABLE),
        lambda t: sweep(t, cfg, [1e-6], tech_table=TABLE),
        lambda t: specialize(t, cfg, [1e-6], 1e-6, 1, tech_table=TABLE),
        lambda t: assign_asymmetric([t], cfg, [1e-6], 1, tech_table=TABLE),
        read_write_ratio,
        lambda t: block_lifetimes(t, unit),
        lambda t: persistence(t, unit),
        lambda t: expiration_curve(t, unit, [1e-6]),
    ]
    for empty in ([], _trace_of([])):
        for study in studies:
            with pytest.raises(TraceRecordsError, match="^trace has no records$"):
                study(empty)


@pytest.mark.parametrize("field", ["timestamp", "address"])
def test_every_study_refuses_a_negative_timestamp_or_address(field):
    # ten loads of one block 1,000 cycles apart expire it 4 times at 1e-6; shifted by -10**6 cycles, the
    # timing model started the core at 0 and reported no expiration
    unit = CacheUnitConfig(1024, 2, 64, Technology.STTRAM, 1e-6)
    cfg = HierarchyConfig(num_cores=1, l1i=unit, l1d=unit)
    records = [AccessRecord(0, t, AccessKind.LOAD, 0x40) for t in range(0, 10_000, 1000)]
    assert simulate(cfg, records, TABLE).total_expiration_misses() == 4
    if field == "timestamp":
        records = [r._replace(timestamp=r.timestamp - 10**6) for r in records]
    else:
        records[3:] = [r._replace(address=-0x40) for r in records[3:]]
    first = records[0 if field == "timestamp" else 3]
    bad = (0, first.timestamp, 1, first.address)
    studies = [
        lambda t: simulate(cfg, t, TABLE),
        lambda t: sweep(t, cfg, [1e-6], tech_table=TABLE),
        lambda t: expiration_curve(t, unit, [1e-6]),
    ]
    for trace in (records, _trace_of(records)):
        for study in studies:
            with pytest.raises(TraceRecordsError, match=re.escape(f"trace record {bad!r} has a negative {field}")):
                study(trace)


def test_an_unsigned_column_takes_no_sign_pass():
    trace = _trace_of([AccessRecord(0, 0, AccessKind.LOAD, 0x40)])
    assert {column.typecode for column in trace.columns} == {"B", "I", "b"}
    with mock.patch.object(trace_mod, "min", create=True, side_effect=AssertionError("a sign pass")):
        assert check_records(trace) is trace


@pytest.mark.parametrize("bad", [(0, 1, AccessKind.LOAD), (0, 1, AccessKind.LOAD, 0x40, 7)])
def test_check_records_names_a_record_without_4_fields(bad):
    with pytest.raises(ConfigError, match=re.escape(f"trace record {bad!r} does not have 4 fields")):
        check_records([AccessRecord(0, 0, AccessKind.LOAD, 0x0), bad])


# a numpy integer, floats equal to an int, a string and unhashable values, in every field
@pytest.mark.parametrize("field, value", [
    (0, np.int64(0)), (0, 0.0), (0, []), (1, 1.0), (1, np.int64(1)), (1, "1"),
    (2, 1.0), (2, []), (3, 64.0), (3, np.uint64(64)),
])
def test_check_records_names_a_field_that_is_not_an_int(field, value):
    good = AccessRecord(0, 0, AccessKind.LOAD, 0x0)
    bad = AccessRecord(*(value if i == field else x for i, x in enumerate((0, 1, AccessKind.LOAD, 0x40))))
    for ncores in (None, 1):
        with pytest.raises(ConfigError, match=re.escape(f"trace record {bad!r} has a field that is not an int")):
            check_records([good, bad, bad], ncores)


def test_an_array_column_of_floats_takes_the_field_check():
    # only a column of an int typecode is known to hold ints; a float time would reach the replays unchecked
    trace = Trace(array("B", [0, 0]), array("d", [0.0, 5000.5]), array("b", [1, 1]), array("I", [0, 64]))
    with pytest.raises(TraceRecordsError, match=r"has a field that is not an int"):
        check_records(trace)


# -- bulk generation against the per-record reference --------------------------


def _shape(records):
    """Values plus element types, so an int that became a numpy scalar shows up."""
    return [(type(r), tuple(type(f) for f in r), tuple(r)) for r in records]


_PATTERNS = st.one_of(
    st.just(SequentialLoop()),
    st.just(UniformRandom()),
    st.floats(0.1, 3.0).map(Zipf),
)
_GAPS = st.one_of(
    st.integers(1, 50).map(ConstantGap),
    st.tuples(st.integers(1, 200), st.integers(0, 5000)).map(lambda p: LogUniformGap(p[0], p[0] + p[1])),
    st.integers(1, 200).map(lambda lo: LogUniformGap(lo, lo)),
)


@st.composite
def _specs_and_chunk(draw):
    # a small chunk exercises many chunk and merge-window boundaries cheaply
    chunk = draw(st.one_of(st.integers(1, 9), st.just(trace_mod._CHUNK_RECORDS)))
    spec = SyntheticTraceSpec(
        seed=draw(st.integers(0, 2**31)),
        num_cores=draw(st.integers(1, 6)),
        accesses_per_core=draw(st.integers(1, 3 * chunk + 2)),
        read_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        working_set_blocks=draw(st.one_of(st.just(1), st.integers(1, 5000))),
        line_size_bytes=draw(st.sampled_from([1, 64, 4096])),
        gap=draw(_GAPS),
        pattern=draw(_PATTERNS),
    )
    return spec, chunk


@settings(max_examples=60, deadline=None)
@given(_specs_and_chunk())
def test_generate_matches_reference(spec_and_chunk):
    spec, chunk = spec_and_chunk
    with mock.patch.object(trace_mod, "_CHUNK_RECORDS", chunk):
        got = generate_trace(spec)
    assert _shape(got) == _shape(reference_generate_trace(spec))


@settings(max_examples=60, deadline=None)
@given(_specs_and_chunk())
def test_the_generator_marks_a_trace_in_replay_order(spec_and_chunk):
    # admission finds the generator's own columns, unmarked, in replay order, and so returns them as they are
    spec, chunk = spec_and_chunk
    with mock.patch.object(trace_mod, "_CHUNK_RECORDS", chunk):
        generated = generate_trace(spec)
    assert generated._ordered
    unmarked = Trace(*generated.columns)
    assert check_records(unmarked) is unmarked


def test_generate_shared_timestamps_tie_by_core():
    spec = SyntheticTraceSpec(
        seed=4,
        num_cores=5,
        accesses_per_core=2 * trace_mod._CHUNK_RECORDS + 3,
        read_fraction=0.5,
        working_set_blocks=300,
        gap=ConstantGap(7),
        pattern=Zipf(1.1),
    )
    records = generate_trace(spec)
    assert [(r.timestamp, r.core_id) for r in records[:10]] == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
                                                                (7, 0), (7, 1), (7, 2), (7, 3), (7, 4)]
    assert _shape(records) == _shape(reference_generate_trace(spec))


@pytest.mark.parametrize("gap", [ConstantGap(20), LogUniformGap(10, 1000)], ids=["constant", "loguniform"])
@pytest.mark.parametrize("num_cores", [1, 4])
def test_generated_values_are_built_once(num_cores, gap):
    # each value is written once, as a machine integer, into its column: across chunks and cores no
    # record holds an object of its own
    spec = SyntheticTraceSpec(seed=3, num_cores=num_cores, accesses_per_core=2 * trace_mod._CHUNK_RECORDS + 5,
                              working_set_blocks=4096, gap=gap, pattern=Zipf(1.2))
    records = generate_trace(spec)
    assert [type(column) for column in records.columns] == [array] * 4
    assert [column.typecode for column in records.columns] == ["B", "I", "b", "I"]
    assert _shape(records) == _shape(reference_generate_trace(spec))


@pytest.mark.parametrize("pattern", [UniformRandom(), SequentialLoop()], ids=["uniform", "sequential"])
@pytest.mark.parametrize("blocks", [2**56, 2**56 + 1, 2**70 + 3], ids=["2**56", "2**56+1", "2**70+3"])
def test_working_sets_past_64_bit_generate_aligned_addresses(pattern, blocks):
    # patterns other than zipf build no CDF, so their working set has no bound
    line = 128
    assert blocks * line > 2**62
    spec = SyntheticTraceSpec(seed=1, num_cores=2, accesses_per_core=3000, working_set_blocks=blocks,
                              line_size_bytes=line, pattern=pattern)
    addresses = [r.address for r in generate_trace(spec)]
    assert len(addresses) == 6000
    assert all(type(a) is int and a % line == 0 and 0 <= a < blocks * line for a in addresses)
    if isinstance(pattern, UniformRandom):  # the draws reach far past 2**62 bytes
        assert max(addresses) > 2**62


# -- bulk parsing: errors keep their exact message and line across chunks -------

_FIELDS = "'<core> <timestamp> <IF|LD|ST> <0x-address>'"
# bad line -> (error type, message after "<path>:<line>: "), recorded from a
# former line-by-line parser; the error reporter keeps each byte for byte
_BAD_LINES = {
    "0 100 LD": (TraceParseError, f"expected 4 fields {_FIELDS}, got 3"),
    "0 100 LD 0x40 extra": (TraceParseError, f"expected 4 fields {_FIELDS}, got 5"),
    "x 100 LD 0x0": (TraceParseError, "non-integer core id or timestamp"),
    "0 1.5 LD 0x0": (TraceParseError, "non-integer core id or timestamp"),
    "0 100 XX 0x0": (TraceParseError, "unknown access kind 'XX'"),
    "0 100 LD 7f00": (TraceParseError, "address must be 0x-prefixed hex, got '7f00'"),
    "0 100 LD 0xzz": (TraceParseError, "bad hex address '0xzz'"),
    "0 100 LD 0x-40": (TraceParseError, "bad hex address '0x-40'"),
    "-1 100 LD 0x0": (TraceParseError, "negative field"),
    "9 -5 LD 0x0": (TraceParseError, "negative field"),
    "1 5 LD 0x0": (TraceValidationError, "timestamp regression on core 1 (5 < 2999)"),
}


def _good_lines(start, stop):
    return "".join(f"{i % 2} {i} {'LD' if i % 3 else 'ST'} 0x{i * 64:x}\n" for i in range(start, stop))


@pytest.mark.parametrize("bad", list(_BAD_LINES))
def test_read_error_after_full_chunk(tmp_path, bad):
    good = _good_lines(0, 3000)
    assert len(good) > 2 * trace_mod._READ_CHUNK_CHARS  # the bad line is past the first chunks
    p = tmp_path / "t.trace"
    p.write_text(good + bad + "\n" + _good_lines(3000, 3010))
    error, message = _BAD_LINES[bad]
    with pytest.raises(error) as exc:
        read_trace(str(p))
    assert str(exc.value) == f"{p}:3001: {message}"


@pytest.mark.parametrize("chunk_chars", [1, 30, 45, 1000])
def test_read_regression_across_chunk_boundary(tmp_path, chunk_chars):
    # core 0's latest timestamp comes from an earlier chunk than the regression
    p = tmp_path / "t.trace"
    p.write_text("0 50 LD 0x0\n1 10 LD 0x40\n1 20 ST 0x80\n1 30 ST 0x80\n0 40 LD 0x0\n")
    with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", chunk_chars):
        with pytest.raises(TraceValidationError) as exc:
            read_trace(str(p))
    assert str(exc.value) == f"{p}:5: timestamp regression on core 0 (40 < 50)"


def test_read_mixed_file_in_bulk(tmp_path):
    p = tmp_path / "t.trace"
    p.write_bytes(b"# header\r\n\r\n0\t5 ld 0x40\r\n  # indented comment\n1 7  St\t0X80\n\t \n"
                  b"0 5 IF 0x0\r\n1 9 st 0xc0")
    expected = [
        AccessRecord(0, 5, AccessKind.LOAD, 0x40),
        AccessRecord(1, 7, AccessKind.STORE, 0x80),
        AccessRecord(0, 5, AccessKind.INSTR_FETCH, 0x0),
        AccessRecord(1, 9, AccessKind.STORE, 0xC0),
    ]
    # a valid file never needs the error reporter, whatever the chunking
    for chunk_chars in (1, 20, 1 << 16):
        with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(trace_mod, "_first_error", side_effect=AssertionError("error reporter")):
            assert _shape(read_trace(str(p))) == _shape(expected)


def test_read_timestamps_past_int64_in_bulk(tmp_path):
    big = 2**64
    records = [
        AccessRecord(0, big, AccessKind.LOAD, 0x40),
        AccessRecord(1, 3, AccessKind.STORE, 0x80),
        AccessRecord(0, big, AccessKind.STORE, 0x40),
        AccessRecord(1, big * big, AccessKind.INSTR_FETCH, 0x0),
        AccessRecord(0, big + 1, AccessKind.LOAD, 0xC0),
    ]
    p = tmp_path / "t.trace"
    write_trace(records, str(p))
    for chunk_chars in (1, 30, 1 << 16):
        with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(trace_mod, "_first_error", side_effect=AssertionError("error reporter")):
            assert _shape(read_trace(str(p))) == _shape(records)


def test_read_field_counts_checked_per_line(tmp_path):
    # five fields then three: as many words as two good lines, still an error on line 1
    p = tmp_path / "t.trace"
    p.write_text("0 1 LD 0x0 5\n7 LD 0x40\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(str(p))
    assert str(exc.value) == f"{p}:1: expected 4 fields {_FIELDS}, got 5"


# tokens that Python's int, int(_, 16) or str.upper() takes but the grammar does not name -> the message on
# their line; dropping the isascii() check from _decimal lets the Arabic-Indic digits through as records, and
# dropping either check of _hex_values lets their address through
_OFF_GRAMMAR = {
    "1_0 5 LD 0x40": "non-integer core id or timestamp",
    "+2 5 LD 0x40": "non-integer core id or timestamp",
    "\u0661 5 LD 0x40": "non-integer core id or timestamp",
    "0 1_0 LD 0x40": "non-integer core id or timestamp",
    "0 +2 LD 0x40": "non-integer core id or timestamp",
    "0 \u0661 LD 0x40": "non-integer core id or timestamp",
    "0 5 LD 0x_4_0": "bad hex address '0x_4_0'",
    "0 5 LD 0x\u0664\u0660": "bad hex address '0x\u0664\u0660'",
    "0 5 \u017ft 0x40": "unknown access kind '\u017ft'",
    "0 5 \u0131f 0x40": "unknown access kind '\u0131f'",
    "-0 5 LD 0x40": "negative field",
}


@pytest.mark.parametrize("chunk_chars", [1, 1 << 14])
@pytest.mark.parametrize("bad", list(_OFF_GRAMMAR))
def test_read_rejects_tokens_outside_the_grammar(tmp_path, bad, chunk_chars):
    p = tmp_path / "t.trace"
    p.write_text(f"0 1 ld 0x0\n{bad}\n0 9 LD 0x80\n", encoding="utf-8")
    with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", chunk_chars), pytest.raises(TraceParseError) as exc:
        read_trace(str(p))
    assert str(exc.value) == f"{p}:2: {_OFF_GRAMMAR[bad]}"


def test_read_only_comments(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("# nothing here\n\n   \n")
    assert read_trace(str(p)) == []


_RECORDS = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.one_of(st.integers(0, 10**6), st.just(2**64)),  # past int64
        st.sampled_from(list(AccessKind)),
        st.integers(0, 2**80),
    ),
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(_RECORDS, st.sampled_from([1, 64, 1 << 14]))
def test_write_read_roundtrip(tmp_path_factory, rows, chunk_chars):
    # per-core timestamps made non-decreasing by accumulating the drawn steps
    clock = {}
    records = []
    for core, step, kind, address in rows:
        clock[core] = clock.get(core, 0) + step
        records.append(AccessRecord(core, clock[core], kind, address))
    p = tmp_path_factory.mktemp("rt") / "t.trace"
    write_trace(records, str(p))
    with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", chunk_chars):
        assert _shape(read_trace(str(p))) == _shape(records)


@pytest.mark.parametrize(
    "record, message",
    [
        (AccessRecord(0, 0, 5, 0), "trace record kind 5 is not 0 (instruction fetch), 1 (load) or 2 (store)"),
        (AccessRecord(0, 0, AccessKind.LOAD, -64), "trace record (0, 0, 1, -64) has a negative address"),
        (AccessRecord(0, 1.5, AccessKind.LOAD, 0x40),
         "trace record AccessRecord(core_id=0, timestamp=1.5, kind=<AccessKind.LOAD: 1>, address=64) "
         "has a field that is not an int"),
        (AccessRecord(-1, 0, AccessKind.LOAD, 0x40), "trace references core -1 but core ids must be >= 0"),
        (AccessRecord(0, 1, True, 0x40),
         "trace record AccessRecord(core_id=0, timestamp=1, kind=True, address=64) has a field that is not an int"),
    ],
    ids=["kind", "address", "timestamp", "core", "bool"],
)
def test_write_trace_refuses_what_check_records_refuses(tmp_path, record, message):
    # without the check: a KeyError traceback for the kind; a file read_trace refuses for the next three; and
    # for a bool kind, a file that reads it back as a load
    records = [AccessRecord(0, 0, AccessKind.STORE, 0x80), record]
    with pytest.raises(TraceRecordsError) as exc:
        write_trace(records, str(tmp_path / "t.trace"))
    assert str(exc.value) == message
    with pytest.raises(TraceRecordsError, match=re.escape(message)):
        check_records(records)
    assert list(tmp_path.iterdir()) == []


def test_write_trace_refuses_a_timestamp_regression_on_a_core(tmp_path):
    # read_trace would refuse the file at its line 3; check_records accepts the records (it sorts them)
    records = [AccessRecord(0, 10, AccessKind.LOAD, 0x40), AccessRecord(1, 3, AccessKind.LOAD, 0x40),
               AccessRecord(0, 5, AccessKind.LOAD, 0x80)]
    with pytest.raises(TraceRecordsError, match=re.escape("trace record (0, 5, 1, 128) has a timestamp below an "
                                                          "earlier one of core 0")):
        write_trace(records, str(tmp_path / "t.trace"))
    assert list(tmp_path.iterdir()) == []
    assert len(check_records(records)) == 3


def test_write_trace_keeps_the_callers_order(tmp_path):
    # records out of replay order are written as given; no records write an empty file
    p = tmp_path / "t.trace"
    write_trace([AccessRecord(1, 10, AccessKind.STORE, 0x80), AccessRecord(0, 5, AccessKind.INSTR_FETCH, 0x40)], p)
    assert p.read_text() == "1 10 ST 0x80\n0 5 IF 0x40\n"
    write_trace([], p)
    assert p.read_text() == ""


# -- the Trace: four columns behind the record view ------------------------------


def test_trace_memory_per_record(tmp_path):
    # narrowest-fit columns hold a record in 10 bytes; array('q') columns held 25, and a list of this trace's
    # records about 124 (generated) and 138 (read)
    spec = SyntheticTraceSpec(seed=1, num_cores=4, accesses_per_core=30_000, read_fraction=0.67,
                              working_set_blocks=16384, gap=LogUniformGap(20, 20000), pattern=Zipf(1.0))
    path = str(tmp_path / "t.trace")
    write_trace(generate_trace(spec), path)
    for build in (lambda: generate_trace(spec), lambda: read_trace(path)):
        tracemalloc.start()
        try:
            trace = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace) == 120_000
        assert held / len(trace) <= 12
        del trace


@pytest.mark.parametrize("gap", [ConstantGap(20), LogUniformGap(20, 20000)], ids=["constant", "loguniform"])
@pytest.mark.parametrize("accesses_per_core", [30_000, 120_000])
def test_generation_scratch_is_a_chunk_per_core(gap, accesses_per_core):
    # besides the trace it returns, generation holds at its peak the zipf tables and about one chunk per core:
    # not a list of every timestamp (6.3 MB at 4 x 120,000 under a constant gap), nor a suspended core's
    # uniforms and gaps
    spec = SyntheticTraceSpec(seed=1, num_cores=4, accesses_per_core=accesses_per_core, read_fraction=0.9,
                              working_set_blocks=4096, gap=gap, pattern=Zipf(1.2))
    tracemalloc.start()
    try:
        trace = generate_trace(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 4 * accesses_per_core
    assert peak - held <= 2_000_000


# records whose first lines fit the narrow column types, one chunk of lines each when read 256 characters at a time
_NARROW = [AccessRecord(i % 4, i, AccessKind(i % 3), 64 * i) for i in range(200)]


def _column_types(trace):
    return [column.typecode if isinstance(column, array) else list for column in trace.columns]


@pytest.mark.parametrize("past", [2**32, 2**64], ids=["past-uint32", "past-int64"])
def test_columns_widen_once_past_their_type(tmp_path, past):
    # a later chunk holds core 300 and a timestamp and an address of `past`: each of those columns is copied once
    # to array('q'), and past int64 from there to a list, and every record keeps its values
    wide = "q" if past < 2**63 else list
    records = _NARROW + [AccessRecord(300, past, AccessKind.STORE, past), AccessRecord(2, past + 1, AccessKind.LOAD, 64)]
    narrow_path, path = str(tmp_path / "narrow.trace"), str(tmp_path / "t.trace")
    write_trace(_NARROW, narrow_path)
    write_trace(records, path)
    with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", 256):
        assert _column_types(read_trace(narrow_path)) == ["B", "I", "b", "I"]
        read = read_trace(path)
    for trace in (check_records(records), read):
        assert _column_types(trace) == ["q", wide, "b", wide]
        assert _shape(trace) == _shape(records)
        # ordering a copy and selecting keep each column's type
        assert _column_types(check_records(trace[::-1])) == _column_types(trace)
        assert _column_types(trace.select([0] + [1] * (len(records) - 1))) == _column_types(trace)


@pytest.mark.parametrize("step", [2**29, 2**61], ids=["past-uint32", "past-int64"])
def test_generated_columns_widen_once_past_their_type(step):
    # 301 cores, four records a core a chunk, the i-th record of a core at about i * step in time and address:
    # its third chunk is the first past 2**32 under the first step, and its second the first past int64 under
    # the other
    wide = "q" if step < 2**32 else list
    spec = SyntheticTraceSpec(seed=2, num_cores=301, accesses_per_core=12, working_set_blocks=16, line_size_bytes=step,
                              gap=ConstantGap(step + 1))
    with mock.patch.object(trace_mod, "_CHUNK_RECORDS", 4):
        trace = generate_trace(spec)
    assert _column_types(trace) == ["q", wide, "b", wide]
    assert max(trace.stamps) >= 2**32 and max(trace.addresses) >= 2**32
    assert _shape(trace) == _shape(reference_generate_trace(spec))


_INT64 = 2**63
_ANY_RECORDS = st.lists(
    st.builds(
        AccessRecord,
        st.one_of(st.integers(0, 300), st.just(_INT64)),  # cores past 255, and past int64
        st.one_of(st.integers(0, 10**9), st.just(2**64)),
        st.sampled_from(list(AccessKind)),
        st.one_of(st.integers(0, 2**62), st.integers(_INT64 - 2, 2**80)),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(_ANY_RECORDS, st.slices(45))
def test_trace_is_its_records(records, window):
    trace = _trace_of(records)
    assert len(trace) == len(records)
    assert trace == records and records == trace and trace == _trace_of(list(records))
    assert _shape(trace) == _shape(records)
    assert [trace[i] for i in range(-len(records), 0)] == records
    for i in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            trace[i]
    part = trace[window]
    assert type(part) is Trace and part == records[window] and _shape(part) == _shape(records[window])
    # a column is an array while its values fit one, and a list of ints past that
    for column, values in zip(trace.columns, zip(*records) if records else [()] * 4):
        assert isinstance(column, array) == all(-_INT64 <= v < _INT64 for v in values)
    if records:
        changed = records[:-1] + [records[-1]._replace(address=records[-1].address + 64)]
        assert trace != changed and trace != _trace_of(changed)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_select_keeps_the_selected_records(data):
    records = data.draw(_ANY_RECORDS)
    trace = _trace_of(records)
    keep = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    kept = [r for r, k in zip(records, keep) if k]
    for selectors in (keep, bytes(keep), array("b", keep)):
        part = trace.select(selectors)
        assert type(part) is Trace and part == kept and _shape(part) == _shape(kept)
        assert list(map(type, part.columns)) == list(map(type, trace.columns))
        # every record selected: the trace itself, which no one changes
        assert (part is trace) == all(keep)
    assert trace.select([1] * len(records)) is trace


# field-like tokens, kinds in any case, and the characters a line splits or strips on
_TOKENS = st.sampled_from([
    "0", "1", "3", "-1", "-0", "+2", "1_0", "1.5", "2999", str(2**63), str(2**64), "١",
    "IF", "LD", "ST", "ld", "sT", "\u017ft", "\u0131f", "XX", "0x0", "0x40", "0X1f", "0x", "0xg", "0x-40", "-0x40",
    "0x_40", "0x\u0664", "7f00",
    "#", "# note", "", " ", "\t", "\r", "\x0c", "\x1c", "\u2028", "\x00",
])
_LINE_SOUP = st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=12).map(
    lambda lines: "\n".join(lines).encode())


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=200), _LINE_SOUP), st.sampled_from([1, 7, 64, trace_mod._READ_CHUNK_CHARS]))
def test_read_trace_returns_a_trace_or_names_the_file(tmp_path_factory, content, chunk_chars):
    path = tmp_path_factory.mktemp("fuzz") / "t.trace"
    path.write_bytes(content)
    with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", chunk_chars):
        try:
            trace = read_trace(str(path))
        except SttsimError as exc:
            assert str(path) in str(exc)
            return
    assert type(trace) is Trace
    write_trace(trace, str(path))
    assert read_trace(str(path)) == trace


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 3), st.booleans(), st.booleans())
def test_studies_take_a_trace_or_its_list(seed, num_cores, by_core, with_instr):
    records = random_trace(seed, 120 * num_cores, num_cores=num_cores, num_blocks=48, gap_lo=1, gap_hi=4000,
                           instr_fraction=0.3 if with_instr else 0.0)
    if by_core:  # each core's order kept, cores not interleaved: the studies order it
        records.sort(key=lambda r: r.core_id)
    trace = check_records(records)
    unit = CacheUnitConfig(1024, 2, 64, Technology.SRAM)
    cfg = HierarchyConfig(num_cores=num_cores, l1i=unit, l1d=unit, l2=CacheUnitConfig(4096, 4, 64, Technology.SRAM))
    assert simulate(cfg, trace, TABLE) == simulate(cfg, records, TABLE)
    a, b = (sweep(t, cfg, [1e-6, 1e-4, 1e-2], tech_table=TABLE) for t in (trace, records))
    assert [e.report for e in a.entries] == [e.report for e in b.entries] and a.best_retention == b.best_retention
    assert read_write_ratio(trace) == read_write_ratio(records)
    for stream in ("data", "instr", "all"):
        reports = []
        for t in (trace, records):
            characterize._memo = None  # profile each input anew
            reports.append((block_lifetimes(t, unit, stream=stream), persistence(t, unit, stream=stream),
                            expiration_curve(t, unit, [1e-6, 1e-5], stream=stream)))
        assert reports[0] == reports[1]


@settings(max_examples=200, deadline=None)
@given(_LINE_SOUP)
def test_read_trace_outcome_does_not_depend_on_chunking(tmp_path_factory, content):
    # the chunk parser and the error reporter agree: every chunking reads the same records or raises the
    # same error, on the same line
    path = tmp_path_factory.mktemp("chunks") / "t.trace"
    path.write_bytes(content)
    outcomes = []
    for chunk_chars in (1, 7, 64, 1 << 14):
        with mock.patch.object(trace_mod, "_READ_CHUNK_CHARS", chunk_chars):
            try:
                outcomes.append(_shape(read_trace(str(path))))
            except SttsimError as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes.count(outcomes[0]) == len(outcomes)

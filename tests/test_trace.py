import random

import pytest

from sttsim import (
    AccessKind,
    AccessRecord,
    ConfigError,
    ConstantGap,
    LogUniformGap,
    SequentialLoop,
    SyntheticTraceSpec,
    TraceParseError,
    TraceValidationError,
    UniformRandom,
    Zipf,
    generate_trace,
    read_trace,
    write_trace,
)
from sttsim.trace import parse_gap_spec, parse_pattern_spec, time_ordered


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


def test_spec_string_parsers():
    assert parse_gap_spec("constant:7") == ConstantGap(7)
    assert parse_gap_spec("loguniform:10:100") == LogUniformGap(10, 100)
    assert parse_pattern_spec("sequential") == SequentialLoop()
    assert parse_pattern_spec("uniform") == UniformRandom()
    assert parse_pattern_spec("zipf:1.5") == Zipf(1.5)
    for bad in ("constant", "loguniform:5", "zipf", "gauss:1", "constant:x"):
        with pytest.raises(ConfigError):
            parse_gap_spec(bad) if bad.startswith(("constant", "loguniform")) else parse_pattern_spec(bad)


def test_time_ordered():
    ordered = [AccessRecord(1, 0, AccessKind.LOAD, 0x0), AccessRecord(0, 5, AccessKind.STORE, 0x40),
               AccessRecord(1, 5, AccessKind.LOAD, 0x80)]
    assert time_ordered(ordered) is ordered  # already ordered: no copy, no sort
    shuffled = [ordered[2], ordered[0], ordered[1]]
    assert time_ordered(shuffled) == ordered
    assert shuffled[0] is ordered[2]  # the input is left as it was
    assert time_ordered(iter(shuffled)) == ordered

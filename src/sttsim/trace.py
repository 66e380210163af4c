"""Memory-access trace model, text trace I/O, and synthetic trace generation.

Trace file grammar, one record per line::

    <core_id:int> <timestamp:uint> <kind:IF|LD|ST> <address:0x-hex>

`#` begins a comment line, blank lines are ignored, fields are separated
by one or more spaces.  Timestamps are core clock cycles since trace start
and must be non-decreasing per core; conversion to seconds happens in the
hierarchy layer using the configured clock frequency.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ConfigError, TraceParseError, TraceValidationError


class AccessKind(enum.IntEnum):
    INSTR_FETCH = 0
    LOAD = 1
    STORE = 2


_KIND_TO_TOKEN = {AccessKind.INSTR_FETCH: "IF", AccessKind.LOAD: "LD", AccessKind.STORE: "ST"}
_TOKEN_TO_KIND = {v: k for k, v in _KIND_TO_TOKEN.items()}


class AccessRecord(NamedTuple):
    """One memory reference issued by a core."""

    core_id: int
    timestamp: int
    kind: AccessKind
    address: int


def read_trace(path: str) -> list[AccessRecord]:
    """Parse a trace file, validating per-core timestamp monotonicity.

    Returns records in file order.  Raises TraceParseError with the line
    number on malformed input, TraceValidationError naming the core and
    line on a timestamp regression.
    """
    records: list[AccessRecord] = []
    last_ts: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) != 4:
                raise TraceParseError(
                    f"{path}:{lineno}: expected 4 fields "
                    f"'<core> <timestamp> <IF|LD|ST> <0x-address>', got {len(fields)}"
                )
            try:
                core_id = int(fields[0])
                timestamp = int(fields[1])
            except ValueError:
                raise TraceParseError(f"{path}:{lineno}: non-integer core id or timestamp") from None
            kind = _TOKEN_TO_KIND.get(fields[2].upper())
            if kind is None:
                raise TraceParseError(f"{path}:{lineno}: unknown access kind {fields[2]!r}")
            addr_text = fields[3]
            if not addr_text.lower().startswith("0x"):
                raise TraceParseError(f"{path}:{lineno}: address must be 0x-prefixed hex, got {addr_text!r}")
            try:
                address = int(addr_text, 16)
            except ValueError:
                raise TraceParseError(f"{path}:{lineno}: bad hex address {addr_text!r}") from None
            if core_id < 0 or timestamp < 0 or address < 0:
                raise TraceParseError(f"{path}:{lineno}: negative field")
            prev = last_ts.get(core_id)
            if prev is not None and timestamp < prev:
                raise TraceValidationError(
                    f"{path}:{lineno}: timestamp regression on core {core_id} ({timestamp} < {prev})"
                )
            last_ts[core_id] = timestamp
            records.append(AccessRecord(core_id, timestamp, kind, address))
    return records


def write_trace(records: Sequence[AccessRecord], path: str) -> None:
    """Write records in the canonical one-record-per-line text format."""
    with open(path, "w", encoding="utf-8") as fh:
        for core_id, timestamp, kind, address in records:
            fh.write(f"{core_id} {timestamp} {_KIND_TO_TOKEN[AccessKind(kind)]} 0x{address:x}\n")


def time_ordered(records) -> list[AccessRecord]:
    """Return records in (timestamp, core_id) order, the order every replay uses.

    A list already in that order is returned as is, without a copy or a
    sort; otherwise a stably sorted copy is returned.
    """
    records = records if isinstance(records, list) else list(records)
    prev_ts = -1
    prev_core = -1
    for rec in records:
        ts = rec[1]
        core = rec[0]
        if ts < prev_ts or (ts == prev_ts and core < prev_core):
            return sorted(records, key=lambda r: (r[1], r[0]))
        prev_ts = ts
        prev_core = core
    return records


@dataclass(frozen=True)
class ConstantGap:
    cycles: int

    def validate(self) -> None:
        if self.cycles < 1:
            raise ConfigError("constant inter-access gap must be >= 1 cycle")


@dataclass(frozen=True)
class LogUniformGap:
    lo: int
    hi: int

    def validate(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ConfigError("log-uniform gap requires 1 <= lo <= hi")


@dataclass(frozen=True)
class SequentialLoop:
    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class UniformRandom:
    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class Zipf:
    s: float

    def validate(self) -> None:
        if not self.s > 0:
            raise ConfigError("zipf exponent must be > 0")


GapSpec = ConstantGap | LogUniformGap
PatternSpec = SequentialLoop | UniformRandom | Zipf


def parse_gap_spec(text: str) -> GapSpec:
    """Parse 'constant:<cycles>' or 'loguniform:<lo>:<hi>'."""
    parts = text.lower().split(":")
    try:
        if parts[0] == "constant" and len(parts) == 2:
            return ConstantGap(int(parts[1]))
        if parts[0] == "loguniform" and len(parts) == 3:
            return LogUniformGap(int(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ConfigError(f"bad gap spec {text!r}; expected constant:<cycles> or loguniform:<lo>:<hi>")


def parse_pattern_spec(text: str) -> PatternSpec:
    """Parse 'sequential', 'uniform', or 'zipf:<s>'."""
    parts = text.lower().split(":")
    try:
        if parts[0] == "sequential" and len(parts) == 1:
            return SequentialLoop()
        if parts[0] == "uniform" and len(parts) == 1:
            return UniformRandom()
        if parts[0] == "zipf" and len(parts) == 2:
            return Zipf(float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"bad pattern spec {text!r}; expected sequential, uniform, or zipf:<s>")


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Parameters of a deterministic synthetic trace.

    An identical spec (including seed) always yields a byte-identical
    trace.  Addresses are block-aligned multiples of line_size_bytes drawn
    from a working set shared by all cores; the generator emits only data
    accesses (LD/ST), with P(LD) = read_fraction.
    """

    seed: int
    num_cores: int = 1
    accesses_per_core: int = 1000
    read_fraction: float = 0.67
    working_set_blocks: int = 256
    line_size_bytes: int = 64
    gap: GapSpec = ConstantGap(10)
    pattern: PatternSpec = SequentialLoop()

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.accesses_per_core < 1:
            raise ConfigError("accesses_per_core must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be in [0, 1]")
        if self.working_set_blocks < 1:
            raise ConfigError("working_set_blocks must be >= 1")
        if self.line_size_bytes < 1 or self.line_size_bytes & (self.line_size_bytes - 1):
            raise ConfigError("line_size_bytes must be a positive power of two")
        self.gap.validate()
        self.pattern.validate()


def _zipf_cdf(num_blocks: int, s: float) -> list[float]:
    weights = [1.0 / (k + 1) ** s for k in range(num_blocks)]
    total = math.fsum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def generate_trace(spec: SyntheticTraceSpec) -> list[AccessRecord]:
    """Generate a deterministic synthetic trace from a SyntheticTraceSpec.

    Records are returned merged across cores in (timestamp, core_id)
    order; per-core timestamps increase strictly by the sampled gaps,
    starting at 0.
    """
    spec.validate()
    line = spec.line_size_bytes
    nblocks = spec.working_set_blocks
    zipf_cdf = _zipf_cdf(nblocks, spec.pattern.s) if isinstance(spec.pattern, Zipf) else None

    per_core: list[list[AccessRecord]] = []
    for core in range(spec.num_cores):
        rng = random.Random(spec.seed * 1_000_003 + core)
        rand = rng.random
        records: list[AccessRecord] = []
        append = records.append
        t = 0
        read_frac = spec.read_fraction
        gap = spec.gap
        if isinstance(gap, ConstantGap):
            const_gap = gap.cycles
            log_lo = log_hi = 0.0
        else:
            const_gap = 0
            log_lo, log_hi = math.log(gap.lo), math.log(gap.hi)
        sequential = isinstance(spec.pattern, SequentialLoop)
        uniform = isinstance(spec.pattern, UniformRandom)
        for i in range(spec.accesses_per_core):
            if sequential:
                block = i % nblocks
            elif uniform:
                block = int(rand() * nblocks)
                if block == nblocks:  # rand() can return values arbitrarily close to 1
                    block = nblocks - 1
            else:
                block = bisect.bisect_right(zipf_cdf, rand())
                if block == nblocks:
                    block = nblocks - 1
            kind = AccessKind.LOAD if rand() < read_frac else AccessKind.STORE
            append(AccessRecord(core, t, kind, block * line))
            if const_gap:
                t += const_gap
            else:
                t += max(1, round(math.exp(log_lo + rand() * (log_hi - log_lo))))
        per_core.append(records)

    if spec.num_cores == 1:
        return per_core[0]
    merged = list(heapq.merge(*per_core, key=lambda r: (r[1], r[0])))
    return merged

"""Memory-access trace model, text trace I/O, and synthetic trace generation.

Trace file grammar, one record per line::

    <core_id:digits> <timestamp:digits> <kind:IF|LD|ST> <address:0x-hex>

Core ids and timestamps are ASCII decimal digits, with no sign or `_`; an
address is `0x` or `0X` and ASCII hex digits, with no `_`; a kind is `IF`,
`LD` or `ST` in any ASCII case.  `#` begins a comment line, blank lines are
ignored, fields are separated by whitespace.  Timestamps are core clock
cycles since trace start and must be non-decreasing per core.  Simulation
keeps time in those cycles; only reports convert to seconds, at the
configured clock frequency.

A trace is a `Trace`, a read-only sequence of `AccessRecord`s held as four
columns, each in the narrowest array that fits its values: cores start as
an `array('B')`, timestamps and addresses as `array('I')` and kinds as an
`array('b')`.  A trace whose core ids are below 256 and whose timestamps
and addresses are below 2**32 (2.26 s at 1.9 GHz), as every benchmark
trace is, costs 10 bytes a record and no object.  The first value that
does not fit copies its column once to an `array('Q')` (an `array('q')` if
a value is negative), which holds the column twice for the length of the
copy; a trace with all three of those columns widened takes 25 bytes a
record.  A value of 2**64 or more is refused: no address is that wide,
and 2**64 cycles at 1.9 GHz are 307 years.  Replays iterate the columns.

Traces are built in bounded chunks rather than one record at a time.  The
generator draws each core's uniforms from that core's own `random.Random`
a chunk at a time and maps each column of them with one comprehension;
besides the trace, it holds the zipf tables and about one chunk per core.
The reader's chunk parser, the only code that turns trace text into
records, checks a chunk of lines against the grammar column by column;
for a chunk it declines, an error reporter passes it the lines one at a
time and returns the first bad line's error.  Both extend the trace's
columns a chunk at a time, and the records they return equal, value for
value and type for type, building every record one at a time.  Building
allocates no object per record that the cyclic garbage collector tracks.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
import random
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat, starmap
from operator import eq, itemgetter
from typing import Iterator, NamedTuple

from .errors import (
    ConfigError,
    SttsimError,
    TraceParseError,
    TraceRecordsError,
    TraceValidationError,
    check_count,
    check_field_types,
    number_text,
    open_input,
)


class AccessKind(enum.IntEnum):
    INSTR_FETCH = 0
    LOAD = 1
    STORE = 2


_KIND_TO_TOKEN = {AccessKind.INSTR_FETCH: "IF", AccessKind.LOAD: "LD", AccessKind.STORE: "ST"}
# every ASCII spelling of a kind token ("ld", "Ld", ...) and its kind's value: the kinds a trace may name
_ANY_CASE_TO_KIND = {
    a + b: kind.value for kind, token in _KIND_TO_TOKEN.items() for a in token[0] + token[0].lower()
    for b in token[1] + token[1].lower()
}
_HEX_PREFIXES = ("0x", "0X")
# a kinds column value -> its AccessKind
_KIND_OF = {kind.value: kind for kind in AccessKind}

# characters of whole lines read_trace parses at a time, and records per core
# generate_trace draws (and write_trace formats) at a time; both bound the
# scratch memory of one chunk
_READ_CHUNK_CHARS = 1 << 14
_CHUNK_RECORDS = 1 << 11

# array typecodes the columns cores, stamps, kinds and addresses start as: the narrowest that hold core
# ids below 256 and timestamps and addresses below 2**32; _append widens a column that outgrows its type
_TYPECODES = ("B", "I", "b", "I")
_INT_TYPECODES = frozenset("bBhHiIlLqQ")  # the array typecodes whose items are ints


class AccessRecord(NamedTuple):
    """One memory reference issued by a core."""

    core_id: int
    timestamp: int
    kind: AccessKind
    address: int


def _append(column: array, values) -> array:
    """The array column extended by a sequence of ints, packed by struct,
    which converts an int in about half the time array.fromlist takes.
    When one does not fit its type, the column is copied once to an
    array('Q'), or to an array('q') if a value is negative; a value that
    fits neither raises TraceRecordsError."""
    try:
        column.frombytes(struct.pack(f"{len(values)}{column.typecode}", *values))
        return column
    except struct.error:  # a value out of range: nothing was packed
        if column.typecode not in "qQ":
            return _append(array("q" if min(chain(column, values)) < 0 else "Q", column), values)
        value = next((v for v in values if not -2**63 <= v < 2**64), max(values, key=abs))
        raise TraceRecordsError(f"trace value {value} does not fit in 64 bits") from None


class Trace(Sequence):
    """A read-only sequence of AccessRecords, held as four columns.

    `cores`, `stamps`, `kinds` and `addresses` are columns of equal length,
    each an int array of the narrowest type that fits its values (see the
    module docstring).  Indexing and iteration build each AccessRecord on
    demand, with int fields and an AccessKind kind; a slice is a Trace, and
    a Trace equals a Trace or a list of the same records.  read_trace,
    generate_trace and check_records build them; the
    constructor takes the columns as they are, without a copy or a check,
    and nothing may change them after.  Code that receives a Trace relies on
    that: check_records returns one in time order as is, select may return
    it as is, and characterize's profile memo keeps it and knows it by
    identity.  Only check_records and generate_trace set the private
    `_ordered` mark: check_records on a Trace it found or put in replay
    order, generate_trace on the Trace it merges in that order.  Forward
    slices and selections keep it.
    """

    __slots__ = ("cores", "stamps", "kinds", "addresses", "_ordered")

    def __init__(self, cores, stamps, kinds, addresses) -> None:
        if not len(cores) == len(stamps) == len(kinds) == len(addresses):
            raise ValueError("trace columns must have equal lengths")
        self.cores = cores
        self.stamps = stamps
        self.kinds = kinds
        self.addresses = addresses
        self._ordered = False

    @property
    def columns(self) -> tuple:
        return self.cores, self.stamps, self.kinds, self.addresses

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sliced = Trace(*(column[index] for column in self.columns))
            sliced._ordered = self._ordered and (index.step is None or index.step > 0)  # reversed is not ordered
            return sliced
        kind = self.kinds[index]
        return tuple.__new__(
            AccessRecord, (self.cores[index], self.stamps[index], _KIND_OF.get(kind, kind), self.addresses[index])
        )

    def __iter__(self):
        kinds = map(_KIND_OF.get, self.kinds, self.kinds)
        return map(tuple.__new__, repeat(AccessRecord), zip(self.cores, self.stamps, kinds, self.addresses))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.columns == other.columns
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"

    def select(self, selectors) -> Trace:
        """The records whose selector is true, in order: one selector per
        record, in a sequence (it is read once per column).

        When there is a selector for every record and each is true, this
        trace itself is returned, not a copy; no trace changes, so the two
        cannot differ.
        """
        if len(selectors) == len(self) and all(selectors):
            return self
        selected = Trace(*(array(column.typecode, compress(column, selectors)) for column in self.columns))
        selected._ordered = self._ordered
        return selected


def read_trace(path: str) -> Trace:
    """Parse a trace file, validating per-core timestamp monotonicity.

    Returns records in file order.  Raises TraceParseError with the line
    number on malformed input, TraceValidationError naming the core and
    line on a timestamp regression, and TraceParseError naming the file
    when it cannot be opened, read or decoded as UTF-8, or when a value is
    2**64 or more.
    """
    last_ts: dict[int, int] = {}
    columns = [array(code) for code in _TYPECODES]
    with open_input("trace", path, TraceParseError) as fh:
        lineno = 1
        while lines := fh.readlines(_READ_CHUNK_CHARS):
            chunk = _parse_bulk(lines, last_ts)
            if chunk is None:
                raise _first_error(path, lines, lineno, last_ts)
            try:
                columns = list(map(_append, columns, chunk))
            except TraceRecordsError as exc:
                raise TraceParseError(f"{path}: {exc}") from None
            lineno += len(lines)
    return Trace(*columns)


def _parse_bulk(lines: list[str], last_ts: dict[int, int]) -> tuple[list, list, list, list] | None:
    """Columns (cores, stamps, kinds, addresses) of consecutive trace lines,
    checked against the grammar a column at a time.

    Returns None, leaving last_ts (core -> latest timestamp) as it was, when
    any line is not in the grammar or regresses a core's timestamp.
    """
    text = "".join(lines)
    words = _split_fields(text)
    if "#" in text or len(words) != 5 * len(lines):  # comment or blank lines: drop them
        lines = [line for line in lines if (s := line.strip()) and s[0] != "#"]
        if not lines:
            return [], [], [], []
        words = _split_fields("".join(lines))
    # a sentinel ends every line and fails every field check below, so 5 words
    # per line that pass them mean exactly 4 fields on every line
    core_texts, stamp_texts = words[0::5], words[1::5]
    if len(words) != 5 * len(lines) or not _decimal("".join(core_texts) + "".join(stamp_texts)):
        return None
    kinds = list(map(_ANY_CASE_TO_KIND.get, words[2::5]))
    addresses = _hex_values(words[3::5])
    if None in kinds or addresses is None:
        return None
    cores = list(map(int, core_texts))
    stamps = list(map(int, stamp_texts))
    if _first_regression(cores, stamps, last_ts) is not None:
        return None
    return cores, stamps, kinds, addresses


def _first_regression(cores, stamps, last_ts: dict[int, int]) -> int | None:
    """The position of the first record whose timestamp is below an earlier
    one of its core, the file grammar's per-core rule, or None.

    last_ts maps a core to its latest timestamp before these records.  It
    takes each core's latest timestamp after them only when none regresses.
    """
    latest = dict(last_ts)
    for i, core, ts in zip(count(), cores, stamps):
        if ts < latest.get(core, 0):
            return i
        latest[core] = ts
    last_ts.update(latest)
    return None


def _split_fields(text: str) -> list[str]:
    """Whitespace-separated fields of text, with a sentinel word after every line."""
    if not text.endswith("\n"):  # the last line of a file may lack its newline
        text += "\n"
    return text.replace("\n", " | ").split()


def _decimal(text: str) -> bool:
    """Whether text is ASCII decimal digits only: no sign, `_` or other script's digit."""
    return text.isascii() and text.isdigit()


def _hex_values(texts: list[str]) -> list[int] | None:
    """The ints of address texts, or None unless each is `0x`/`0X` and ASCII hex digits, with no `_`."""
    joined = "".join(texts)
    if not joined.isascii() or "_" in joined or not all(map(str.startswith, texts, repeat(_HEX_PREFIXES))):
        return None
    try:
        return list(map(int, texts, repeat(16)))
    except ValueError:
        return None


def _first_error(path: str, lines: list[str], first_lineno: int, last_ts: dict[int, int]) -> SttsimError:
    """The error of the first of the lines that _parse_bulk declines, naming its line number.

    Passes the lines to _parse_bulk one at a time, carrying last_ts, so it
    declines exactly the line the chunk parser stops at; its message names
    the first of that line's fields to break the grammar, in field order.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        if _parse_bulk([line], last_ts) is not None:
            continue
        where = f"{path}:{lineno}"
        fields = line.split()
        if len(fields) != 4:
            return TraceParseError(
                f"{where}: expected 4 fields '<core> <timestamp> <IF|LD|ST> <0x-address>', got {len(fields)}"
            )
        core, stamp, kind, address = fields
        if not (_decimal(core.removeprefix("-")) and _decimal(stamp.removeprefix("-"))):
            return TraceParseError(f"{where}: non-integer core id or timestamp")
        if kind not in _ANY_CASE_TO_KIND:
            return TraceParseError(f"{where}: unknown access kind {kind!r}")
        if not address.startswith(_HEX_PREFIXES):
            return TraceParseError(f"{where}: address must be 0x-prefixed hex, got {address!r}")
        if _hex_values([address]) is None:
            return TraceParseError(f"{where}: bad hex address {address!r}")
        if core[0] == "-" or stamp[0] == "-":
            return TraceParseError(f"{where}: negative field")
        return TraceValidationError(
            f"{where}: timestamp regression on core {int(core)} ({int(stamp)} < {last_ts[int(core)]})"
        )


def write_trace(records: Sequence[AccessRecord], path: str) -> None:
    """Write records in their order, one line each in the trace grammar; no records make an empty file.

    A record that check_records refuses, or whose timestamp is below an
    earlier one of its core (which read_trace would refuse), raises
    TraceRecordsError before the file is opened."""
    trace = _checked(records)
    i = _first_regression(trace.cores, trace.stamps, {})
    if i is not None:
        raise TraceRecordsError(f"trace record {tuple(column[i] for column in trace.columns)!r} has a timestamp "
                                f"below an earlier one of core {trace.cores[i]}; a trace file's timestamps must "
                                "be non-decreasing per core")
    token = _KIND_TO_TOKEN
    rest = zip(*trace.columns)
    with open(path, "w", encoding="utf-8") as fh:
        while lines := [f"{c} {t} {token[k]} 0x{a:x}\n" for c, t, k, a in islice(rest, _CHUNK_RECORDS)]:
            fh.write("".join(lines))


def check_records(records, ncores: int | None = None) -> Trace:
    """Admit a trace: return its records as a non-empty Trace in replay
    order, or raise ConfigError.

    This is the one admission step of a trace; each study admits each input
    trace once, before it slices or rebases it.  TraceRecordsError (a
    ConfigError) names the first record without 4 fields or with a field
    that is not an int or is a bool (replays count in cycles), or with a
    core id below 0 (or not below ncores, when given), a kind that is not an
    AccessKind, or a negative timestamp or address (the file grammar has no
    sign either); each of those checks is one C-level pass over the records
    or a column, and a column of an unsigned array type takes none for its
    sign.  It also refuses a trace with no records.

    The trace is returned in (timestamp, core_id) order, the order every
    replay uses.  A Trace already in that order is returned as is, without
    a copy or a sort; other records are converted to a Trace once, and
    stably sorted into a copy only when out of order.  The Trace returned
    is marked ordered, as are its forward slices and its selections, which
    are ordered too, and generate_trace's; admitting a marked Trace runs
    every check but that pass.
    """
    trace = _checked(records, ncores)
    if not trace:
        raise TraceRecordsError("trace has no records")
    if trace._ordered:
        return trace
    prev_ts = prev_core = -1
    for ts, core in zip(trace.stamps, trace.cores):
        if ts < prev_ts or (ts == prev_ts and core < prev_core):
            order = sorted(range(len(trace)), key=trace.cores.__getitem__)
            order.sort(key=trace.stamps.__getitem__)  # stable: by timestamp, then core id
            trace = Trace(*(array(column.typecode, map(column.__getitem__, order)) for column in trace.columns))
            break
        prev_ts = ts
        prev_core = core
    trace._ordered = True
    return trace


def _checked(records, ncores: int | None = None) -> Trace:
    """records as a Trace in their own order, each record checked as check_records says."""
    # a Trace of int arrays is taken as it is; one with a list column or an array of floats is packed as records are
    if isinstance(records, Trace) and {getattr(c, "typecode", "") for c in records.columns} <= _INT_TYPECODES:
        trace = records
    else:
        records = records if isinstance(records, list) else list(records)
        _check_fields(records)
        trace = Trace(*(_append(array(code), list(map(itemgetter(i), records))) for i, code in enumerate(_TYPECODES)))
    cores = set(trace.cores)
    bad = cores.difference(range(ncores)) if ncores is not None else {c for c in cores if c < 0}
    if bad:
        core = next(c for c in trace.cores if c in bad)
        rule = "core ids must be >= 0" if ncores is None else f"num_cores is {ncores}"
        raise TraceRecordsError(f"trace references core {core} but {rule}")
    bad = set(trace.kinds).difference(AccessKind)
    if bad:
        kind = next(k for k in trace.kinds if k in bad)
        raise TraceRecordsError(f"trace record kind {kind!r} is not 0 (instruction fetch), 1 (load) or 2 (store)")
    # an unsigned array column holds no negative value; only the others take a pass, if not empty
    signed = [c for c in (trace.stamps, trace.addresses) if c and c.typecode.islower()]
    if signed and min(map(min, signed)) < 0:
        i = next(i for i, (ts, addr) in enumerate(zip(trace.stamps, trace.addresses)) if ts < 0 or addr < 0)
        field = "timestamp" if trace.stamps[i] < 0 else "address"
        raise TraceRecordsError(f"trace record {tuple(column[i] for column in trace.columns)!r} has a negative {field}")
    return trace


def _check_fields(records) -> None:
    if set(map(len, records)) - {4}:  # a column would drop a fifth field
        bad = next(r for r in records if len(r) != 4)
        raise TraceRecordsError(f"trace record {bad!r} does not have 4 fields")
    # a bool is an int to Python, but True is no core, time, kind or address
    if not all(issubclass(t, int) and t is not bool for t in set(map(type, chain.from_iterable(records)))):
        bad = next(r for r in records if not all(isinstance(x, int) and type(x) is not bool for x in r))
        raise TraceRecordsError(f"trace record {bad!r} has a field that is not an int")


@dataclass(frozen=True)
class ConstantGap:
    cycles: int

    def __post_init__(self) -> None:
        check_count("constant inter-access gap", self.cycles)


@dataclass(frozen=True)
class LogUniformGap:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        check_count("log-uniform gap lo", self.lo)
        if check_count("log-uniform gap hi", self.hi) < self.lo:
            raise ConfigError("log-uniform gap requires 1 <= lo <= hi")
        if self.hi > sys.float_info.max:  # a gap is drawn as a float, math.exp of its exponent
            raise ConfigError(f"log-uniform gap hi must be at most the largest float, got {self.hi}")


@dataclass(frozen=True)
class SequentialLoop:
    pass


@dataclass(frozen=True)
class UniformRandom:
    pass


@dataclass(frozen=True)
class Zipf:
    s: float

    def __post_init__(self) -> None:
        check_field_types(self, numbers.Real, "s")
        if not self.s > 0:
            raise ConfigError("zipf exponent must be > 0")


GapSpec = ConstantGap | LogUniformGap
PatternSpec = SequentialLoop | UniformRandom | Zipf

# a zipf pattern builds its CDF as Python floats, two per working-set block
# while it is built, and then, once one of the two lists is freed, an int
# address per block: generate_trace peaks about 320 MB above the interpreter
# at this bound (CPython 3.11), the address list adding nothing to that peak
MAX_ZIPF_BLOCKS = 2**22


def parse_gap_spec(text: str) -> GapSpec:
    """Parse 'constant:<cycles>' or 'loguniform:<lo>:<hi>', in ASCII without `_`."""
    try:
        parts = number_text(text).lower().split(":")
        if parts[0] == "constant" and len(parts) == 2:
            return ConstantGap(int(parts[1]))
        if parts[0] == "loguniform" and len(parts) == 3:
            return LogUniformGap(int(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ConfigError(f"bad gap spec {text!r}; expected constant:<cycles> or loguniform:<lo>:<hi>")


def parse_pattern_spec(text: str) -> PatternSpec:
    """Parse 'sequential', 'uniform', or 'zipf:<s>', in ASCII without `_`."""
    try:
        parts = number_text(text).lower().split(":")
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
    accesses (LD/ST), with P(LD) = read_fraction.  A spec checks its fields
    when it is built, raising ConfigError: the integer fields must be ints,
    read_fraction a real number, gap and pattern spec objects; the working
    set must span at most 2**64 bytes, and a zipf pattern allows at most
    MAX_ZIPF_BLOCKS working-set blocks.
    """

    seed: int
    num_cores: int = 1
    accesses_per_core: int = 1000
    read_fraction: float = 0.67
    working_set_blocks: int = 256
    line_size_bytes: int = 64
    gap: GapSpec = ConstantGap(10)
    pattern: PatternSpec = SequentialLoop()

    def __post_init__(self) -> None:
        check_field_types(self, int, "seed", "num_cores", "accesses_per_core", "working_set_blocks", "line_size_bytes")
        check_field_types(self, numbers.Real, "read_fraction")
        if not isinstance(self.gap, GapSpec):
            raise ConfigError(f"gap must be a ConstantGap or LogUniformGap, got {self.gap!r}")
        if not isinstance(self.pattern, PatternSpec):
            raise ConfigError(f"pattern must be a SequentialLoop, UniformRandom or Zipf, got {self.pattern!r}")
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
        if self.working_set_blocks * self.line_size_bytes > 2**64:  # an address must fit in 64 bits
            raise ConfigError(f"working_set_blocks * line_size_bytes must be at most 2**64, got "
                              f"{self.working_set_blocks} * {self.line_size_bytes}")
        if isinstance(self.pattern, Zipf) and self.working_set_blocks > MAX_ZIPF_BLOCKS:
            raise ConfigError(
                f"a zipf working set must be at most {MAX_ZIPF_BLOCKS} blocks, got {self.working_set_blocks}"
            )


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


def generate_trace(spec: SyntheticTraceSpec) -> Trace:
    """Generate a deterministic synthetic trace from a SyntheticTraceSpec.

    Records are returned merged across cores in (timestamp, core_id)
    order; per-core timestamps increase strictly by the sampled gaps,
    starting at 0.  The Trace is marked ordered, so check_records admits
    it without an order pass.  A timestamp of 2**64 or more raises
    TraceRecordsError.
    """
    line = spec.line_size_bytes
    cdf = block_addresses = None
    if isinstance(spec.pattern, Zipf):
        cdf = _zipf_cdf(spec.working_set_blocks, spec.pattern.s)
        block_addresses = list(range(0, spec.working_set_blocks * line, line))  # after the CDF's weights are freed
    return _merge_cores([_core_batches(spec, core, cdf, block_addresses) for core in range(spec.num_cores)])


def _merge_cores(batches: list[Iterator[tuple[Sequence, list, list]]]) -> Trace:
    """Merge per-core chunks of time-ordered (stamps, kinds, addresses)
    columns into one Trace in (timestamp, core_id) order.

    Works a window at a time: a core's later records come strictly after its
    pending ones, so every pending record no later than the earliest last
    pending timestamp among cores still producing is final.  Each window is
    merged on its own (see _merge_window) and appended to the columns, so
    the merge's scratch memory stays at the size of a chunk per core.
    """
    columns = [array(code) for code in _TYPECODES]
    empty = ((), (), ())
    pending = [empty] * len(batches)
    live = list(range(len(batches)))  # cores with records still to come
    while live or any(chunk[0] for chunk in pending):
        for core in live:
            if not pending[core][0]:
                pending[core] = next(batches[core], empty)  # chunks are never empty
        live = [core for core in live if pending[core][0]]
        cut = min((pending[core][0][-1] for core in live), default=math.inf)
        window = []
        for core, chunk in enumerate(pending):
            i = bisect.bisect_right(chunk[0], cut)
            window.append([column[:i] for column in chunk])
            pending[core] = [column[i:] for column in chunk]
        columns = list(map(_append, columns, _merge_window(window)))
    merged = Trace(*columns)
    merged._ordered = True  # in (timestamp, core_id) order by construction
    return merged


def _merge_window(window: list[list[list]]) -> list:
    """The (cores, stamps, kinds, addresses) columns of one (stamps, kinds,
    addresses) chunk per core, each in timestamp order, merged in
    (timestamp, core_id) order.

    When every core has the same timestamps, as under a constant gap (whose
    stamps are ranges, so the comparison is O(1)), the merge takes each
    timestamp's records core by core: each column is interleaved by slice
    assignment.  Otherwise the chunks are concatenated core by core and
    stably sorted by timestamp, which keeps equal timestamps in core order;
    every column then takes the sorted positions.
    """
    ncores = len(window)
    first = window[0][0]
    if all(chunk[0] == first for chunk in window):
        merged = [list(range(ncores)) * len(first)]
        for i in range(3):
            column = [0] * (len(first) * ncores)
            for core, chunk in enumerate(window):
                column[core::ncores] = chunk[i]
            merged.append(column)
        return merged
    cores = list(chain.from_iterable(repeat(core, len(chunk[0])) for core, chunk in enumerate(window)))
    columns = [cores] + [list(chain.from_iterable(chunk[i] for chunk in window)) for i in range(3)]
    if len(cores) < 2:  # an itemgetter of one position returns the value, not a tuple
        return columns
    take = itemgetter(*sorted(range(len(cores)), key=columns[1].__getitem__))
    return [take(column) for column in columns]


def _core_batches(
    spec: SyntheticTraceSpec,
    core: int,
    cdf: list[float] | None,
    block_addresses: list[int] | None,
):
    """One core's records, a chunk of (stamps, kinds, addresses) columns at
    a time, in timestamp order.

    Each record draws, in order, its block (random patterns), its kind and
    its gap (log-uniform gaps) from the core's own generator.  A chunk draws
    all its uniforms in that order at once and maps each column of them:
    a zipf block is the bisect_right of its uniform in the CDF, an index
    into the trace's one list of block_addresses; a uniform block the
    truncated product with the block count; a kind a comparison with
    read_fraction; and a gap math.exp and round of its exponent.  Under a
    constant gap, a chunk's timestamps are a range.  A suspended core holds
    only the chunk it yielded: its uniforms and gaps are released first.
    """
    rand = random.Random(spec.seed * 1_000_003 + core).random
    nblocks = spec.working_set_blocks
    line = spec.line_size_bytes
    end = nblocks * line
    gap = spec.gap
    period = gap.cycles if isinstance(gap, ConstantGap) else 0
    kind_col = 0 if isinstance(spec.pattern, SequentialLoop) else 1
    draws = kind_col + 1 + isinstance(gap, LogUniformGap)
    if isinstance(gap, LogUniformGap):
        log_lo, log_span = math.log(gap.lo), math.log(gap.hi) - math.log(gap.lo)
    scale = float(nblocks)  # what x * nblocks converts nblocks to
    read_fraction = float(spec.read_fraction)
    load, store = AccessKind.LOAD.value, AccessKind.STORE.value
    bisect_right, exp = bisect.bisect_right, math.exp
    t = 0
    for start in range(0, spec.accesses_per_core, _CHUNK_RECORDS):
        k = min(_CHUNK_RECORDS, spec.accesses_per_core - start)
        u = list(starmap(rand, repeat((), k * draws)))
        if kind_col == 0:
            addresses = [i % nblocks * line for i in range(start, start + k)]
        elif cdf is not None:  # every draw is below 1.0, the CDF's last entry, so within the last block
            addresses = [block_addresses[bisect_right(cdf, x)] for x in u[0::draws]]
        else:
            addresses = [int(x * scale) * line for x in u[0::draws]]
            if end in addresses:  # x * nblocks can round up to nblocks
                addresses = [min(a, end - line) for a in addresses]
        if period:
            chunk_stamps = range(start * period, (start + k) * period, period)
        else:
            gaps = [round(exp(log_lo + x * log_span)) or 1 for x in u[kind_col + 1::draws]]  # each gap >= 1
            chunk_stamps = list(accumulate(gaps, initial=t))
            t = chunk_stamps.pop()
        kinds = [load if x < read_fraction else store for x in u[kind_col::draws]]
        u = gaps = None
        yield chunk_stamps, kinds, addresses

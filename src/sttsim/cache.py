"""Set-associative write-back cache unit with optional retention expiration.

Times are integer core clock cycles.  An STTRAM unit carries a per-block
counter driven by a unit-global tick clock of a whole number of cycles
(tick_cycles).  A block whose counter receives N ticks since its last reset
is evicted just before its data would decay: dirty blocks emit a writeback
first.  The counter resets on fills and write hits (writes re-magnetize the
cells); read hits leave it running unless refresh_on_read is enabled.

Ticks are applied lazily on a timing wheel of N slots (Varghese & Lauck,
SOSP 1987) whose slots hold plain way indices; a refresh only records the
way's reset tick, and a way found refreshed when its slot comes due is
re-filed.  Observable outcomes are identical to firing every tick eagerly,
which the test suite checks against an independent eager simulator.

One address map holds each resident address's way and, for an address no
longer resident, a negative code naming how it left (replaced or expired),
so a miss takes its class from the lookup that found it absent.  A drain
expires each due slot in one pass, in filing order, and only counts.  A
caller that collects expired blocks sees them in (tick, generation, way)
order: tick_expirations returns every one, while access() given a list
appends only the dirty ones, the blocks an L1 writes to the next level.

The public calls check their arguments: access() the address's alignment
and the time's order and type, tick_expirations() the time's type, and
block_state() and eviction_cause() the way or address.  The replay loops
(hierarchy, characterize) call the unchecked core, _access(), whose
docstring lists what trace admission and those loops guarantee instead.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, check_field_types

DEFAULT_CLOCK_HZ = 1.9e9


class Technology(enum.Enum):
    SRAM = "SRAM"
    STTRAM = "STTRAM"


def _parse_technology(text: str) -> Technology:
    """The Technology text names, SRAM or STTRAM in any ASCII case; ConfigError names the text as written."""
    if not text.isascii() or text.upper() not in Technology.__members__:  # "\u017fram".upper() is "SRAM"
        raise ConfigError(f"unknown technology {text!r}; expected SRAM or STTRAM")
    return Technology[text.upper()]


class MissClass(enum.IntEnum):
    COMPULSORY = 0
    REPLACEMENT = 1
    EXPIRATION = 2


class EvictionCause(enum.IntEnum):
    """Last known state of a block address in one unit; see CacheUnit.eviction_cause."""

    NEVER_RESIDENT = 0
    RESIDENT = 1
    EVICTED_BY_REPLACEMENT = 2
    EVICTED_BY_EXPIRATION = 3


class AccessOutcome(NamedTuple):
    hit: bool
    miss_class: MissClass | None
    writeback_issued: bool
    victim_address: int | None


class ExpiredBlock(NamedTuple):
    address: int
    dirty: bool
    expire_time: int  # cycles


_HIT = AccessOutcome(True, None, False, None)
# builds an outcome or an ExpiredBlock without the namedtuple's Python-level __new__
_new_tuple = tuple.__new__

_COMPULSORY = MissClass.COMPULSORY
_REPLACEMENT = MissClass.REPLACEMENT
_EXPIRATION = MissClass.EXPIRATION

# the outcome of a miss into a free way, by miss class
_FREE_WAY_MISS = tuple(AccessOutcome(False, c, False, None) for c in MissClass)

# a unit builds one wheel slot per counter state, and a drain walks up to that many
MAX_COUNTER_STATES = 256
# a unit builds five lists of one entry per way, 40 bytes a way: 160 MiB at this bound, which a unit of
# 256 MiB in 64-byte lines reaches, and which also bounds the ways of all a hierarchy's units together
MAX_WAYS = 2**22

# a unit's address map holds a resident address's way (>= 0), else how it left
_NEVER = -1  # never resident: what the map's get() defaults to, never stored
_REPLACED = -2
_EXPIRED = -3
_CAUSE_OF_CODE = {
    _NEVER: EvictionCause.NEVER_RESIDENT,
    _REPLACED: EvictionCause.EVICTED_BY_REPLACEMENT,
    _EXPIRED: EvictionCause.EVICTED_BY_EXPIRATION,
}


@dataclass(frozen=True)
class CacheUnitConfig:
    """Geometry, technology, and retention parameters of one cache unit.

    size_bytes must equal num_sets * associativity * line_size_bytes with
    num_sets a power of two.  retention_time (seconds) is required for
    STTRAM and ignored for SRAM.  counter_states is the number of FSM
    states N of the per-block retention counter, 2 to MAX_COUNTER_STATES
    (an 8-bit counter).  The unit's ways, size_bytes / line_size_bytes, are
    at most MAX_WAYS.  Replacement is LRU.  Sizes and counter_states must
    be ints, retention_time a real number or None, and refresh_on_read a
    bool.
    """

    size_bytes: int
    associativity: int
    line_size_bytes: int
    technology: Technology = Technology.SRAM
    retention_time: float | None = None
    counter_states: int = 4
    refresh_on_read: bool = False

    def __post_init__(self) -> None:
        check_field_types(self, int, "size_bytes", "associativity", "line_size_bytes", "counter_states")
        check_field_types(self, Technology, "technology")
        if self.retention_time is not None:
            check_field_types(self, numbers.Real, "retention_time")
        check_field_types(self, bool, "refresh_on_read")
        if self.line_size_bytes < 1 or self.line_size_bytes & (self.line_size_bytes - 1):
            raise ConfigError("line_size_bytes must be a positive power of two")
        if self.associativity < 1:
            raise ConfigError("associativity must be >= 1")
        if self.size_bytes % (self.associativity * self.line_size_bytes):
            raise ConfigError("size_bytes must be a multiple of associativity * line_size_bytes")
        if self.num_blocks > MAX_WAYS:
            raise ConfigError(f"a unit holds at most MAX_WAYS = {MAX_WAYS} ways (size_bytes / line_size_bytes), "
                              f"got {self.num_blocks}")
        sets = self.num_sets
        if sets < 1 or sets & (sets - 1):
            raise ConfigError(f"num_sets must be a power of two, got {sets}")
        if self.counter_states < 2:
            raise ConfigError("counter_states must be >= 2")
        if self.counter_states > MAX_COUNTER_STATES:
            raise ConfigError(f"counter_states must be <= {MAX_COUNTER_STATES}, got {self.counter_states}")
        if self.technology is Technology.STTRAM:
            r = self.retention_time
            if r is None or not 0 < r < math.inf:
                raise ConfigError(f"STTRAM requires a finite retention_time > 0, got {r!r}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size_bytes)

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.line_size_bytes

    @property
    def counter_bits(self) -> int:
        """Modeled per-block counter overhead (2 bits for N=4)."""
        return math.ceil(math.log2(self.counter_states))

    @property
    def counter_overhead_bytes(self) -> float:
        """Total modeled storage overhead of the retention counters."""
        if self.technology is not Technology.STTRAM:
            return 0.0
        return self.counter_bits * self.num_blocks / 8


@dataclass
class BlockState:
    """Snapshot of one cache way, for inspection and tests."""

    tag: int | None
    valid: bool
    dirty: bool
    counter: int
    lru_rank: int


def tick_cycles(config: CacheUnitConfig, clock_hz: float) -> int:
    """Cycles of one counter tick, retention_time * clock_hz / N rounded to whole cycles as a
    divided clock ticks; ConfigError when that is below one cycle or not finite."""
    exact = config.retention_time * clock_hz / config.counter_states
    cycles = round(exact) if exact < math.inf else 0
    if cycles < 1:
        raise ConfigError(f"retention_time {config.retention_time!r} s at {clock_hz!r} Hz gives a counter tick of "
                          f"{exact!r} cycles; a tick must last a whole number of cycles, at least one")
    return cycles


def cannot_expire_by(config: CacheUnitConfig, clock_hz: float, t: int) -> bool:
    """True when a unit of config, clocked at clock_hz, cannot expire a block at any cycle up to t.

    A unit without retention never expires one.  Otherwise the earliest
    deadline is the counter_states-th tick, that of a block filled at tick 0;
    an access at that very cycle already finds the block expired.
    """
    return config.technology is not Technology.STTRAM or t < config.counter_states * tick_cycles(config, clock_hz)


class CacheUnit:
    """One mutable cache unit clocked at clock_hz; single-owner, not safe for concurrent use.

    The unit's state lives in __slots__, one per attribute __init__ sets, so
    the hot paths read and write it at fixed offsets rather than through a
    dict; a new attribute must be added to the slots.
    """

    __slots__ = (
        "config", "name", "num_sets", "assoc", "_set_mask", "_shift", "_line_mask",
        "_tags", "_where", "_dirty", "_lru", "_reset_tick", "_gen", "_seq",
        "has_expiry", "tick_period", "_n_states", "_wheel", "time", "_tick", "next_tick_time",
        "_read_resets", "read_hits", "write_hits", "miss_compulsory", "miss_replacement",
        "miss_expiration", "writebacks", "evictions_replacement", "evictions_expiration",
    )

    def __init__(self, config: CacheUnitConfig, name: str = "unit", clock_hz: float = DEFAULT_CLOCK_HZ) -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self._set_mask = self.num_sets - 1
        self._shift = config.line_size_bytes.bit_length() - 1
        self._line_mask = config.line_size_bytes - 1
        n = self.num_sets * self.assoc
        # parallel per-way arrays; tag None marks an invalid way
        self._tags: list[int | None] = [None] * n
        # every address seen -> its way while resident (kept in step with _tags),
        # else _REPLACED or _EXPIRED; an absent address was never resident
        self._where: dict[int, int] = {}
        self._dirty = [False] * n
        self._lru = [0] * n
        # tick of each way's last counter reset; _gen counts its resets and expiries
        self._reset_tick = [0] * n
        self._gen = [0] * n
        self._seq = 0

        self.has_expiry = config.technology is Technology.STTRAM
        if self.has_expiry:
            self.tick_period = tick_cycles(config, clock_hz)
        else:
            self.tick_period = math.inf
        self._n_states = config.counter_states
        # slot t % N: the ways filed to come due at tick t, one entry per valid way
        self._wheel: list[list[int]] = [[] for _ in range(self._n_states)]
        # latest time seen by access() or tick_expirations() (-inf before any), and its tick
        self.time = -math.inf
        self._tick = 0
        self.next_tick_time = self.tick_period
        # whether a read hit restarts the counter, as every write hit does
        self._read_resets = self.has_expiry and config.refresh_on_read

        self.read_hits = 0
        self.write_hits = 0
        self.miss_compulsory = 0
        self.miss_replacement = 0
        self.miss_expiration = 0
        self.writebacks = 0
        self.evictions_replacement = 0
        self.evictions_expiration = 0

    def counter_value(self, way: int, at: int) -> int:
        """Counter state of flat way `way` at cycle `at` (ticks since reset, capped); 0 for a
        way that holds no block, and ValueError for a way outside 0..num_blocks-1."""
        if not 0 <= way < len(self._tags):
            raise ValueError(f"{self.name}: no way {way} in {len(self._tags)} ways")
        if not self.has_expiry or self._tags[way] is None:
            return 0
        ticks = at // self.tick_period - self._reset_tick[way]
        return min(self._n_states - 1, max(0, ticks))

    # the errors of the public entry points' refusals; the replays' core never raises them

    def _unaligned(self, addr: int) -> ValueError:
        return ValueError(f"{self.name}: address {addr:#x} not aligned to {self._line_mask + 1}-byte line")

    def _not_cycles(self, now) -> ValueError:
        return ValueError(f"{self.name}: time {now!r} is not a whole number of cycles")

    # -- expiration --------------------------------------------------------

    def tick_expirations(self, now: int) -> list[ExpiredBlock]:
        """Apply all expirations due at or before `now`; return the blocks this call expired.

        Advances the unit's clock to `now` if later.  access() applies due
        expirations too, and appends only the dirty ones to a list it is
        given, so call this first to see every expired block.
        Blocks come in tick order, those due at one tick in (generation, way)
        order, where a way's generation counts its fills, resets and expiries.
        Nothing is due before next_tick_time, the next tick boundary; a
        `now` at or past it must be an int.
        """
        due = now >= self.next_tick_time
        if due and not isinstance(now, int):
            raise self._not_cycles(now)
        if now > self.time:
            self.time = now
        expired: list[ExpiredBlock] = []
        if due:
            self._expire_due(now, expired)
        return expired

    def _expire_due(self, now: int, expired: list[ExpiredBlock] | None, dirty_only: bool = False) -> None:
        """Expire every block due at or before `now`.  Unless `expired` is None, append to it
        each block expired, only the dirty ones when `dirty_only`, in (tick, generation, way)
        order.  `now` is an int."""
        period = self.tick_period
        k = now // period
        n = self._n_states
        tick = self._tick
        wheel = self._wheel
        tags = self._tags
        where = self._where
        gen = self._gen
        reset_tick = self._reset_tick
        dirty = self._dirty
        expirations = writebacks = 0
        # the ways of one tick to collect, expired once sorted; the others expire as they are met
        due = [] if expired is not None else None
        # every filed deadline lies in (tick, tick + N], re-filed ones too
        last = tick + n if k > tick + n else k  # not min(), a builtin call per drain
        for t in range(tick + 1, last + 1):
            i = t % n
            slot = wheel[i]
            if not slot:
                continue
            wheel[i] = []
            for way in slot:
                reset = reset_tick[way]
                if reset + n != t:  # reset since filed: its deadline's slot is its reset tick's
                    wheel[reset % n].append(way)
                elif due is not None and (dirty[way] or not dirty_only):
                    due.append(way)
                else:
                    where[tags[way]] = _EXPIRED
                    tags[way] = None
                    gen[way] += 1
                    expirations += 1
                    if dirty[way]:
                        writebacks += 1
            if due:
                if len(due) > 1:
                    due.sort()
                    due.sort(key=gen.__getitem__)  # stable: (generation, way) order
                expire_time = t * period
                for way in due:
                    addr = tags[way]
                    was_dirty = dirty[way]
                    expired.append(_new_tuple(ExpiredBlock, (addr, was_dirty, expire_time)))
                    where[addr] = _EXPIRED
                    tags[way] = None
                    gen[way] += 1
                    if was_dirty:
                        writebacks += 1
                expirations += len(due)
                due.clear()
        self.evictions_expiration += expirations
        self.writebacks += writebacks
        self._tick = k
        self.next_tick_time = (k + 1) * period

    # -- access ------------------------------------------------------------

    def access(self, addr: int, is_write: bool, now: int, expired: list[ExpiredBlock] | None = None) -> AccessOutcome:
        """One read or write of a block-aligned address at simulated cycle `now`.

        `now` must not precede the unit's clock, the latest time seen by
        access() or tick_expirations(); the call advances the clock to it.
        Expirations due at or before `now` are applied before the lookup,
        so a reference arriving after a block's deadline observes the
        expiration miss.  When `expired` is a list, the dirty blocks this
        call expires are appended to it in the order tick_expirations() would
        return them among the others (so an L1 collects the writebacks its
        expiries owe the next level); every expiry is counted either way.
        ValueError refuses an unaligned address, a `now` before the clock,
        and one that is not an int when a tick is due.
        """
        if addr & self._line_mask:
            raise self._unaligned(addr)
        if now < self.time:
            raise ValueError(f"{self.name}: time regression ({now} < {self.time})")
        if now >= self.next_tick_time and not isinstance(now, int):
            raise self._not_cycles(now)
        return self._access(addr, is_write, now, expired)

    def _access(self, addr: int, is_write: bool, now: int, expired: list[ExpiredBlock] | None = None) -> AccessOutcome:
        """access() without its checks, for the replay loops, whose admitted
        records (see trace.check_records) guarantee each of them:

        - `addr` is block-aligned: the loop masks it with the line mask.
        - `now` never precedes the unit's clock: records come in
          (timestamp, core_id) order, a core starts each record at
          max(timestamp, its previous completion), and the shared L2's
          time (hierarchy._simulate's l2_last) only grows.
        - `now` is an int: the admitted columns hold ints, tech-table
          latencies are ints, and an expiry time is tick * tick_period.
        """
        self.time = now
        if now >= self.next_tick_time:
            self._expire_due(now, expired, True)

        where = self._where
        way = where.get(addr, _NEVER)
        if way >= 0:
            self._seq = seq = self._seq + 1
            self._lru[way] = seq
            if is_write:
                self.write_hits += 1
                self._dirty[way] = True
                if not self.has_expiry:
                    return _HIT
            else:
                self.read_hits += 1
                if not self._read_resets:
                    return _HIT
            # the counter restarts; the wheel entry is re-filed when it comes due
            self._reset_tick[way] = self._tick
            self._gen[way] += 1
            return _HIT

        # miss: classify from the code the lookup found, pick a victim, allocate
        if way == _NEVER:
            miss_class = _COMPULSORY
            self.miss_compulsory += 1
        elif way == _REPLACED:
            miss_class = _REPLACEMENT
            self.miss_replacement += 1
        else:
            miss_class = _EXPIRATION
            self.miss_expiration += 1

        # the set's first invalid way, else its least recently used one, found in C on slices; measured slower:
        # tags.index(None, base, end) with a ValueError fallback, and min(range(base, end), key=lru.__getitem__)
        assoc = self.assoc
        base = ((addr >> self._shift) & self._set_mask) * assoc
        end = base + assoc
        tags = self._tags
        lru = self._lru
        dirty = self._dirty
        ways = tags[base:end]
        if None in ways:
            way = base + ways.index(None)
            victim = None
        else:
            stamps = lru[base:end]
            way = base + stamps.index(min(stamps))
            victim = tags[way]
            where[victim] = _REPLACED
            self.evictions_replacement += 1
            writeback = dirty[way]
            if writeback:
                self.writebacks += 1

        tags[way] = addr
        where[addr] = way
        dirty[way] = is_write
        self._seq = seq = self._seq + 1
        lru[way] = seq
        if self.has_expiry:
            tick = self._tick
            self._reset_tick[way] = tick
            self._gen[way] += 1
            if victim is None:  # a replaced block's wheel entry serves its successor
                self._wheel[tick % self._n_states].append(way)
        if victim is None:
            return _FREE_WAY_MISS[miss_class]
        return _new_tuple(AccessOutcome, (False, miss_class, writeback, victim))

    # -- inspection ----------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.miss_compulsory + self.miss_replacement + self.miss_expiration

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def fills(self) -> int:
        """Every miss allocates, so every miss is a fill."""
        return self.misses

    def block_state(self, set_index: int, way: int, at: int | None = None) -> BlockState:
        """Way `way` of set `set_index`; ValueError when either is out of range."""
        if not (0 <= set_index < self.num_sets and 0 <= way < self.assoc):
            raise ValueError(f"{self.name}: no way {way} of set {set_index} in "
                             f"{self.num_sets} sets of {self.assoc} ways")
        w = set_index * self.assoc + way
        tag = self._tags[w]
        when = self.time if at is None else at
        return BlockState(
            tag=tag,
            valid=tag is not None,
            dirty=self._dirty[w] if tag is not None else False,
            counter=self.counter_value(w, when),
            lru_rank=self._lru[w],
        )

    def eviction_cause(self, address: int) -> EvictionCause:
        """Last known state of a block-aligned address in this unit; ValueError for an unaligned one."""
        if address & self._line_mask:
            raise self._unaligned(address)
        code = self._where.get(address, _NEVER)
        return EvictionCause.RESIDENT if code >= 0 else _CAUSE_OF_CODE[code]

    def resident_addresses(self) -> set[int]:
        return {t for t in self._tags if t is not None}

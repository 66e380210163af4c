"""Energy model over per-(technology, retention) parameter tables.

The table stands in for a device-level modeling pipeline: each row gives
per-access read/write energies, leakage power, and read/write latencies
for one technology point.  Values are inputs, never derived here; the
bundled sample table is illustrative and documented as such.

Table file format, one row per line::

    <tech:SRAM|STTRAM> <retention_s:float|-> <e_read_J> <e_write_J> <p_leak_W> <t_read_cycles:int> <t_write_cycles:int>

The technology is SRAM or STTRAM in any ASCII case.  The SRAM row, and only
it, has `-` as its retention.  Reals are ASCII float literals (`1e-3`,
`1.5e-11`) and cycle counts ASCII digits; neither takes `_`, and a count
takes no `+`.  `#` begins a comment.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .cache import Technology, _parse_technology
from .errors import ConfigError, check_field_types, check_positive, number_text, open_input

SAMPLE_TABLE_RESOURCE = "tech_table_sample.txt"


@dataclass(frozen=True)
class TechParams:
    technology: Technology
    retention_time: float | None
    e_read: float
    e_write: float
    p_leak: float
    t_read: int
    t_write: int

    def __post_init__(self) -> None:
        check_field_types(self, Technology, "technology")
        if self.retention_time is not None:
            check_field_types(self, numbers.Real, "retention_time")
        check_field_types(self, numbers.Real, "e_read", "e_write", "p_leak")
        check_field_types(self, int, "t_read", "t_write")
        for field in ("e_read", "e_write", "p_leak", "t_read", "t_write"):
            value = getattr(self, field)
            if not 0 <= value < math.inf:  # NaN fails too
                raise ConfigError(f"tech parameter {field} must be finite and >= 0, got {value!r}")
        if self.technology is Technology.STTRAM:
            check_positive("STTRAM retention_time", self.retention_time)


class EnergyBreakdown(NamedTuple):
    dynamic_read: float
    dynamic_write: float
    leakage: float
    total: float


class TechTable:
    """Lookup of TechParams keyed by (technology, retention)."""

    def __init__(self, entries: list[TechParams], origins: list[str] | None = None, source: str | None = None) -> None:
        """origins, when given, names each entry's source (file:line) in errors, and source the table's file."""
        self._source = f"{source}: " if source else ""
        self._by_key: dict[tuple[Technology, float | None], TechParams] = {}
        for i, p in enumerate(entries):
            key = (p.technology, p.retention_time if p.technology is Technology.STTRAM else None)
            if key in self._by_key:
                at = f"{origins[i]}: " if origins else ""
                raise ConfigError(f"{at}duplicate tech table entry for ({key[0].value}, {key[1]})")
            self._by_key[key] = p
        self._warn_nonmonotone()

    def _warn_nonmonotone(self) -> None:
        stt = sorted(
            (p for p in self._by_key.values() if p.technology is Technology.STTRAM),
            key=lambda p: p.retention_time,
        )
        for a, b in zip(stt, stt[1:]):
            if b.e_write < a.e_write or b.t_write < a.t_write:
                warnings.warn(
                    f"tech table: write cost decreases from retention {a.retention_time:g}s "
                    f"to {b.retention_time:g}s; longer retention is expected to cost more",
                    stacklevel=3,
                )

    def lookup(self, technology: Technology, retention_time: float | None) -> TechParams:
        key = (technology, retention_time if technology is Technology.STTRAM else None)
        try:
            return self._by_key[key]
        except KeyError:
            raise ConfigError(
                f"{self._source}tech table has no entry for ({technology.value}, "
                f"{'-' if key[1] is None else format(key[1], 'g')})"
            ) from None

    def retentions(self) -> list[float]:
        return sorted(k[1] for k in self._by_key if k[0] is Technology.STTRAM)

    def __len__(self) -> int:
        return len(self._by_key)


def _parse_row(fields: list[str], where: str) -> TechParams:
    """The TechParams of a row's 7 fields; raises ValueError on a malformed numeric field."""
    try:
        tech = _parse_technology(fields[0])
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if tech is Technology.STTRAM and fields[1] == "-":
        raise ConfigError(f"{where}: STTRAM row requires a retention time")
    if tech is Technology.SRAM and fields[1] != "-":  # its key would drop the retention
        raise ConfigError(f"{where}: SRAM row takes retention '-', got {fields[1]!r}")
    # int() also takes a "+" sign; a cycle count is ASCII digits, and a "-" before it fails the range check
    # with the field's name
    text = number_text("".join(fields[1:]))
    if not all(f.removeprefix("-").isdigit() for f in fields[5:]):
        raise ValueError(text)
    retention = None if tech is Technology.SRAM else float(fields[1])
    values = [float(f) for f in fields[2:5]] + [int(f) for f in fields[5:]]
    try:
        return TechParams(tech, retention, *values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _table_from_lines(lines, where: str) -> TechTable:
    """Parse table rows, skipping blanks and # comments; errors name where:lineno."""
    entries = []
    origins = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        origin = f"{where}:{lineno}"
        if len(fields) != 7:
            raise ConfigError(f"{origin}: expected 7 fields, got {len(fields)}")
        try:
            entries.append(_parse_row(fields, origin))
        except ValueError:
            raise ConfigError(f"{origin}: malformed numeric field") from None
        origins.append(origin)
    return TechTable(entries, origins, where)


def load_tech_table(path: str) -> TechTable:
    """Parse a tech table file; duplicate keys and negative or non-finite values are errors.

    A file that cannot be opened, read or decoded as UTF-8 raises ConfigError.
    """
    with open_input("tech table", path) as fh:
        return _table_from_lines(fh, path)


def sample_tech_table() -> TechTable:
    """Load the bundled illustrative table (not measured device data)."""
    text = resources.files("sttsim.data").joinpath(SAMPLE_TABLE_RESOURCE).read_text()
    return _table_from_lines(text.splitlines(), "<sample>")


def unit_energy(params: TechParams, counters, wall_time: float) -> EnergyBreakdown:
    """Energy of one unit from its counters and the wall-clock duration.

    `counters` needs read_hits, write_hits, fills, and writebacks
    attributes.  Dynamic reads cover read hits plus the array reads that
    emit writebacks of dirty evicted blocks; dynamic writes cover write
    hits plus fills.
    """
    if wall_time < 0:
        raise ValueError("wall_time must be >= 0")
    dynamic_read = params.e_read * (counters.read_hits + counters.writebacks)
    dynamic_write = params.e_write * (counters.write_hits + counters.fills)
    leakage = params.p_leak * wall_time
    return EnergyBreakdown(dynamic_read, dynamic_write, leakage, dynamic_read + dynamic_write + leakage)

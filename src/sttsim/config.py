"""Experiment configuration files.

A config is a flat sectioned key-value file (INI syntax).  Recognized
sections and keys, all optional unless marked required:

[hierarchy]
    num_cores = 4                     ; default 1
    clock_hz = 1.9e9
    mem_latency_cycles = 100
    mem_energy_per_access_j = 2e-11

[l1i] / [l1d] / [l2]
    size_bytes = 32768                ; l1 default 32KB, l2 default 2MB
    associativity = 4                 ; l2 default 16
    line_size_bytes = 64
    technology = STTRAM               ; SRAM or STTRAM
    retention_s = 1e-3                ; required for STTRAM
    counter_states = 4
    refresh_on_read = false
    An [l2] section enables the shared L2; omit it for single-level runs.

[input]                                ; exactly one of trace / synthetic
    trace = path/to/file.trace

[synthetic]
    seed = 1
    num_cores =                        ; defaults to hierarchy num_cores
    accesses_per_core = 100000
    read_fraction = 0.67
    working_set_blocks = 1024
    line_size_bytes = 64
    gap = constant:20                  ; or loguniform:<lo>:<hi>
    pattern = zipf:1.2                 ; or sequential / uniform

[experiment]
    retentions = 1e-6 1e-5 1e-4 1e-3 1e-2 1e-1
    objective = energy                 ; energy, time, or edp
    profile_len = 10000
    base_retention = 1e-3              ; specialize baseline
    core_retentions = 1e-3 1e-2 1e-1 1e-3   ; asym per-core retentions
    tech_table = path/to/table.txt     ; default: bundled illustrative table
    out_dir = reports

The paths trace, tech_table and out_dir resolve from the config file's
directory; an absolute path is kept.  Any other section or key is refused,
and a key under [DEFAULT] counts as a key of every section, which inherits it.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .cache import CacheUnitConfig, _parse_technology
from .errors import ConfigError, number_text, open_input
from .explore import Objective, _check_retentions
from .hierarchy import HierarchyConfig
from .trace import SyntheticTraceSpec, parse_gap_spec, parse_pattern_spec

DEFAULT_RETENTIONS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


@dataclass
class ExperimentConfig:
    hierarchy: HierarchyConfig
    trace_path: str | None
    synthetic: SyntheticTraceSpec | None
    retentions: list[float]
    objective: Objective
    profile_len: int
    base_retention: float
    core_retentions: list[float]
    tech_table_path: str | None
    out_dir: str


def _get(section, key, conv, default):
    if section is None or key not in section:
        return default
    raw = section[key]
    try:
        if conv in (int, float, _floats):
            number_text(raw)
        if conv is bool:  # 1, yes, true or on, and 0, no, false or off, in any case
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return conv(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split()]


def _unit_config(section, defaults: dict) -> CacheUnitConfig:
    return CacheUnitConfig(
        size_bytes=_get(section, "size_bytes", int, defaults["size_bytes"]),
        associativity=_get(section, "associativity", int, defaults["associativity"]),
        line_size_bytes=_get(section, "line_size_bytes", int, defaults["line_size_bytes"]),
        technology=_get(section, "technology", _parse_technology, CacheUnitConfig.technology),
        retention_time=_get(section, "retention_s", float, CacheUnitConfig.retention_time),
        counter_states=_get(section, "counter_states", int, CacheUnitConfig.counter_states),
        refresh_on_read=_get(section, "refresh_on_read", bool, CacheUnitConfig.refresh_on_read),
    )


_UNIT_KEYS = "size_bytes associativity line_size_bytes technology retention_s counter_states refresh_on_read"
# the keys each section is read for, as the module docstring lists them
_KNOWN_KEYS = {
    "hierarchy": "num_cores clock_hz mem_latency_cycles mem_energy_per_access_j",
    "l1i": _UNIT_KEYS, "l1d": _UNIT_KEYS, "l2": _UNIT_KEYS,
    "input": "trace",
    "synthetic": "seed num_cores accesses_per_core read_fraction working_set_blocks line_size_bytes gap pattern",
    "experiment": "retentions objective profile_len base_retention core_retentions tech_table out_dir",
}

L1_DEFAULTS = {"size_bytes": 32 * 1024, "associativity": 4, "line_size_bytes": 64}
L2_DEFAULTS = {"size_bytes": 2 * 1024 * 1024, "associativity": 16, "line_size_bytes": 64}


def load_experiment_config(path: str) -> ExperimentConfig:
    """Load a config file; every ConfigError it raises names the file.

    Values are taken as written: `%` is a plain character, not interpolation.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    with open_input("config", path, also=(configparser.Error,)) as fh:
        parser.read_file(fh)
    try:
        return _config_from(parser, os.path.dirname(os.path.abspath(path)))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _config_from(parser: configparser.ConfigParser, base_dir: str) -> ExperimentConfig:
    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}]; expected {', '.join(_KNOWN_KEYS)}")
        for key in parser[name]:  # its own keys and those of [DEFAULT], which every section inherits
            if key not in _KNOWN_KEYS[name].split():
                where = f"[DEFAULT], inherited by [{name}]" if key in parser.defaults() else f"[{name}]"
                raise ConfigError(f"unknown key {key!r} in section {where}")

    def section(name):
        return parser[name] if parser.has_section(name) else None

    def resolve(p):  # relative to the config's directory; an absolute path is kept
        return os.path.join(base_dir, p)

    hier_sec = section("hierarchy")
    num_cores = _get(hier_sec, "num_cores", int, 1)
    hierarchy = HierarchyConfig(
        num_cores=num_cores,
        l1i=_unit_config(section("l1i"), L1_DEFAULTS),
        l1d=_unit_config(section("l1d"), L1_DEFAULTS),
        l2=_unit_config(section("l2"), L2_DEFAULTS) if parser.has_section("l2") else None,
        clock_hz=_get(hier_sec, "clock_hz", float, HierarchyConfig.clock_hz),
        mem_latency_cycles=_get(hier_sec, "mem_latency_cycles", int, HierarchyConfig.mem_latency_cycles),
        mem_energy_per_access=_get(hier_sec, "mem_energy_per_access_j", float, HierarchyConfig.mem_energy_per_access),
    )

    input_sec = section("input")
    trace_path = _get(input_sec, "trace", resolve, None)
    synth_sec = section("synthetic")
    synthetic = None
    if synth_sec is not None:
        synthetic = SyntheticTraceSpec(
            seed=_get(synth_sec, "seed", int, 1),
            num_cores=_get(synth_sec, "num_cores", int, num_cores),
            accesses_per_core=_get(synth_sec, "accesses_per_core", int, 100_000),
            read_fraction=_get(synth_sec, "read_fraction", float, 0.67),
            working_set_blocks=_get(synth_sec, "working_set_blocks", int, 1024),
            line_size_bytes=_get(synth_sec, "line_size_bytes", int, 64),
            gap=parse_gap_spec(_get(synth_sec, "gap", str, "constant:20")),
            pattern=parse_pattern_spec(_get(synth_sec, "pattern", str, "uniform")),
        )
    if (trace_path is None) == (synthetic is None):
        raise ConfigError("config must provide exactly one of [input] trace or a [synthetic] section")

    exp_sec = section("experiment")
    retentions = _check_retentions(_get(exp_sec, "retentions", _floats, DEFAULT_RETENTIONS))

    objective_text = _get(exp_sec, "objective", str, "energy").lower()
    try:
        objective = Objective(objective_text)
    except ValueError:
        raise ConfigError(f"objective must be energy, time, or edp, got {objective_text!r}") from None

    return ExperimentConfig(
        hierarchy=hierarchy,
        trace_path=trace_path,
        synthetic=synthetic,
        retentions=retentions,
        objective=objective,
        profile_len=_get(exp_sec, "profile_len", int, 10_000),
        base_retention=_get(exp_sec, "base_retention", float, 1e-3),
        core_retentions=_get(exp_sec, "core_retentions", _floats, []),
        tech_table_path=_get(exp_sec, "tech_table", resolve, None),
        out_dir=_get(exp_sec, "out_dir", resolve, resolve("reports")),
    )

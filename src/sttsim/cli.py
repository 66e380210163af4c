"""Command-line front end.

Subcommands: gen-trace, simulate, characterize, sweep, specialize, asym.
The five studies share one driver: it loads the config and the records,
the study builds all its tables, and only then does the driver write
them, so a study that fails writes no report.  Reports are
deterministic CSV files written atomically (temp file plus rename) with
floats formatted to 9 significant digits, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace

from . import characterize as chz
from . import explore
from .config import ExperimentConfig, load_experiment_config
from .energy import load_tech_table, sample_tech_table
from .errors import ConfigError, SttsimError, TraceRecordsError, number_text
from .hierarchy import simulate as run_simulation
from .trace import (
    SyntheticTraceSpec,
    check_records,
    generate_trace,
    parse_gap_spec,
    parse_pattern_spec,
    read_trace,
    write_trace,
)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


@contextmanager
def _atomic_path(path: str):
    """Yield a temp path beside `path`, creating the directory; rename it to `path` on success.

    An OSError on the way becomes a ConfigError naming `path`.
    """
    tmp = None
    try:
        out_dir = os.path.dirname(path) or "."
        os.makedirs(out_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
        os.close(fd)
        yield tmp
        os.replace(tmp, path)
    except OSError as exc:
        where = f" ({exc.filename})" if exc.filename not in (None, path, tmp) else ""
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}{where}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with _atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {path}")


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this subcommand requires --config <path>")
    cfg = load_experiment_config(args.config)
    if args.seed is not None and (args.trace or cfg.trace_path):
        source = f"--trace {args.trace}" if args.trace else f"[input] trace = {cfg.trace_path}"
        raise ConfigError(f"--seed seeds only a [synthetic] trace, but the input is a trace file ({source})")
    if args.trace:
        cfg.trace_path = args.trace
        cfg.synthetic = None
    if args.tech_table:
        cfg.tech_table_path = args.tech_table
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if args.seed is not None:
        cfg.synthetic = replace(cfg.synthetic, seed=args.seed)
    return cfg


def _load_table(cfg: ExperimentConfig):
    if cfg.tech_table_path:
        return load_tech_table(cfg.tech_table_path)
    return sample_tech_table()


def _load_records(cfg: ExperimentConfig):
    if cfg.trace_path:
        return read_trace(cfg.trace_path)
    return generate_trace(cfg.synthetic)


def _cmd_gen_trace(args) -> int:
    spec = SyntheticTraceSpec(
        seed=args.seed,
        num_cores=args.num_cores,
        accesses_per_core=args.accesses_per_core,
        read_fraction=args.read_fraction,
        working_set_blocks=args.working_set_blocks,
        line_size_bytes=args.line_size,
        gap=parse_gap_spec(args.gap),
        pattern=parse_pattern_spec(args.pattern),
    )
    records = generate_trace(spec)
    with _atomic_path(args.out) as tmp:
        write_trace(records, tmp)
    print(f"wrote {args.out} ({len(records)} records)")
    return 0


def _cmd_study(args) -> int:
    cfg = _load_config(args)
    records = _load_records(cfg)
    try:
        tables = args.study(cfg, records, args.jobs)
    except TraceRecordsError as exc:  # name where the records came from
        raise TraceRecordsError(f"{cfg.trace_path or args.config + ' [synthetic]'}: {exc}") from None
    # every table is built: only now write the reports
    for name, header, rows in tables:
        _write_csv(os.path.join(cfg.out_dir, name), header, rows)
    return 0


def _cmd_simulate(cfg, records, jobs):
    report = run_simulation(cfg.hierarchy, records, _load_table(cfg))

    header = [
        "unit",
        "accesses",
        "hits",
        "miss_compulsory",
        "miss_replacement",
        "miss_expiration",
        "writebacks",
        "e_read_J",
        "e_write_J",
        "e_leak_J",
        "e_total_J",
        "time_s",
    ]
    rows = []
    for name, u in report.units.items():
        rows.append(
            [
                name,
                u.accesses,
                u.hits,
                u.miss_compulsory,
                u.miss_replacement,
                u.miss_expiration,
                u.writebacks,
                u.energy.dynamic_read,
                u.energy.dynamic_write,
                u.energy.leakage,
                u.energy.total,
                report.exec_time_s,
            ]
        )
    rows.append(
        [
            "mem",
            report.mem_accesses,
            0,
            0,
            0,
            0,
            0,
            0.0,
            0.0,
            0.0,
            report.mem_energy_j,
            report.exec_time_s,
        ]
    )
    return [("simulate.csv", header, rows)]


def _cmd_characterize(cfg, records, jobs):
    clock = cfg.hierarchy.clock_hz
    records = check_records(records)  # admitted once: a trace file out of time order is sorted once

    ratio = chz.read_write_ratio(records)
    rows = [
        [f"core{core}", ld, st, frac]
        for core, (ld, st, frac) in sorted(ratio.per_core.items())
    ]
    rows.append(["aggregate", ratio.loads, ratio.stores, ratio.read_fraction])

    unit_cfg_for = {"data": cfg.hierarchy.l1d[0], "instr": cfg.hierarchy.l1i[0]}
    life_rows = []
    pers_rows = []
    curve_rows = []
    data = ratio.loads + ratio.stores
    streams = (["data"] if data else []) + (["instr"] if len(records) > data else [])
    for stream in streams:
        unit_cfg = unit_cfg_for[stream]
        hist = chz.block_lifetimes(records, unit_cfg, clock_hz=clock, stream=stream)
        labels = hist.bucket_labels(hist.bucket_edges)
        edges = (None,) + hist.bucket_edges + (None,)
        for measure, counts, quants in (
            ("fill_to_last_hit", hist.counts_last_hit, hist.quantiles_last_hit),
            ("fill_to_eviction", hist.counts_fill_to_eviction, hist.quantiles_fill_to_eviction),
        ):
            for i, (label, count) in enumerate(zip(labels, counts)):
                life_rows.append([stream, measure, "bucket", label, edges[i], edges[i + 1], count])
            for q in ("p50", "p90", "p99"):
                life_rows.append([stream, measure, "quantile", q, None, None, quants[q]])
            life_rows.append([stream, measure, "total", "residencies", None, None, hist.total_residencies])

        pers = chz.persistence(records, unit_cfg, clock_hz=clock, stream=stream)
        for thd in sorted(pers.fractions):
            pers_rows.append(
                [stream, thd, pers.reloaded_counts[thd], pers.unique_blocks, pers.total_fills, pers.fractions[thd]]
            )

        for pt in chz.expiration_curve(records, unit_cfg, cfg.retentions, clock_hz=clock, stream=stream):
            curve_rows.append(
                [stream, pt.retention_s, pt.expiration_misses, pt.total_misses, pt.miss_ratio_vs_unbounded]
            )

    return [
        ("rwratio.csv", ["scope", "loads", "stores", "read_fraction"], rows),
        ("lifetimes.csv", ["stream", "measure", "row_type", "label", "lo_s", "hi_s", "value"], life_rows),
        (
            "persistence.csv",
            ["stream", "thd", "persistent_blocks", "unique_blocks", "total_fills", "fraction"],
            pers_rows,
        ),
        (
            "expiration_curve.csv",
            ["stream", "retention_s", "expiration_misses", "total_misses", "miss_ratio_vs_unbounded"],
            curve_rows,
        ),
    ]


def _cmd_sweep(cfg, records, jobs):
    result = explore.sweep(
        records, cfg.hierarchy, cfg.retentions, cfg.objective, _load_table(cfg), jobs=jobs
    )
    header = [
        "technology",
        "retention_s",
        "cache_energy_J",
        "exec_time_s",
        "normalized_energy",
        "normalized_time",
        "total_misses",
        "expiration_misses",
        "mem_accesses",
        "best",
    ]
    rows = []
    for e in result.entries:
        rows.append(
            [
                e.technology,
                e.retention_s,
                e.report.cache_energy_j,
                e.report.exec_time_s,
                e.normalized_energy,
                e.normalized_time,
                e.report.total_misses(),
                e.report.total_expiration_misses(),
                e.report.mem_accesses,
                e.retention_s == result.best_retention,
            ]
        )
    return [("sweep.csv", header, rows)]


def _cmd_specialize(cfg, records, jobs):
    result = explore.specialize(
        records,
        cfg.hierarchy,
        cfg.retentions,
        cfg.base_retention,
        sample_len=min(cfg.profile_len, len(records)),
        objective=cfg.objective,
        tech_table=_load_table(cfg),
        jobs=jobs,
    )
    header = ["row_type", "retention_s", "sample_value", "full_value", "savings_vs_base"]
    rows = []
    for r in sorted(result.sample_values):
        rows.append(["candidate", r, result.sample_values[r], None, None])
    rows.append(["chosen", result.chosen_retention, result.sample_values[result.chosen_retention], result.full_value_chosen, result.savings_vs_base])
    base_savings = explore._ratio(0.0, result.full_value_base)  # the base against itself
    rows.append(["base", result.base_retention, None, result.full_value_base, base_savings])
    return [("specialize.csv", header, rows)]


def _cmd_asym(cfg, records, jobs):
    table = _load_table(cfg)
    if not cfg.core_retentions:
        raise ConfigError("asym requires core_retentions in the [experiment] section")
    records = check_records(records)  # admitted once, before it is split into threads
    threads = [records.select(bytes(map(core.__eq__, records.cores))) for core in sorted(set(records.cores))]
    result = explore.assign_asymmetric(
        threads,
        cfg.hierarchy,
        cfg.core_retentions,
        profile_len=cfg.profile_len,
        objective=cfg.objective,
        tech_table=table,
        jobs=jobs,
    )
    header = ["row_type", "thread", "core", "retention_s", "value"]
    rows = []
    for t, row in enumerate(result.cost_matrix):
        for c, v in enumerate(row):
            rows.append(["profiled_cost", t, c, result.core_retentions[c], v])
    for t in sorted(result.assignment):
        c = result.assignment[t]
        rows.append(["assignment", t, c, result.core_retentions[c], None])
    for r in sorted(result.homogeneous_totals):
        rows.append(["homogeneous_total", None, None, r, result.homogeneous_totals[r]])
    rows.append(["asymmetric_total", None, None, None, result.full_asym_total])
    rows.append(
        ["best_homogeneous", None, None, result.best_homogeneous_retention, result.best_homogeneous_total]
    )
    rows.append(["savings_vs_best_homogeneous", None, None, None, result.savings_vs_best_homogeneous])
    return [("asym.csv", header, rows)]


def _number(conv, least=None):
    """An argparse type: conv of a flag's text, under the rule of every number sttsim reads
    (errors.number_text), and at least `least` when given; argparse names conv in its usage error."""

    def parse(text: str):
        value = conv(number_text(text))
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = conv.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    study_flags = argparse.ArgumentParser(add_help=False)
    study_flags.add_argument("--config", help="experiment config file")
    study_flags.add_argument("--tech-table", help="technology parameter table (overrides config)")
    study_flags.add_argument("--trace", help="trace file (overrides config input)")
    study_flags.add_argument("--out-dir", help="report output directory (overrides config)")
    study_flags.add_argument(
        "--jobs",
        type=_number(int, least=1),
        default=1,
        help="parallel simulation workers for sweep, specialize and asym; simulate and characterize run serially",
    )
    study_flags.add_argument("--seed", type=_number(int), help="synthetic trace seed override")

    parser = argparse.ArgumentParser(prog="sttsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-trace", help="generate a synthetic trace")
    gen.add_argument("--seed", type=_number(int), default=1, help="trace seed")
    gen.add_argument("--num-cores", type=_number(int), default=1)
    gen.add_argument("--accesses-per-core", type=_number(int), default=1000)
    gen.add_argument("--read-fraction", type=_number(float), default=0.67)
    gen.add_argument("--working-set-blocks", type=_number(int), default=256)
    gen.add_argument("--line-size", type=_number(int), default=64)
    gen.add_argument("--gap", default="constant:10", help="constant:<cycles> or loguniform:<lo>:<hi>")
    gen.add_argument("--pattern", default="sequential", help="sequential, uniform, or zipf:<s>")
    gen.add_argument("--out", required=True, help="output trace path")
    gen.set_defaults(func=_cmd_gen_trace)

    for name, study, help_text in (
        ("simulate", _cmd_simulate, "run one hierarchy simulation"),
        ("characterize", _cmd_characterize, "read-write ratio, lifetimes, persistence, expiration curve"),
        ("sweep", _cmd_sweep, "retention sweep with SRAM normalization"),
        ("specialize", _cmd_specialize, "pick a retention by sampled profiling"),
        ("asym", _cmd_asym, "asymmetric-retention thread assignment"),
    ):
        p = sub.add_parser(name, parents=[study_flags], help=help_text)
        p.set_defaults(func=_cmd_study, study=study)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SttsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

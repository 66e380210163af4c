"""One benchmark repetition in a fresh interpreter.

run.py starts this script once per repetition with ``PYTHONPATH`` set to the
checkout's ``src``:

    python3 perfbench/study.py prepare --workload W --probe CPU:FILE... --gen-config G --trace-file F
    python3 perfbench/study.py study --workload W --probe CPU:FILE... --config C --spawned-at T [--traced]

``prepare`` runs before any timed repetition.  It imports sttsim, so the
package's bytecode is compiled once, and for characterize it generates the
trace and writes it with ``write_trace``.  ``study`` sets up (import, config,
tech table, trace), runs the workload's study on the in-memory trace, checks
the results and reports.  With ``--traced`` it also records spans around
every public call and, after the study, runs the probes that only the traced
pass makes: a serial ``simulate`` per sweep candidate and standalone
``CacheUnit`` replays.  The last line of standard output is one JSON object.

Timestamps come from CLOCK_MONOTONIC, which is shared by all processes, so
``--spawned-at`` (read by run.py just before it starts this process) lets
setup time include interpreter start-up.

Every time reported is scaled to the reference CPU speed with the samples of
the CPU speed probes (probe.py) named by ``--probe``: the process runs on the
first probed CPU, and a sweep's fork pool on all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import replace

import probe
import workloads as wl


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans (id, name, start, end, parent, cpus) around calls into sttsim."""

    def __init__(self, enabled: bool, speed: probe.CpuSpeed, cpus: list[int]) -> None:
        self.enabled = enabled
        self.speed = speed
        self.cpus = cpus
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, all_cpus: bool = False):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "start": clock(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "cpus": self.cpus if all_cpus else self.cpus[:1]}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = clock()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Time spent in spans called `name`, at the reference CPU speed."""
        return sum(self.speed.scaled(s["start"], s["end"], s["cpus"]) for s in self.spans if s["name"] == name)


def fmt(value) -> str:
    """Format one result field as the CLI's CSV reports do (floats at 9 digits)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def digest(rows: list[list]) -> str:
    text = "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


@contextmanager
def on_cpus(cpus: list[int]):
    """Let this process, and the pool workers it forks, run on `cpus`."""
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus[:1])


# -- results as rows: every simulated statistic, formatted for the digest ----

# busy_cycles is left out: no report shows it and ROADMAP item 4 may delete it
UNIT_FIELDS = (
    "name", "technology", "retention_s", "accesses", "read_hits", "write_hits",
    "miss_compulsory", "miss_replacement", "miss_expiration", "fills", "writebacks",
    "evictions_replacement", "evictions_expiration",
)


def report_rows(label, report) -> list[list]:
    rows = [[label, "system", report.exec_time_s, report.mem_reads, report.mem_writes,
             report.mem_energy_j, report.cache_energy_j, report.total_energy_j,
             report.counter_overhead_bytes, " ".join(map(str, report.core_completion_cycles))]]
    for u in report.units.values():
        rows.append([label, "unit"] + [getattr(u, f) for f in UNIT_FIELDS] + list(u.energy))
    return rows


def sweep_rows(result, labels) -> list[list]:
    rows = []
    for label, e in zip(labels, result.entries):
        rows.append([label, "sweep", e.technology, e.retention_s, e.normalized_energy,
                     e.normalized_time, e.retention_s == result.best_retention])
        rows += report_rows(label, e.report)
    return rows


def characterize_rows(ratio, hist, pers, curve) -> list[list]:
    rows = [["rwratio", core, ld, st, frac] for core, (ld, st, frac) in sorted(ratio.per_core.items())]
    rows.append(["rwratio", "aggregate", ratio.loads, ratio.stores, ratio.read_fraction])
    rows.append(["lifetimes", "last_hit", *hist.counts_last_hit, *hist.quantiles_last_hit.values()])
    rows.append(["lifetimes", "eviction", *hist.counts_fill_to_eviction,
                 *hist.quantiles_fill_to_eviction.values()])
    rows.append(["lifetimes", "residencies", hist.total_residencies])
    for thd in sorted(pers.fractions):
        rows.append(["persistence", thd, pers.reloaded_counts[thd], pers.fractions[thd]])
    rows.append(["persistence", "blocks", pers.unique_blocks, pers.total_fills])
    for pt in curve:
        rows.append(["curve", pt.retention_s, pt.expiration_misses, pt.total_misses,
                     pt.miss_ratio_vs_unbounded])
    return rows


# -- output checks -------------------------------------------------------------


def unit_failures(where: str, u) -> list[str]:
    out = []
    if u.read_hits + u.write_hits + u.misses != u.accesses:
        out.append(f"{where}: hits + misses != accesses")
    if u.miss_compulsory + u.miss_replacement + u.miss_expiration != u.misses:
        out.append(f"{where}: miss classes do not sum to misses")
    return out


def report_failures(label: str, report) -> list[str]:
    out = []
    for name, u in report.units.items():
        out += unit_failures(f"{label}/{name}", u)
    if "l2" in report.units:
        flow = sum(u.misses + u.writebacks for name, u in report.units.items() if name != "l2")
        if report.units["l2"].accesses != flow:
            out.append(f"{label}: L2 accesses {report.units['l2'].accesses} != L1 misses + writebacks {flow}")
    return out


def sweep_failures(result, labels, retentions) -> list[str]:
    out = []
    if len(result.entries) != len(labels):
        out.append(f"sweep has {len(result.entries)} rows, expected {len(labels)}")
    sram = result.entries[0]
    if sram.technology != "SRAM" or sram.normalized_energy != 1.0 or sram.normalized_time != 1.0:
        out.append("SRAM row does not normalize to exactly 1.0")
    marked = [e for e in result.entries if e.retention_s == result.best_retention]
    if len(marked) != 1 or result.best_retention not in retentions:
        out.append(f"{len(marked)} rows marked best, expected exactly one swept retention")
    for label, e in zip(labels, result.entries):
        out += report_failures(label, e.report)
    return out


# -- the study -----------------------------------------------------------------


def run_sweep(sttsim, work, cfg, table, records, tracer, layer):
    """Run the sweep and build its rows; return the rows and a function that,
    called after the clock stops, gives the replayed records and the failed checks."""
    labels = work.candidates()
    cpu0 = children_cpu_s()
    with on_cpus(tracer.cpus), tracer.span("explore.sweep", all_cpus=True):
        result = sttsim.sweep(records, cfg.hierarchy, cfg.retentions, cfg.objective, table, jobs=work.jobs)
    if tracer.enabled:
        span = tracer.spans[-1]
        # the pool workers' CPU seconds, scaled by the speed of the CPUs they ran on
        layer["explore.children_cpu_s"] = (children_cpu_s() - cpu0) * tracer.speed.speed(
            span["start"], span["end"], span["cpus"])
    rows = sweep_rows(result, labels)
    return rows, lambda: (len(records) * len(labels), sweep_failures(result, labels, cfg.retentions))


def run_characterize(sttsim, work, cfg, table, records, tracer, layer):
    """Run the four analyses and build their rows; returns like run_sweep."""
    unit_cfg = cfg.hierarchy.l1d[0]
    clock_hz = cfg.hierarchy.clock_hz
    with tracer.span("characterize.rwratio"):
        ratio = sttsim.read_write_ratio(records)
    with tracer.span("characterize.lifetimes"):
        hist = sttsim.block_lifetimes(records, unit_cfg, clock_hz=clock_hz, stream="data")
    with tracer.span("characterize.persistence"):
        pers = sttsim.persistence(records, unit_cfg, clock_hz=clock_hz, stream="data")
    with tracer.span("characterize.curve"):
        curve = sttsim.expiration_curve(records, unit_cfg, cfg.retentions, clock_hz=clock_hz, stream="data")
    rows = characterize_rows(ratio, hist, pers, curve)

    def finish():
        data = sum(1 for r in records if r[2])
        out = []
        if ratio.loads + ratio.stores != data:
            out.append(f"loads + stores {ratio.loads + ratio.stores} != data records {data}")
        if len(curve) != len(cfg.retentions):
            out.append("expiration curve has the wrong number of points")
        # lifetimes + persistence + unbounded baseline + one replay per curve point
        return data * (3 + len(cfg.retentions)), out

    return rows, finish


# -- probes of the traced pass, after the mirrored study -------------------------


def probe_hierarchy(sttsim, work, cfg, table, records, tracer, layer, sweep_rows_digest):
    from sttsim.explore import with_technology

    configs = [with_technology(cfg.hierarchy, sttsim.Technology.SRAM, None)]
    configs += [with_technology(cfg.hierarchy, sttsim.Technology.STTRAM, r) for r in cfg.retentions]
    reports = []
    for label, hcfg in zip(work.candidates(), configs):
        name = f"hierarchy.simulate.{label}"
        with tracer.span(name):
            rep = sttsim.simulate(hcfg, records, table)
        reports.append(rep)
        sec = tracer.seconds(name)
        l1 = [u for n, u in rep.units.items() if n != "l2"]
        layer[f"hierarchy.simulate_s.{label}"] = sec
        layer[f"hierarchy.accesses_per_s.{label}"] = len(records) / sec
        layer[f"hierarchy.l1_miss_ratio.{label}"] = sum(u.misses for u in l1) / sum(u.accesses for u in l1)
        layer[f"hierarchy.expirations.{label}"] = sum(u.evictions_expiration for u in rep.units.values())
        layer[f"hierarchy.mem_writes.{label}"] = rep.mem_writes
    serial = sum(layer[f"hierarchy.simulate_s.{label}"] for label in work.candidates())
    layer["explore.serial_sum_s"] = serial
    layer["explore.sweep_s"] = tracer.seconds("explore.sweep")
    # 1.0 when the pool's workers are busy all the time with no overhead
    layer["explore.pool_efficiency"] = serial / (work.jobs * layer["explore.sweep_s"])
    failures = []
    for label, rep in zip(work.candidates(), reports):
        failures += report_failures(f"serial/{label}", rep)
    serial_rows = [row for label, rep in zip(work.candidates(), reports) for row in report_rows(label, rep)]
    if digest(serial_rows) != sweep_rows_digest:
        failures.append("serial per-candidate simulate differs from the sweep's reports")
    return failures


def probe_cache(sttsim, cfg, records, tracer, layer):
    """Replay core 0's data stream through one standalone L1D at SRAM and the shortest retention."""
    base = cfg.hierarchy.l1d[0]
    mask = ~(base.line_size_bytes - 1)
    clock_hz = cfg.hierarchy.clock_hz
    stream = [(r[3] & mask, r[2] == 2, r[1] / clock_hz) for r in records if r[0] == 0 and r[2]]
    failures = []
    units = {}
    for label, tech, retention in (
        ("sram", sttsim.Technology.SRAM, None),
        ("short", sttsim.Technology.STTRAM, min(cfg.retentions)),
    ):
        unit = sttsim.CacheUnit(replace(base, technology=tech, retention_time=retention), "probe")
        access = unit.access
        with tracer.span(f"cache.replay.{label}"):
            for addr, is_write, now in stream:
                access(addr, is_write, now)
        units[label] = unit
        layer[f"cache.access_s.{label}"] = tracer.seconds(f"cache.replay.{label}")
        layer[f"cache.hit_ratio.{label}"] = unit.hits / unit.accesses
        failures += unit_failures(f"cache/{label}", unit)
    layer["cache.expiry_overhead"] = layer["cache.access_s.short"] / layer["cache.access_s.sram"]
    layer["cache.expirations.short"] = units["short"].evictions_expiration
    layer["cache.writebacks.short"] = units["short"].writebacks
    return failures


# -- entry points ------------------------------------------------------------------


def prepare(args, speed, cpus) -> dict:
    tracer = Tracer(True, speed, cpus)
    with tracer.span("import.sttsim"):
        import sttsim
    out = {"sttsim": sttsim.__file__, "layer": {}, "spans": tracer.spans}
    if args.gen_config:
        cfg = sttsim.load_experiment_config(args.gen_config)
        with tracer.span("trace.generate"):
            records = sttsim.generate_trace(cfg.synthetic)
        with tracer.span("trace.write"):
            sttsim.write_trace(records, args.trace_file)
        gen_s = tracer.seconds("trace.generate")
        out["layer"] = {
            "trace.generate_s": gen_s,
            "trace.generate_rec_per_s": len(records) / gen_s,
            "trace.write_s": tracer.seconds("trace.write"),
        }
        out["trace_sha256"] = file_sha256(args.trace_file)
    return out


def study(args, speed, cpus) -> dict:
    work = wl.WORKLOADS[args.workload]
    tracer = Tracer(args.traced, speed, cpus)
    layer: dict[str, float] = {}
    with tracer.span("import.sttsim"):
        import numpy
        import sttsim
    with tracer.span("config.load"):
        cfg = sttsim.load_experiment_config(args.config)
    with tracer.span("energy.table"):
        table = sttsim.sample_tech_table()
    if cfg.synthetic is not None:
        with tracer.span("trace.generate"):
            records = sttsim.generate_trace(cfg.synthetic)
    else:
        with tracer.span("trace.read"):
            records = sttsim.read_trace(cfg.trace_path)
    ready = clock()

    run = run_sweep if work.study == "sweep" else run_characterize
    with tracer.span("study"):
        rows, finish = run(sttsim, work, cfg, table, records, tracer, layer)
    done = clock()
    rss = peak_rss_mb()

    work_done, failures = finish()
    result_digest = digest(rows)
    if args.traced:
        for name in ("import.sttsim", "config.load", "energy.table"):
            layer[name + "_s"] = tracer.seconds(name)
        step = "trace.generate" if cfg.synthetic is not None else "trace.read"
        layer[step + "_s"] = tracer.seconds(step)
        layer[step + "_rec_per_s"] = len(records) / tracer.seconds(step)
        layer["trace.records"] = len(records)
        if work.study == "sweep":
            sweep_digest = digest([row for row in rows if row[1] != "sweep"])
            failures += probe_hierarchy(sttsim, work, cfg, table, records, tracer, layer, sweep_digest)
        else:
            for name in ("rwratio", "lifetimes", "persistence", "curve"):
                layer[f"characterize.{name}_s"] = tracer.seconds(f"characterize.{name}")
        failures += probe_cache(sttsim, cfg, records, tracer, layer)

    return {
        "setup_s": speed.scaled(args.spawned_at, ready, cpus[:1]),
        "study_s": speed.scaled(ready, done, cpus),
        "setup_wall_s": ready - args.spawned_at,
        "study_wall_s": done - ready,
        "cpu_speed": speed.speed(ready, done, cpus),
        "work": work_done,
        "peak_rss_mb": rss,
        "digest": result_digest,
        "failures": failures,
        "layer": layer,
        "spans": tracer.spans,
        "provenance": {
            "sttsim": sttsim.__file__,
            "numpy": numpy.__version__,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "study"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--config")
    parser.add_argument("--gen-config")
    parser.add_argument("--trace-file")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="append", required=True, metavar="CPU:FILE",
                        help="a CPU and its speed probe's file; the first is the CPU this process runs on")
    args = parser.parse_args()
    files = {int(cpu): path for cpu, path in (p.split(":", 1) for p in args.probe)}
    cpus = list(files)
    os.sched_setaffinity(0, cpus[:1])
    speed = probe.CpuSpeed(files)
    out = prepare(args, speed, cpus) if args.mode == "prepare" else study(args, speed, cpus)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

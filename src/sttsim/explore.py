"""Design-space studies: retention sweeps, specialization, asymmetric cores.

Each study submits its simulations as (trace, config) tasks; a task that
repeats an earlier one runs once.  With jobs > 1 the study forks up to
jobs - 1 children and computes tasks beside them; the results come back in
task order, so reports are identical to a serial run.  A sweep simulates in
full only the candidates that could expire a block before the run ends; it
builds the report of every other candidate from its SRAM run, replaying the
record loop's timing over the levels that run recorded, and simulates there
in full any candidate whose replayed completion time could expire a block
(see hierarchy._derived_report).
Objective values are total cache energy (joules), execution time (seconds),
or their product; memory energy is reported separately and excluded from
objectives.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from array import array
from dataclasses import dataclass, replace

from .cache import CacheUnitConfig, Technology
from .energy import TechTable, sample_tech_table
from .errors import ConfigError, TraceRecordsError
from .hierarchy import HierarchyConfig, SimReport, _cannot_expire, _simulate
from .trace import Trace, check_records


class Objective(enum.Enum):
    ENERGY = "energy"
    TIME = "time"
    EDP = "edp"  # energy-delay product, an extension beyond energy/latency


def objective_value(report: SimReport, objective: Objective) -> float:
    if objective is Objective.ENERGY:
        return report.cache_energy_j
    if objective is Objective.TIME:
        return report.exec_time_s
    return report.cache_energy_j * report.exec_time_s


def with_technology(cfg: HierarchyConfig, technology: Technology, retention: float | None) -> HierarchyConfig:
    """The same hierarchy with every cache unit's technology substituted."""

    def conv(unit: CacheUnitConfig) -> CacheUnitConfig:
        return replace(unit, technology=technology, retention_time=retention)

    return replace(
        cfg,
        l1i=tuple(conv(u) for u in cfg.l1i),
        l1d=tuple(conv(u) for u in cfg.l1d),
        l2=conv(cfg.l2) if cfg.l2 is not None else None,
    )


# -- parallel execution plumbing -------------------------------------------
#
# A study forks its own workers: the children inherit the submitted traces,
# so large traces are never pickled, and an array column holds no object per
# record, so reading one copies no page.  The caller computes tasks beside
# them instead of waiting.  pickle is imported only where a study forks; a
# pool from multiprocessing would cost its import (socket, selectors,
# signal), its start-up and its teardown on every forking study.


def _token(i: int) -> bytes:
    return i.to_bytes(4, "little")


def _fork_map(fn, items: list, procs: int) -> list:
    """[fn(item) for item in items], computed by this process and procs - 1 forked children.

    The processes claim item indices one at a time, whoever is free next,
    from one pipe that holds a single index at a time: the claimer of i
    puts i + 1 back before it calls fn.  An index past the last item stops
    its reader, which puts it back for the next; a process whose call
    raises puts one in too, so that the others stop after their current
    item.  So the pipe never holds more than procs indices, whatever the
    item count.  Each child pickles its (index, result) pairs, or the
    exception that stopped it, into a pipe of its own, then leaves with
    os._exit, which runs no atexit hook and flushes no inherited stdio.
    The caller raises the first exception it meets, its own or a child's
    in fork order, after killing the children still running; it reaps
    every child in any case.
    """
    import pickle

    n = len(items)
    claim_r, claim_w = os.pipe()

    def claims():
        while (i := int.from_bytes(os.read(claim_r, 4), "little")) < n:
            os.write(claim_w, _token(i + 1))
            yield i
        os.write(claim_w, _token(i))

    os.write(claim_w, _token(0))
    children = {}  # pid -> read end of its pipe, until it is reaped
    try:
        for _ in range(procs - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    try:
                        out = [(i, fn(items[i])) for i in claims()]
                    except BaseException as exc:
                        os.write(claim_w, _token(n))
                        out = exc
                    with open(w, "wb") as pipe:
                        pickle.dump(out, pipe)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = r
            os.close(w)
        results = {i: fn(items[i]) for i in claims()}
        for pid, r in list(children.items()):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(children.pop(pid))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status or not data:
                raise ChildProcessError(f"worker {pid} exited with status {status} and no result")
            out = pickle.loads(data)
            if isinstance(out, BaseException):
                raise out
            results.update(out)
        return [results[i] for i in range(n)]
    finally:
        if children:
            import signal

            for pid, r in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(r)
        os.close(claim_r)
        os.close(claim_w)


def _run_sims(
    tasks: list[tuple[int, HierarchyConfig]], traces: list, table: TechTable | None, jobs: int, derive=()
) -> tuple[list[SimReport], tuple]:
    """Simulate each distinct (trace index, config) task once.

    The caller has admitted each trace for its tasks' num_cores, which puts
    it in time order (see trace.check_records), or sliced an admitted trace.
    Returns the report of every task, in task order, and the report of each
    config in `derive`, built from the run of tasks[0] (see
    hierarchy._derived_report).  The derivations run in the process of that
    run, beside the other tasks.  With jobs > 1, where os.fork exists, the
    distinct tasks run in min(jobs, tasks) processes, this one included (see
    _fork_map).
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be an int of at least 1, got {jobs!r}")
    if table is None:
        table = sample_tech_table()
    unique = [(idx, cfg, ()) for idx, cfg in dict.fromkeys(tasks)]
    if derive:
        unique[0] = (*unique[0][:2], tuple(derive))

    def run(task):
        return _simulate(task[1], traces[task[0]], table, task[2])

    procs = min(jobs, len(unique))
    if procs > 1 and hasattr(os, "fork"):
        results = _fork_map(run, unique, procs)
    else:
        results = list(map(run, unique))
    done = {task[:2]: result[0] for task, result in zip(unique, results)}
    return [done[t] for t in tasks], results[0][1] if results else ()


# -- retention sweep ---------------------------------------------------------


@dataclass
class SweepEntry:
    technology: str
    retention_s: float | None
    report: SimReport
    normalized_energy: float | None  # None where the SRAM baseline is 0
    normalized_time: float | None


@dataclass
class SweepResult:
    entries: list[SweepEntry]  # SRAM baseline first, then retentions ascending
    best_retention: float
    objective: Objective

    @property
    def sram(self) -> SweepEntry:
        return self.entries[0]

    def entry_for(self, retention: float | None) -> SweepEntry:
        for e in self.entries:
            if e.retention_s == retention:
                return e
        raise KeyError(retention)


def _best_retention(values: dict[float, float]) -> float:
    """The retention with the least objective value, ties broken toward the longer retention."""
    return min(values, key=lambda r: (values[r], -r))


def _check_retentions(retentions) -> list[float]:
    """The retentions sorted; ConfigError unless they are distinct, finite and positive."""
    rets = sorted(retentions)
    if not rets:
        raise ConfigError("retentions must list at least one retention")
    if any(not 0 < r < math.inf for r in rets):
        raise ConfigError(f"retentions must be finite and positive, got {rets}")
    if len(set(rets)) != len(rets):
        raise ConfigError(f"duplicate retention values in {rets}")
    return rets


def _ratio(value: float, baseline: float) -> float | None:
    """value / baseline, or None when the baseline is 0: a ratio without a baseline is not a number."""
    return value / baseline if baseline else None


def sweep(
    trace,
    template: HierarchyConfig,
    retentions,
    objective: Objective = Objective.ENERGY,
    tech_table: TechTable | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Simulate an SRAM baseline plus each retention applied at all levels.

    Normalized columns are ratios to the SRAM run of identical geometry
    and trace (the SRAM row normalizes to exactly 1.0), or None where the
    SRAM value is 0.  The best retention is the objective argmin among the
    swept retentions, ties broken toward the longer retention.
    """
    rets = _check_retentions(retentions)
    records = check_records(trace, template.num_cores)
    sram_cfg = with_technology(template, Technology.SRAM, None)
    configs = [with_technology(template, Technology.STTRAM, r) for r in rets]
    # a candidate that can expire a block by the last record's timestamp, a
    # lower bound on its completion time, runs in full beside the SRAM
    # baseline; the others are derived from the SRAM run, in its process
    last = records.stamps[-1]
    derived = [c for c in configs if _cannot_expire(c, last)]
    full = [sram_cfg] + [c for c in configs if c not in derived]
    full_reports, derived_reports = _run_sims([(0, c) for c in full], [records], tech_table, jobs, derive=derived)
    done = dict(zip(full, full_reports)) | dict(zip(derived, derived_reports))
    reports = [done[c] for c in [sram_cfg, *configs]]

    energy, time = reports[0].cache_energy_j, reports[0].exec_time_s  # the SRAM baseline
    entries = [
        SweepEntry("STTRAM" if r else "SRAM", r, rep, _ratio(rep.cache_energy_j, energy), _ratio(rep.exec_time_s, time))
        for r, rep in zip([None, *rets], reports)
    ]

    best = _best_retention({r: objective_value(rep, objective) for r, rep in zip(rets, reports[1:])})
    return SweepResult(entries=entries, best_retention=best, objective=objective)


# -- retention specialization via sampling -----------------------------------


@dataclass
class SpecializeResult:
    chosen_retention: float
    sample_values: dict[float, float]  # retention -> objective on the profile interval
    full_value_chosen: float
    full_value_base: float
    savings_vs_base: float | None  # fraction; negative when sampling mispredicts, None when the base is 0
    base_retention: float
    sample_len: int
    objective: Objective


def specialize(
    trace,
    template: HierarchyConfig,
    retentions,
    base_retention: float,
    sample_len: int,
    objective: Objective = Objective.ENERGY,
    tech_table: TechTable | None = None,
    jobs: int = 1,
) -> SpecializeResult:
    """Pick a retention by simulating a cold-cache profile prefix per candidate.

    The prefix is the first sample_len records in (timestamp, core_id)
    order, whatever the input's line order.  The chosen retention then runs
    the full trace; savings are reported against running the full trace at
    base_retention (and may be negative for adversarial phase-change
    workloads).
    """
    rets = _check_retentions(retentions)
    records = check_records(trace, template.num_cores)
    if sample_len < 1:
        raise ConfigError("sample_len must be >= 1")
    if sample_len > len(records):
        raise ConfigError(f"sample_len {sample_len} exceeds trace length {len(records)}")

    prefix = records[:sample_len]
    tasks = [(0, with_technology(template, Technology.STTRAM, r)) for r in rets]
    sample_reports, _ = _run_sims(tasks, [prefix], tech_table, jobs)
    sample_values = {r: objective_value(rep, objective) for r, rep in zip(rets, sample_reports)}
    chosen = _best_retention(sample_values)

    full_tasks = [
        (0, with_technology(template, Technology.STTRAM, chosen)),
        (0, with_technology(template, Technology.STTRAM, base_retention)),
    ]
    (full_chosen, full_base), _ = _run_sims(full_tasks, [records], tech_table, jobs)
    v_chosen = objective_value(full_chosen, objective)
    v_base = objective_value(full_base, objective)
    savings = _ratio(v_base - v_chosen, v_base)
    return SpecializeResult(
        chosen_retention=chosen,
        sample_values=sample_values,
        full_value_chosen=v_chosen,
        full_value_base=v_base,
        savings_vs_base=savings,
        base_retention=base_retention,
        sample_len=sample_len,
        objective=objective,
    )


# -- asymmetric retention assignment ------------------------------------------


@dataclass
class AssignmentResult:
    assignment: dict[int, int]  # thread -> core
    cost_matrix: list[list[float]]  # [thread][core] objective on the profile interval
    profiled_total: float
    full_asym_total: float
    homogeneous_totals: dict[float, float]  # retention -> full-run total
    best_homogeneous_retention: float
    best_homogeneous_total: float
    savings_vs_best_homogeneous: float | None  # None when the best homogeneous total is 0
    core_retentions: list[float]
    profile_len: int
    objective: Objective


def _single_core_config(template: HierarchyConfig, retention: float) -> HierarchyConfig:
    """One core with the template's L1 geometry at the given retention, no L2.

    Asymmetry is evaluated at the private L1s; threads on different cores
    share nothing, so each (thread, core) pair simulates independently.
    """
    l1i = replace(template.l1i[0], technology=Technology.STTRAM, retention_time=retention)
    l1d = replace(template.l1d[0], technology=Technology.STTRAM, retention_time=retention)
    return replace(template, num_cores=1, l1i=l1i, l1d=l1d, l2=None)


def _rebase_core(records: Trace) -> Trace:
    """The records with every core id set to 0."""
    if not any(records.cores):
        return records
    return Trace(array("B", [0]) * len(records), records.stamps, records.kinds, records.addresses)


def assign_asymmetric(
    thread_traces: list,
    template: HierarchyConfig,
    core_retentions,
    profile_len: int,
    objective: Objective = Objective.ENERGY,
    tech_table: TechTable | None = None,
    jobs: int = 1,
) -> AssignmentResult:
    """Match threads to asymmetric-retention cores by profiled cost.

    Profiles every (thread, core) pair on the thread's first profile_len
    accesses in time order, from cold caches, searches all assignments
    exhaustively for the minimum total cost, then runs every thread's full
    trace under the plan.  The comparison baseline is the best single retention from the
    core set applied to all threads.
    """
    thread_traces = list(thread_traces)
    core_rets = [float(r) for r in core_retentions]
    nthreads = len(thread_traces)
    ncores = len(core_rets)
    if nthreads == 0:
        raise TraceRecordsError("assign_asymmetric requires at least one thread trace")
    if nthreads > ncores:
        raise TraceRecordsError(f"thread count {nthreads} exceeds core count {ncores} (one thread per core)")
    if ncores > 8:
        raise ConfigError("exhaustive assignment supports at most 8 cores")
    if profile_len < 1:
        raise ConfigError("profile_len must be >= 1")
    if any(not r > 0 for r in core_rets):
        raise ConfigError("core retentions must be positive")

    traces = [_rebase_core(check_records(t)) for t in thread_traces]
    prefixes = [t[:profile_len] for t in traces]

    pair_tasks = []
    for t in range(nthreads):
        for c in range(ncores):
            pair_tasks.append((t, _single_core_config(template, core_rets[c])))
    pair_reports, _ = _run_sims(pair_tasks, prefixes, tech_table, jobs)
    cost = [
        [objective_value(pair_reports[t * ncores + c], objective) for c in range(ncores)]
        for t in range(nthreads)
    ]

    best_perm = None
    best_total = None
    for perm in itertools.permutations(range(ncores), nthreads):
        total = sum(cost[t][perm[t]] for t in range(nthreads))
        if best_total is None or total < best_total:
            best_total = total
            best_perm = perm
    assignment = {t: best_perm[t] for t in range(nthreads)}

    full_tasks = [(t, _single_core_config(template, core_rets[assignment[t]])) for t in range(nthreads)]
    distinct_rets = sorted(set(core_rets))
    for r in distinct_rets:
        full_tasks += [(t, _single_core_config(template, r)) for t in range(nthreads)]
    full_reports, _ = _run_sims(full_tasks, traces, tech_table, jobs)

    asym_total = sum(objective_value(rep, objective) for rep in full_reports[:nthreads])
    homogeneous = {}
    pos = nthreads
    for r in distinct_rets:
        homogeneous[r] = sum(objective_value(rep, objective) for rep in full_reports[pos : pos + nthreads])
        pos += nthreads

    best_h_ret = _best_retention(homogeneous)
    best_h_total = homogeneous[best_h_ret]
    savings = _ratio(best_h_total - asym_total, best_h_total)
    return AssignmentResult(
        assignment=assignment,
        cost_matrix=cost,
        profiled_total=best_total,
        full_asym_total=asym_total,
        homogeneous_totals=homogeneous,
        best_homogeneous_retention=best_h_ret,
        best_homogeneous_total=best_h_total,
        savings_vs_best_homogeneous=savings,
        core_retentions=core_rets,
        profile_len=profile_len,
        objective=objective,
    )

import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import random_trace
from sttsim import (
    AccessKind,
    AccessRecord,
    CacheUnitConfig,
    ConfigError,
    HierarchyConfig,
    Objective,
    TechParams,
    TechTable,
    Technology,
    assign_asymmetric,
    generate_trace,
    load_experiment_config,
    read_trace,
    sample_tech_table,
    simulate,
    specialize,
    sweep,
    tick_cycles,
)
from sttsim import explore
from sttsim import hierarchy as hierarchy_mod
from sttsim import trace as trace_mod
from sttsim.explore import objective_value, with_technology

SAMPLE_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "sample_configs")

TABLE = sample_tech_table()
CLOCK = 1.9e9
MS = 1e-3


def cyc(seconds):
    return int(round(seconds * CLOCK))


def template(num_cores=1):
    l1 = CacheUnitConfig(32 * 1024, 4, 64, Technology.SRAM)
    return HierarchyConfig(num_cores=num_cores, l1i=l1, l1d=l1, clock_hz=CLOCK)


def loop_thread(core, num_blocks, reuse_gap_s, duration_s, kind=AccessKind.LOAD, base_block=0):
    """Cycle over num_blocks so each block is re-referenced every reuse_gap_s."""
    gap = reuse_gap_s / num_blocks
    records = []
    t = 0.0
    i = 0
    while t < duration_s:
        block = base_block + (i % num_blocks)
        records.append(AccessRecord(core, cyc(t), kind, block * 64))
        t += gap
        i += 1
    return records


def burst_trace(num_blocks, refs_per_block, intra_gap_s, stagger_s):
    """Each block gets one short burst of loads and is never touched again."""
    records = []
    for b in range(num_blocks):
        start = b * stagger_s
        for k in range(refs_per_block):
            records.append(AccessRecord(0, cyc(start + k * intra_gap_s), AccessKind.LOAD, b * 64))
    records.sort(key=lambda r: (r.timestamp, r.core_id))
    return records


class TestSweep:
    def test_sram_row_normalizes_to_exactly_one(self):
        trace = loop_thread(0, 16, 1 * MS, 20 * MS)
        result = sweep(trace, template(), [1e-3], tech_table=TABLE)
        assert result.sram.normalized_energy == 1.0
        assert result.sram.normalized_time == 1.0
        assert result.sram.technology == "SRAM"

    def test_row_order_and_count(self):
        trace = loop_thread(0, 16, 1 * MS, 20 * MS)
        result = sweep(trace, template(), [1e-2, 1e-4, 1e-3], tech_table=TABLE)
        assert [e.retention_s for e in result.entries] == [None, 1e-4, 1e-3, 1e-2]

    def test_gap_bounded_trace_identical_misses_cheaper_retention_wins(self):
        # single-burst blocks with all gaps far below both retentions: the
        # two runs see identical hit/miss streams, so the lower per-access
        # write energy decides
        trace = burst_trace(num_blocks=200, refs_per_block=3, intra_gap_s=1e-4, stagger_s=5e-5)
        result = sweep(trace, template(), [1e-3, 1e-2], tech_table=TABLE)
        a = result.entry_for(1e-3).report
        b = result.entry_for(1e-2).report
        assert a.total_misses() == b.total_misses()
        assert a.total_expiration_misses() == 0 and b.total_expiration_misses() == 0
        assert result.best_retention == 1e-3

    def test_mixed_reuse_gaps_prefer_millisecond_retentions(self):
        fast = loop_thread(0, 8, 2 * MS, 200 * MS)
        slow = loop_thread(0, 8, 20 * MS, 200 * MS, base_block=64)
        trace = sorted(fast + slow, key=lambda r: (r.timestamp, r.core_id))
        retentions = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        result = sweep(trace, template(), retentions, tech_table=TABLE)
        assert result.best_retention >= 1e-3
        assert result.best_retention in (1e-2, 1e-1)

    def test_retention_permutation_invariance(self):
        trace = loop_thread(0, 8, 2 * MS, 50 * MS)
        rets = [1e-4, 1e-3, 1e-2]
        results = [sweep(trace, template(), list(p), tech_table=TABLE) for p in itertools.permutations(rets)]
        first = results[0]
        for r in results[1:]:
            assert [e.retention_s for e in r.entries] == [e.retention_s for e in first.entries]
            assert [e.report.cache_energy_j for e in r.entries] == [
                e.report.cache_energy_j for e in first.entries
            ]
            assert r.best_retention == first.best_retention

    def test_duplicate_retentions_rejected(self):
        with pytest.raises(ConfigError):
            sweep(loop_thread(0, 4, 1 * MS, 5 * MS), template(), [1e-3, 1e-3], tech_table=TABLE)

    def test_empty_retentions_rejected(self):
        with pytest.raises(ConfigError):
            sweep(loop_thread(0, 4, 1 * MS, 5 * MS), template(), [], tech_table=TABLE)

    def test_parallel_matches_serial(self, sim_calls, monkeypatch):
        # a two-level sweep that derives two candidates: four tasks, so jobs=3 splits them unevenly and jobs=8
        # forks only three children
        trace = random_trace(5, 4000, num_cores=2, num_blocks=4096, write_fraction=0.4, instr_fraction=0.2)
        rets = [1e-6, 1e-5, 1e-4, 1e-2, 1e0]
        serial = sweep(trace, two_level(2), rets, tech_table=TABLE, jobs=1)
        assert len(sim_calls) == 4
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        for jobs, children in ((2, 1), (3, 2), (8, 3)):
            forks.clear()
            assert sweep(trace, two_level(2), rets, tech_table=TABLE, jobs=jobs) == serial  # every field
            assert forks == [os.getpid()] * children

        def specialized(jobs):
            return specialize(trace, two_level(2), rets, 1e-4, 1500, tech_table=TABLE, jobs=jobs)

        def assigned(jobs):
            threads = [random_trace(seed, 600, num_blocks=256, write_fraction=0.4) for seed in (3, 4)]
            return assign_asymmetric(threads, template(), [1e-5, 1e-3, 1e-2], 200, tech_table=TABLE, jobs=jobs)

        for study in (specialized, assigned):
            assert study(2) == study(1)

    def test_no_study_imports_multiprocessing(self):
        # in a fresh interpreter: a study forks its own workers, and multiprocessing pulls in socket, selectors
        # and signal, which no study uses
        script = "\n".join([
            "import sys, sttsim",
            "unit = sttsim.CacheUnitConfig(1024, 2, 64, sttsim.Technology.SRAM)",
            "cfg = sttsim.HierarchyConfig(num_cores=1, l1i=unit, l1d=unit)",
            "trace = [sttsim.AccessRecord(0, t, sttsim.AccessKind.LOAD, 0x40) for t in range(0, 10_000, 1000)]",
            "for jobs in (1, 2):",  # two simulations in each call, so jobs=2 forks
            "    sttsim.sweep(trace, cfg, [1e-6, 1e-3], jobs=jobs)",
            "    sttsim.specialize(trace, cfg, [1e-6, 1e-3], 1e-6, 5, jobs=jobs)",
            "    sttsim.assign_asymmetric([trace], cfg, [1e-6, 1e-3], 5, jobs=jobs)",
            "    print(jobs, 'multiprocessing' in sys.modules)",
        ])
        src = os.path.dirname(os.path.dirname(explore.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["1 False", "2 False"]

    def test_time_and_edp_objectives(self):
        trace = loop_thread(0, 8, 2 * MS, 50 * MS)
        rets = [1e-4, 1e-3, 1e-2]
        for objective in (Objective.TIME, Objective.EDP):
            result = sweep(trace, template(), rets, objective, tech_table=TABLE)
            assert result.best_retention in rets

    def test_time_ties_go_to_the_longer_retention(self):
        # loads only and no expiry: every STTRAM row of the table reads in the same cycles, so all times tie
        trace = loop_thread(0, 8, 1 * MS, 5 * MS)
        rets = [1e-2, 1e-1, 1e0]
        result = sweep(trace, template(), rets, Objective.TIME, tech_table=TABLE)
        assert all(e.report.total_expiration_misses() == 0 for e in result.entries)
        assert len({e.report.exec_time_s for e in result.entries[1:]}) == 1
        assert result.best_retention == 1e0


def test_a_ratio_without_a_baseline_is_none():
    # every energy 0: the SRAM baseline's, the base retention's and each homogeneous total are 0, so an energy
    # ratio to one of them is not a number; the sweep's times still have their baseline
    rets = [1e-3, 1e-2]
    zero = TechTable([TechParams(Technology.SRAM, None, 0.0, 0.0, 0.0, 2, 2)] +
                     [TechParams(Technology.STTRAM, r, 0.0, 0.0, 0.0, 2, 4) for r in rets])
    trace = loop_thread(0, 8, 1 * MS, 5 * MS)
    result = sweep(trace, template(), rets, tech_table=zero)
    assert [e.normalized_energy for e in result.entries] == [None] * 3
    assert result.entries[0].normalized_time == 1.0 and None not in [e.normalized_time for e in result.entries]
    assert specialize(trace, template(), rets, 1e-2, 10, tech_table=zero).savings_vs_base is None
    assert assign_asymmetric([trace], template(), rets, 10, tech_table=zero).savings_vs_best_homogeneous is None


def test_objectives_leave_out_memory_energy():
    report = simulate(template(), loop_thread(0, 8, 1 * MS, 5 * MS, kind=AccessKind.STORE), TABLE)
    assert report.mem_energy_j > 0
    assert objective_value(report, Objective.ENERGY) == report.cache_energy_j
    assert objective_value(report, Objective.TIME) == report.exec_time_s
    assert objective_value(report, Objective.EDP) == report.cache_energy_j * report.exec_time_s


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])  # True equals 1, but a bool is not a count
def test_every_study_refuses_jobs_below_1(jobs):
    # explore._run_sims is the one place a study reads jobs; it refused nothing and ran serially
    trace = loop_thread(0, 8, 1 * MS, 5 * MS)
    rets = [1e-3, 1e-2]
    for study in (
        lambda: sweep(trace, template(), rets, tech_table=TABLE, jobs=jobs),
        lambda: specialize(trace, template(), rets, 1e-2, 10, tech_table=TABLE, jobs=jobs),
        lambda: assign_asymmetric([trace], template(), rets, 10, tech_table=TABLE, jobs=jobs),
    ):
        with pytest.raises(ConfigError, match=rf"^jobs must be an int of at least 1, got {jobs}$"):
            study()


@pytest.mark.parametrize("objective", ["time", "energy", None])
def test_every_study_refuses_an_objective_that_is_not_one(objective, sim_calls):
    # objective_value took any such value for EDP, and the study reported it as given
    trace = loop_thread(0, 8, 1 * MS, 5 * MS)
    rets = [1e-5, 1e-3]
    for study in (
        lambda: sweep(trace, template(), rets, objective, tech_table=TABLE),
        lambda: specialize(trace, template(), rets, 1e-3, 10, objective, tech_table=TABLE),
        lambda: assign_asymmetric([trace], template(), rets, 10, objective, tech_table=TABLE),
    ):
        with pytest.raises(ConfigError, match=rf"^objective must be an Objective, got {re.escape(repr(objective))}$"):
            study()
    assert sim_calls == []


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_failing_task_raises_as_in_a_serial_run(jobs):
    # the table lacks the swept 1e-3, so its tasks raise in whichever process claims them
    table = TechTable([TABLE.lookup(Technology.SRAM, None)] +
                      [TABLE.lookup(Technology.STTRAM, r) for r in TABLE.retentions() if r != 1e-3])
    trace = loop_thread(0, 8, 2 * MS, 50 * MS)  # every candidate can expire a block, so each runs in full
    rets = [1e-4, 1e-3, 1e-2]
    for study in (
        lambda j: sweep(trace, template(), rets, tech_table=table, jobs=j),
        lambda j: assign_asymmetric([trace, trace], template(), rets, 10, tech_table=table, jobs=j),
    ):
        with pytest.raises(ConfigError, match=r"^tech table has no entry for \(STTRAM, 0.001\)$") as serial:
            study(1)
        with pytest.raises(ConfigError) as parallel:
            study(jobs)
        assert (type(parallel.value), str(parallel.value)) == (type(serial.value), str(serial.value))
        assert_no_child_left()


class TestForkMap:
    """explore._fork_map, the processes of a study that forks."""

    def test_more_items_than_a_pipe_holds(self):
        # a Linux pipe holds 16,384 four-byte indices; the claim pipe holds one at a time
        items = list(range(40_000))
        assert explore._fork_map(lambda i: i * i, items, 3) == [i * i for i in items]
        assert_no_child_left()

    def test_a_childs_exception_keeps_its_type_and_message(self):
        caller = os.getpid()

        def fn(i):
            if os.getpid() != caller:
                raise LookupError(f"item {i} in a child")
            time.sleep(0.01)  # so that the child claims an item

        with pytest.raises(LookupError, match=r"^item \d+ in a child$"):
            explore._fork_map(fn, list(range(100)), 2)
        assert_no_child_left()

    def test_an_interrupt_kills_the_children(self):
        caller = os.getpid()

        def fn(i):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            explore._fork_map(fn, list(range(10)), 3)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_a_child_that_dies_is_named(self):
        caller = os.getpid()
        with pytest.raises(ChildProcessError, match=r"^worker \d+ exited with status 3 and no result$"):
            explore._fork_map(lambda i: os._exit(3) if os.getpid() != caller else time.sleep(0.01), list(range(50)), 2)
        assert_no_child_left()


class TestSpecialize:
    def test_degenerates_to_exhaustive_argmin(self):
        trace = loop_thread(0, 8, 2 * MS, 100 * MS)
        rets = [1e-4, 1e-3, 1e-2, 1e-1]
        full = sweep(trace, template(), rets, tech_table=TABLE)
        result = specialize(trace, template(), rets, base_retention=1e-3,
                            sample_len=len(trace), tech_table=TABLE)
        assert result.chosen_retention == full.best_retention

    def test_representative_profile_matches_full(self):
        trace = loop_thread(0, 8, 2 * MS, 100 * MS)  # stationary workload
        rets = [1e-4, 1e-3, 1e-2, 1e-1]
        full = sweep(trace, template(), rets, tech_table=TABLE)
        result = specialize(trace, template(), rets, base_retention=1e-3,
                            sample_len=len(trace) // 4, tech_table=TABLE)
        assert result.chosen_retention == full.best_retention

    def test_adversarial_phase_change_reports_negative_savings(self):
        # profile phase: tight write loop, happy at any retention, cheapest
        # writes win; remainder: 30ms reuse loads that need 100ms
        profile_phase = loop_thread(0, 4, 0.2 * MS, 10 * MS, kind=AccessKind.STORE)
        t0 = profile_phase[-1].timestamp / CLOCK + 1e-6
        rest = [
            AccessRecord(0, r.timestamp + cyc(t0), r.kind, r.address)
            for r in loop_thread(0, 64, 30 * MS, 2000 * MS, base_block=32)
        ]
        trace = profile_phase + rest
        rets = [1e-3, 1e-2, 1e-1]
        result = specialize(trace, template(), rets, base_retention=1e-1,
                            sample_len=len(profile_phase), tech_table=TABLE)
        assert result.chosen_retention == 1e-3
        assert result.savings_vs_base < 0  # mispredicted, reported as such

    def test_sample_len_validation(self):
        trace = loop_thread(0, 4, 1 * MS, 10 * MS)
        with pytest.raises(ConfigError):
            specialize(trace, template(), [1e-3], 1e-3, sample_len=0, tech_table=TABLE)
        with pytest.raises(ConfigError):
            specialize(trace, template(), [1e-3], 1e-3, sample_len=len(trace) + 1, tech_table=TABLE)
        for bad in (2.5, True):  # a slice took neither: 2.5 ended in a TypeError, True profiled one record
            with pytest.raises(ConfigError, match=rf"^sample_len must be an int, got {bad}$"):
                specialize(trace, template(), [1e-3], 1e-3, sample_len=bad, tech_table=TABLE)

    @pytest.mark.parametrize(
        "base, match",
        [
            (-1.0, r"^base_retention must be finite and positive, got -1.0$"),
            (float("nan"), r"^base_retention must be finite and positive, got nan$"),
            (2e-3, r"^<sample>: tech table has no entry for \(STTRAM, 0.002\)$"),
        ],
    )
    def test_bad_base_named_before_any_simulation(self, sim_calls, base, match):
        trace = loop_thread(0, 8, 2 * MS, 20 * MS)
        with pytest.raises(ConfigError, match=match):
            specialize(trace, template(), [1e-4, 1e-3], base, sample_len=10, tech_table=TABLE)
        assert sim_calls == []


def four_thread_workload(duration_s=0.2):
    """Reuse gaps clustered near 0.5ms / 3ms / 30ms plus one write-heavy thread."""
    a = loop_thread(0, 8, 0.5 * MS, duration_s)
    b = loop_thread(0, 8, 3 * MS, duration_s)
    c = loop_thread(0, 8, 30 * MS, duration_s)
    d = loop_thread(0, 2, 0.1 * MS, duration_s, kind=AccessKind.STORE)
    return [a, b, c, d]


class TestAssignAsymmetric:
    CORE_RETS = [1e-3, 1e-2, 1e-1, 1e-3]

    def test_two_thread_obvious_matching(self):
        threads = [loop_thread(0, 4, 0.5 * MS, 20 * MS), loop_thread(0, 4, 0.5 * MS, 20 * MS)]
        result = assign_asymmetric(threads, template(), [1e-3, 1e-2], profile_len=100,
                                   tech_table=TABLE)
        # identical threads: any bijection has equal total; first
        # lexicographic assignment wins deterministically
        assert sorted(result.assignment.values()) == [0, 1]
        totals = [
            result.cost_matrix[0][p[0]] + result.cost_matrix[1][p[1]]
            for p in itertools.permutations(range(2))
        ]
        assert result.profiled_total == min(totals)

    def test_identical_cores_match_homogeneous_baseline(self):
        threads = four_thread_workload(duration_s=0.05)
        result = assign_asymmetric(threads, template(), [1e-2] * 4, profile_len=200,
                                   tech_table=TABLE)
        assert result.full_asym_total == result.best_homogeneous_total
        assert result.savings_vs_best_homogeneous == 0.0

    def test_profiled_assignment_is_optimal(self):
        threads = four_thread_workload(duration_s=0.1)
        result = assign_asymmetric(threads, template(), self.CORE_RETS, profile_len=400,
                                   tech_table=TABLE)
        n = len(threads)
        best = min(
            sum(result.cost_matrix[t][perm[t]] for t in range(n))
            for perm in itertools.permutations(range(len(self.CORE_RETS)), n)
        )
        assert result.profiled_total == best

    def test_clustered_workload_beats_best_homogeneous(self):
        threads = four_thread_workload(duration_s=0.2)
        result = assign_asymmetric(threads, template(), self.CORE_RETS, profile_len=400,
                                   tech_table=TABLE)
        assert result.full_asym_total < result.best_homogeneous_total
        assert result.savings_vs_best_homogeneous > 0

    @pytest.mark.parametrize("kind", ["list", "generator"])
    def test_threads_of_any_iterable(self, kind):
        threads = four_thread_workload(duration_s=0.02)
        want = assign_asymmetric(threads, template(), self.CORE_RETS, profile_len=100, tech_table=TABLE)
        one_shot = list(threads) if kind == "list" else (t for t in threads)
        got = assign_asymmetric(one_shot, template(), self.CORE_RETS, profile_len=100, tech_table=TABLE)
        assert got == want

    def test_thread_count_exceeding_cores_rejected(self):
        threads = four_thread_workload(duration_s=0.02)
        with pytest.raises(ConfigError):
            assign_asymmetric(threads, template(), [1e-3, 1e-2], profile_len=10, tech_table=TABLE)

    def test_too_many_cores_rejected(self):
        with pytest.raises(ConfigError):
            assign_asymmetric([loop_thread(0, 2, 1 * MS, 2 * MS)], template(), [1e-3] * 9,
                              profile_len=10, tech_table=TABLE)

    @pytest.mark.parametrize(
        "threads, core_rets, profile_len, match",
        [
            (0, [1e-3, 1e-2], 10, "requires at least one thread trace"),
            (1, [1e-3, 1e-2], 0, "profile_len must be >= 1"),
            (1, [1e-3, 0.0], 10, "core retentions must be positive"),
            (1, [1e-3, -1e-3], 10, "core retentions must be positive"),
            (1, [1e-3, math.nan], 10, "core retentions must be positive"),
            # a bool or a string is no retention, though float() reads True as 1.0 and "1e-3" as 0.001
            (1, [True, 1e-2], 10, r"core retentions must be real numbers, got \[True, 0\.01\]"),
            (1, [1e-3, "1e-3"], 10, "core retentions must be real numbers"),
            (1, [1e-3, None], 10, "core retentions must be real numbers"),
            (1, [1e-3, 1e-2], 2.5, "profile_len must be an int, got 2.5"),
            (1, [1e-3, 1e-2], True, "profile_len must be an int, got True"),
        ],
    )
    def test_bad_input_named_before_any_simulation(self, sim_calls, threads, core_rets, profile_len, match):
        traces = [loop_thread(0, 2, 1 * MS, 2 * MS)] * threads
        with pytest.raises(ConfigError, match=match):
            assign_asymmetric(traces, template(), core_rets, profile_len=profile_len, tech_table=TABLE)
        assert sim_calls == []

    def test_fewer_threads_than_cores(self):
        threads = [loop_thread(0, 8, 0.5 * MS, 50 * MS), loop_thread(0, 8, 30 * MS, 50 * MS)]
        result = assign_asymmetric(threads, template(), [1e-3, 1e-2, 1e-1], profile_len=200,
                                   tech_table=TABLE)
        assert len(result.assignment) == 2
        assert len(set(result.assignment.values())) == 2


@pytest.fixture
def sim_calls(monkeypatch):
    """(config, trace length) of every simulation the studies run in this process."""
    calls = []
    real = explore._simulate

    def counted(cfg, trace, *args):
        calls.append((cfg, len(trace)))
        return real(cfg, trace, *args)

    monkeypatch.setattr(explore, "_simulate", counted)
    return calls


def two_level(num_cores):
    l1 = CacheUnitConfig(32 * 1024, 4, 64, Technology.SRAM)
    l2 = CacheUnitConfig(256 * 1024, 8, 64, Technology.SRAM)
    return HierarchyConfig(num_cores=num_cores, l1i=l1, l1d=l1, l2=l2, clock_hz=CLOCK)


def backlog_trace():
    """Core 0 falls behind its timestamps; core 1 issues sparse accesses.

    The last timestamp is 15,000 cycles, under the 19,000 cycles (1e-5 s)
    of the first 1e-5 deadline but over that of 1e-6.  Core 0 issues 200
    cold loads one cycle apart, each waiting on memory, so its last record,
    a reload of its first block, starts after 20,000 cycles: at 1e-5 that
    block has expired, which the SRAM run cannot show.
    """
    core0 = [AccessRecord(0, t, AccessKind.LOAD, t * 64) for t in range(200)]
    core0.append(AccessRecord(0, 200, AccessKind.LOAD, 0))
    core1 = [
        AccessRecord(1, 0, AccessKind.INSTR_FETCH, 1 << 20),
        AccessRecord(1, 5000, AccessKind.LOAD, 1 * 64),  # an L2 hit
        AccessRecord(1, 10000, AccessKind.STORE, 2 * 64),
        AccessRecord(1, 15000, AccessKind.INSTR_FETCH, 1 << 20),
    ]
    return sorted(core0 + core1, key=lambda r: (r.timestamp, r.core_id))


def candidates(template_cfg, rets):
    return [with_technology(template_cfg, Technology.SRAM, None)] + [
        with_technology(template_cfg, Technology.STTRAM, r) for r in rets
    ]


def assert_sweep_matches_simulate(trace, template_cfg, rets, jobs):
    result = sweep(trace, template_cfg, rets, tech_table=TABLE, jobs=jobs)
    for cfg, entry in zip(candidates(template_cfg, rets), result.entries):
        assert entry.report == simulate(cfg, trace, TABLE)


class TestDerivedSweep:
    """Candidates that cannot expire a block are built from the SRAM run."""

    RETS = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backlog_reports_equal_simulate(self, jobs):
        assert_sweep_matches_simulate(backlog_trace(), two_level(2), self.RETS, jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_random_multicore_reports_equal_simulate(self, jobs):
        trace = random_trace(5, 4000, num_cores=4, num_blocks=4096, instr_fraction=0.2)
        rets = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0]
        assert_sweep_matches_simulate(trace, two_level(4), rets, jobs)

    def test_backlog_expires_a_block_at_1e5(self):
        trace = backlog_trace()
        cfg = with_technology(two_level(2), Technology.STTRAM, 1e-5)
        rep = simulate(cfg, trace, TABLE)
        assert rep.total_expiration_misses() > 0  # so a derived report would be wrong

    def test_only_candidates_that_can_expire_run_in_full(self, sim_calls, monkeypatch):
        batches = []
        real = explore._run_sims

        def recorded(tasks, *args, **kwargs):
            batches.append([cfg.l1d[0].retention_time for _, cfg in tasks])
            return real(tasks, *args, **kwargs)

        monkeypatch.setattr(explore, "_run_sims", recorded)
        in_place = []
        real_simulate = hierarchy_mod._simulate

        def counted(cfg, records, *args):
            in_place.append(cfg.l1d[0].retention_time)
            return real_simulate(cfg, records, *args)

        monkeypatch.setattr(hierarchy_mod, "_simulate", counted)
        sweep(backlog_trace(), two_level(2), self.RETS, tech_table=TABLE, jobs=1)
        # one batch: 1e-6 is ruled out by the last timestamp and runs beside SRAM;
        # 1e-5 is refused by the completion time and runs in full in the SRAM run's process
        assert batches == [[None, 1e-6]]
        assert [cfg.l1d[0].retention_time for cfg, _ in sim_calls] == [None, 1e-6]
        assert in_place == [1e-5]

    def test_last_record_on_a_first_deadline_runs_in_full(self):
        # with every latency 0 the completion time is the last timestamp, here exactly the first deadline of
        # the block filled at cycle 0, which then expires as it is read again: no SRAM run can show that
        zero = [TechParams(Technology.SRAM, None, 1e-12, 1e-12, 1e-3, 0, 0),
                TechParams(Technology.STTRAM, 1e-5, 1e-12, 1e-12, 1e-4, 0, 0)]
        table = TechTable(zero)
        tmpl = replace(template(), mem_latency_cycles=0)
        cfg = with_technology(tmpl, Technology.STTRAM, 1e-5)
        deadline = cfg.l1d[0].counter_states * tick_cycles(cfg.l1d[0], CLOCK)
        trace = [AccessRecord(0, 0, AccessKind.LOAD, 0x0), AccessRecord(0, deadline, AccessKind.LOAD, 0x0)]
        entry = sweep(trace, tmpl, [1e-5], tech_table=table).entries[1]
        assert entry.report == simulate(cfg, trace, table)
        assert entry.report.total_expiration_misses() == 1

    @pytest.mark.parametrize("base", [2**63 - 50, 2**64])
    def test_timestamps_beyond_int64_are_derived(self, base, sim_calls):
        # at 1e20 Hz these timestamps are under 0.2 s, before the first 1e0 deadline
        tmpl = replace(two_level(2), clock_hz=1e20)
        trace = [AccessRecord(i % 2, base + i, AccessKind.LOAD, 64 * i) for i in range(10)]
        assert_sweep_matches_simulate(trace, tmpl, [1e0], jobs=1)
        assert [cfg.l1d[0].retention_time for cfg, _ in sim_calls] == [None]

    def test_float_timestamps_are_rejected(self, sim_calls):
        # units keep time in integer cycles; a float timestamp is named before any simulation
        for offset in (0.5, 0.25):
            trace = [AccessRecord(i % 2, 100 * i + offset, AccessKind.LOAD, 64 * i) for i in range(10)]
            match = rf"record AccessRecord\(core_id=0, timestamp={offset}, .* not an int"
            with pytest.raises(ConfigError, match=match):
                sweep(trace, two_level(2), [1e0], tech_table=TABLE, jobs=1)
            with pytest.raises(ConfigError, match=match):
                simulate(two_level(2), trace, TABLE)
        assert sim_calls == []

    def test_cores_beyond_255_are_derived(self, sim_calls):
        tiny = CacheUnitConfig(128, 1, 64, Technology.SRAM)
        tmpl = HierarchyConfig(num_cores=257, l1i=tiny, l1d=tiny, l2=two_level(1).l2, clock_hz=CLOCK)
        trace = random_trace(3, 257 * 4, num_cores=257, num_blocks=8, instr_fraction=0.2)
        assert_sweep_matches_simulate(trace, tmpl, [1e-2, 1e0], jobs=1)
        assert [cfg.l1d[0].retention_time for cfg, _ in sim_calls] == [None]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=hs.integers(0, 2**16),
        num_cores=hs.integers(1, 4),
        with_l2=hs.booleans(),
        # past int64 the clock puts the trace just before the first 1e-4 deadline
        offset_and_clock=hs.sampled_from([(0, CLOCK), (2**63 - 1000, 1e23)]),
        rets=hs.lists(hs.sampled_from([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0]), min_size=1, max_size=4,
                      unique=True).map(sorted),
    )
    def test_every_report_equals_simulate(self, seed, num_cores, with_l2, offset_and_clock, rets):
        """Derived or simulated in full, every sweep entry is simulate()'s report."""
        offset, clock = offset_and_clock
        trace = [
            r._replace(timestamp=r.timestamp + offset)
            for r in random_trace(seed, 60 * num_cores, num_cores=num_cores, num_blocks=32,
                                  gap_lo=1, gap_hi=3000, instr_fraction=0.2)
        ]
        small = CacheUnitConfig(512, 2, 64, Technology.SRAM)
        l2 = CacheUnitConfig(2048, 4, 64, Technology.SRAM) if with_l2 else None
        tmpl = HierarchyConfig(num_cores=num_cores, l1i=small, l1d=small, l2=l2, clock_hz=clock)
        assert_sweep_matches_simulate(trace, tmpl, rets, jobs=1)

    def test_golden_sweep_derives_two_candidates(self, sim_calls):
        cfg = load_experiment_config(os.path.join(SAMPLE_CONFIGS, "golden_sweep.cfg"))
        records = generate_trace(cfg.synthetic)
        result = sweep(records, cfg.hierarchy, cfg.retentions, cfg.objective, TABLE, jobs=1)
        assert [c.l1d[0].retention_time for c, _ in sim_calls] == [None, 1e-5, 1e-4, 1e-3]
        for c, entry in zip(candidates(cfg.hierarchy, cfg.retentions), result.entries):
            assert entry.report == simulate(c, records, TABLE)


def shuffled(trace, seed=1):
    out = list(trace)
    random.Random(seed).shuffle(out)
    return out


class TestRecordOrder:
    """Each study puts its traces in (timestamp, core_id) order before simulating them."""

    RETS = [1e-5, 1e-4, 1e-3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_of_a_shuffled_trace(self, jobs):
        trace = random_trace(8, 3000, num_cores=2, num_blocks=512, write_fraction=0.4, instr_fraction=0.2)
        mixed = shuffled(trace)
        assert simulate(two_level(2), mixed, TABLE) == simulate(two_level(2), trace, TABLE)
        a = sweep(mixed, two_level(2), self.RETS, tech_table=TABLE, jobs=jobs)
        b = sweep(trace, two_level(2), self.RETS, tech_table=TABLE, jobs=jobs)
        assert [e.report for e in a.entries] == [e.report for e in b.entries]

    def test_specialize_and_asym_order_each_trace_and_prefix(self):
        ordered = [random_trace(s, 1500, num_blocks=256, write_fraction=0.4) for s in (1, 2)]
        threads = [shuffled(trace, s) for trace, s in zip(ordered, (1, 2))]
        k = 500

        def value(cfg, trace):
            return objective_value(simulate(cfg, trace, TABLE), Objective.ENERGY)

        # each profile is the first k records in time order, not in input order
        result = specialize(threads[0], template(), self.RETS, base_retention=1e-3, sample_len=k, tech_table=TABLE)
        assert result.sample_values == {
            r: value(with_technology(template(), Technology.STTRAM, r), ordered[0][:k]) for r in self.RETS
        }
        rets = self.RETS[:2]
        single = [explore._single_core_config(template(2), r) for r in rets]
        asym = assign_asymmetric(threads, template(2), rets, k, tech_table=TABLE)
        assert asym.cost_matrix == [[value(cfg, trace[:k]) for cfg in single] for trace in ordered]
        assert asym.full_asym_total == sum(
            value(single[asym.assignment[t]], thread) for t, thread in enumerate(threads)
        )


@pytest.fixture
def batches(monkeypatch):
    """The (trace, config) tasks of every explore._run_sims call, each checked to repeat no task."""
    calls = []
    real = explore._run_sims

    def recorded(tasks, *args, **kwargs):
        keys = [(id(trace), cfg) for trace, cfg in tasks]  # a thread's trace is its own, whatever it holds
        assert len(set(keys)) == len(keys), "a batch repeats a task"
        calls.append(tasks)
        return real(tasks, *args, **kwargs)

    monkeypatch.setattr(explore, "_run_sims", recorded)
    return calls


class TestDistinctTasks:
    """Each study submits each (trace, config) simulation it needs once."""

    def test_asym_study_submits_and_runs_24_simulations(self, batches, sim_calls):
        cfg = load_experiment_config(os.path.join(SAMPLE_CONFIGS, "asym_quadcore.cfg"))
        by_core = {}
        for rec in read_trace(cfg.trace_path):
            by_core.setdefault(rec.core_id, []).append(rec._replace(core_id=0))
        threads = [by_core[c] for c in sorted(by_core)]
        result = assign_asymmetric(threads, cfg.hierarchy, cfg.core_retentions, cfg.profile_len,
                                   cfg.objective, TABLE, jobs=1)
        # four threads and three distinct retentions among the four cores, each thread's prefix then its trace
        assert len(threads) == 4 and len(set(cfg.core_retentions)) == 3
        assert [len(tasks) for tasks in batches] == [12, 12]
        assert len(sim_calls) == 24

        def value(retention, trace):
            single = explore._single_core_config(cfg.hierarchy, retention)
            return objective_value(simulate(single, trace, TABLE), cfg.objective)

        for t, thread in enumerate(threads):
            prefix = thread[: cfg.profile_len]
            assert result.cost_matrix[t] == [value(r, prefix) for r in cfg.core_retentions]
        for r, total in result.homogeneous_totals.items():
            assert total == sum(value(r, thread) for thread in threads)
        assert result.full_asym_total == sum(
            value(cfg.core_retentions[result.assignment[t]], thread) for t, thread in enumerate(threads)
        )

    def test_specialize_runs_full_trace_once_when_chosen_is_base(self, batches, sim_calls):
        trace = loop_thread(0, 8, 2 * MS, 100 * MS)
        rets = [1e-4, 1e-3, 1e-2, 1e-1]
        result = specialize(trace, template(), rets, base_retention=1e-1,
                            sample_len=len(trace) // 4, tech_table=TABLE)
        assert result.chosen_retention == 1e-1
        assert [len(tasks) for tasks in batches] == [4, 1]
        assert [n for _, n in sim_calls].count(len(trace)) == 1
        full = simulate(with_technology(template(), Technology.STTRAM, 1e-1), trace, TABLE)
        assert result.full_value_chosen == result.full_value_base == objective_value(full, Objective.ENERGY)
        assert result.savings_vs_base == 0.0

    def test_no_study_repeats_a_task(self, batches):
        trace = loop_thread(0, 8, 2 * MS, 50 * MS)  # every candidate can expire a block, so none is derived
        rets = [1e-4, 1e-3, 1e-2]
        sweep(trace, template(), rets, tech_table=TABLE)
        result = specialize(trace, template(), rets, base_retention=1e-4, sample_len=50, tech_table=TABLE)
        assert result.chosen_retention != 1e-4
        # two threads of equal records are two threads; two cores share 1e-3
        assign_asymmetric([trace, list(trace)], template(), [1e-3, 1e-2, 1e-3], 50, tech_table=TABLE)
        assert [len(tasks) for tasks in batches] == [4, 3, 2, 4, 4]


class TestRecordChecks:
    """Each study admits each input trace once, at entry, in the parent, before any fork."""

    @pytest.fixture
    def checks(self, monkeypatch, tmp_path):
        """(pid, trace length, ncores) of every check_records call, in this process or a forked worker."""
        log = tmp_path / "checks"
        log.touch()
        real = trace_mod.check_records

        def counted(records, ncores=None):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(records)} {ncores}\n")
            return real(records, ncores)

        for module in (hierarchy_mod, explore):
            monkeypatch.setattr(module, "check_records", counted, raising=False)
        return lambda: [(int(pid), int(n), None if c == "None" else int(c))
                        for pid, n, c in (line.split() for line in log.read_text().splitlines())]

    RETS = [1e-6, 1e-5, 1e-4, 1e-3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_check_per_sweep(self, checks, sim_calls, jobs):
        trace = random_trace(8, 3000, num_cores=2, num_blocks=512, write_fraction=0.4, instr_fraction=0.2)
        sweep(trace, two_level(2), self.RETS, tech_table=TABLE, jobs=jobs)
        assert checks() == [(os.getpid(), len(trace), 2)]
        if jobs == 1:
            assert len(sim_calls) > 1  # several simulations share the one check

    def test_one_check_per_specialize_trace(self, checks, sim_calls):
        # the profile prefix is a slice of the admitted trace, so it is not checked again
        trace = random_trace(9, 2000, num_blocks=256, write_fraction=0.4)
        specialize(trace, template(), self.RETS, base_retention=1e-3, sample_len=500, tech_table=TABLE)
        assert checks() == [(os.getpid(), len(trace), 1)]
        assert len(sim_calls) == len(self.RETS) + 2

    def test_one_check_per_sweep_with_a_refused_derivation(self, checks, monkeypatch):
        batches = []
        real = explore._run_sims

        def recorded(tasks, *args, **kwargs):
            batches.append(len(tasks))
            return real(tasks, *args, **kwargs)

        monkeypatch.setattr(explore, "_run_sims", recorded)
        trace = backlog_trace()
        sweep(trace, two_level(2), TestDerivedSweep.RETS, tech_table=TABLE, jobs=1)
        assert len(batches) == 1  # the refused candidate runs in the SRAM run's process
        assert checks() == [(os.getpid(), len(trace), 2)]

    def test_one_check_per_asymmetric_thread_trace(self, checks, sim_calls):
        threads = [random_trace(seed, 600, num_cores=2, num_blocks=256, write_fraction=0.4) for seed in (3, 4)]
        assign_asymmetric(threads, template(), [1e-5, 1e-3], profile_len=200, tech_table=TABLE)
        # once per thread trace, before its core ids are rebased; the profile prefixes are slices
        assert checks() == [(os.getpid(), 600, None), (os.getpid(), 600, None)]
        assert len(sim_calls) > 2

    @pytest.mark.parametrize("field, value, match", [(0, 2, "core 2 "), (0, -1, "core -1 "), (2, 3, "kind 3 ")])
    @pytest.mark.parametrize("at", [1, 1500])
    def test_bad_record_named_by_every_study(self, sim_calls, field, value, match, at):
        trace = random_trace(9, 2000, num_cores=2, num_blocks=256, write_fraction=0.4)
        trace[at] = trace[at]._replace(**{trace[at]._fields[field]: value})
        studies = [
            lambda: sweep(trace, two_level(2), self.RETS, tech_table=TABLE, jobs=1),
            lambda: sweep(trace, two_level(2), self.RETS, tech_table=TABLE, jobs=2),
            lambda: specialize(trace, template(2), self.RETS, base_retention=1e-3, sample_len=500,
                               tech_table=TABLE, jobs=1),
        ]
        if (field, value) != (0, 2):  # assign_asymmetric moves every thread to core 0, so core 2 is valid there
            studies.append(lambda: assign_asymmetric([trace], template(), [1e-5, 1e-3], profile_len=500,
                                                     tech_table=TABLE, jobs=1))
        for study in studies:
            with pytest.raises(ConfigError, match=match):
                study()
        # the whole trace is admitted at entry, so a bad record past the profile prefix is named before any simulation
        assert sim_calls == []


def test_rebased_thread_shares_its_columns_and_holds_one_byte_cores():
    # assign_asymmetric moves each thread to core 0: a new cores column of one byte a record, the other columns shared
    trace = trace_mod.check_records(random_trace(5, 300, num_cores=3))
    thread = trace.select(bytes(map((2).__eq__, trace.cores)))
    rebased = explore._rebase_core(thread)
    assert rebased.cores.typecode == "B" and list(rebased.cores) == [0] * len(thread)
    assert all(map(lambda a, b: a is b, rebased.columns[1:], thread.columns[1:]))

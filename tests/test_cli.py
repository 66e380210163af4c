import contextlib
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sttsim
from sttsim import characterize, cli
from sttsim import trace as trace_mod
from sttsim.cli import main
from sttsim.energy import SAMPLE_TABLE_RESOURCE, load_tech_table
from sttsim.trace import MAX_ZIPF_BLOCKS, read_trace
from test_trace import _TOKENS

MS = 1e-3
CONFIGS = pathlib.Path(__file__).parent.parent / "sample_configs"


def run(args):
    return main([str(a) for a in args])


def make_config(tmp_path, body, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


SINGLE_CORE = """
[l1i]
technology = STTRAM
retention_s = 1e-3

[l1d]
technology = STTRAM
retention_s = 1e-3

[synthetic]
seed = 3
accesses_per_core = 3000
read_fraction = 0.7
working_set_blocks = 600
gap = constant:5000
pattern = uniform

[experiment]
retentions = 1e-5 1e-4 1e-3 1e-2
out_dir = reports
"""

ASYM = """
[hierarchy]
num_cores = 4

[l1i]
technology = STTRAM
retention_s = 1e-3

[l1d]
technology = STTRAM
retention_s = 1e-3

[synthetic]
seed = 11
accesses_per_core = 2000
read_fraction = 0.8
working_set_blocks = 64
gap = loguniform:1000:2000000
pattern = uniform

[experiment]
retentions = 1e-4 1e-3 1e-2
profile_len = 500
core_retentions = 1e-3 1e-2 1e-1 1e-3
out_dir = reports
"""


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestGenTrace:
    def test_deterministic_bytes(self, tmp_path):
        args = ["gen-trace", "--seed", 1, "--num-cores", 2, "--accesses-per-core", 500, "--read-fraction", 0.5,
                "--working-set-blocks", 32, "--line-size", 32, "--pattern", "zipf:1.2", "--gap", "loguniform:10:1000"]
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1000

    def test_seed_flag_changes_output(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        run(["gen-trace", "--seed", 1, "--out", a])
        run(["gen-trace", "--seed", 2, "--out", b])
        assert a.read_bytes() != b.read_bytes()

    def test_out_into_new_directory(self, tmp_path):
        out_dir = tmp_path / "new" / "traces"
        assert run(["gen-trace", "--accesses-per-core", 100, "--out", out_dir / "t.trace"]) == 0
        assert os.listdir(out_dir) == ["t.trace"]
        assert len((out_dir / "t.trace").read_text().splitlines()) == 100

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gap", "constant:0"], "constant inter-access gap must be >= 1, got 0"),
            (["--pattern", "zipf:0"], "zipf exponent must be > 0"),
            (["--working-set-blocks", 0], "working_set_blocks must be >= 1"),
            (["--accesses-per-core", 0], "accesses_per_core must be >= 1"),
            (["--pattern", "zipf:1.2", "--working-set-blocks", MAX_ZIPF_BLOCKS + 1],
             f"a zipf working set must be at most {MAX_ZIPF_BLOCKS} blocks, got {MAX_ZIPF_BLOCKS + 1}"),
            (["--working-set-blocks", 2**58 + 1],
             f"working_set_blocks * line_size_bytes must be at most 2**64, got {2**58 + 1} * 64"),
            # the second timestamp of each core is 2**64, which no trace column holds
            (["--gap", f"constant:{2**64}", "--accesses-per-core", 2], f"trace value {2**64} does not fit in 64 bits"),
        ],
    )
    def test_bad_spec_exits_2_and_writes_nothing(self, tmp_path, capsys, flags, message):
        assert run(["gen-trace", *flags, "--out", tmp_path / "t.trace"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--num-cores", 4, "--accesses-per-core", 5000, "--read-fraction", 0.9, "--pattern", "zipf:1.2",
              "--working-set-blocks", 4096, "--gap", "constant:20", "--seed", 1],
             "8e55ed76511d209e7c0fc943e68e8fa175ef7b723fce2732e5556b52e3068cb8"),
            (["--num-cores", 260, "--accesses-per-core", 20, "--gap", "constant:300000000", "--pattern", "uniform",
              "--working-set-blocks", 64, "--line-size", 134217728, "--seed", 3],
             "165d645d7038b45294b6157202389445818ffede20fe88a97d088ea1b72d9bdc"),
        ],
        ids=["narrow", "widened"],
    )
    def test_bytes_match_the_ci_pins(self, tmp_path, flags, digest):
        # the c11.trace and wide.trace pins of the "Console script" CI step: one trace in the narrow column
        # types, one whose cores, timestamps and addresses all widen
        assert run(["gen-trace", *flags, "--out", tmp_path / "t.trace"]) == 0
        assert hashlib.sha256((tmp_path / "t.trace").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flag, value",
        [("--config", CONFIGS / "quadcore_two_level.cfg"), ("--jobs", 4), ("--trace", "nothing"),
         ("--tech-table", "nothing"), ("--out-dir", "nowhere")],
    )
    def test_study_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value):
        # gen-trace reads none of the study flags, so it refuses them
        with pytest.raises(SystemExit) as exc:
            run(["gen-trace", flag, value, "--out", tmp_path / "t.trace"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


# every numeric flag, with the subcommand that takes it: (arguments before the flag, the flag, its type)
NUMBER_FLAGS = [
    (["gen-trace"], "--seed", "int"),
    (["gen-trace"], "--num-cores", "int"),
    (["gen-trace"], "--accesses-per-core", "int"),
    (["gen-trace"], "--read-fraction", "float"),
    (["gen-trace"], "--working-set-blocks", "int"),
    (["gen-trace"], "--line-size", "int"),
    (["sweep", "--config", CONFIGS / "quadcore_two_level.cfg"], "--jobs", "int"),
    (["simulate", "--config", CONFIGS / "asym_quadcore.cfg"], "--seed", "int"),
]


@pytest.mark.parametrize("before, flag, kind", NUMBER_FLAGS, ids=[f"{b[0]} {f}" for b, f, _ in NUMBER_FLAGS])
@pytest.mark.parametrize("value", ["1_0", "٢", "1٠"], ids=["underscore", "arabic-indic", "mixed"])
def test_number_flag_takes_the_config_number_rule(tmp_path, capsys, before, flag, kind, value):
    # int() and float() take each value (1_0 as 10, the Arabic-Indic two as 2); no sttsim input does
    out = ["--out", tmp_path / "t.trace"] if before == ["gen-trace"] else ["--out-dir", tmp_path / "out"]
    with pytest.raises(SystemExit) as exc:
        run([*before, flag, value, *out])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_1_is_a_usage_error(tmp_path, capsys, jobs):
    # it ran serially and exited 0
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--config", CONFIGS / "asym_quadcore.cfg", "--jobs", jobs, "--out-dir", tmp_path / "out"])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_a_failing_simulation_is_one_error_line_at_any_jobs(tmp_path, capsys):
    # the table lacks the swept 1e-3: a forking sweep names it as a serial one does, and leaves no child
    table = tmp_path / "table.txt"
    rows = resources.files("sttsim.data").joinpath(SAMPLE_TABLE_RESOURCE).read_text().splitlines()
    table.write_text("\n".join(r for r in rows if not r.startswith("STTRAM 1e-03")) + "\n")
    errors = []
    for jobs in (1, 2):
        argv = ["sweep", "--config", CONFIGS / "asym_quadcore.cfg", "--tech-table", table, "--jobs", jobs,
                "--out-dir", tmp_path / "out"]
        assert run(argv) == 2
        errors.append(capsys.readouterr().err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errors == [f"error: {table}: tech table has no entry for (STTRAM, 0.001)\n"] * 2


class TestSimulate:
    def test_schema_and_mem_row(self, tmp_path):
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["simulate", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "reports" / "simulate.csv")
        assert header == [
            "unit", "accesses", "hits", "miss_compulsory", "miss_replacement",
            "miss_expiration", "writebacks", "e_read_J", "e_write_J", "e_leak_J",
            "e_total_J", "time_s",
        ]
        units = [r[0] for r in rows]
        assert units == ["core0.l1i", "core0.l1d", "mem"]
        l1d = rows[1]
        assert int(l1d[1]) == 3000
        assert int(l1d[2]) + int(l1d[3]) + int(l1d[4]) + int(l1d[5]) == 3000

    def test_missing_table_entry_exits_nonzero(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("SRAM - 1e-12 1e-12 1e-3 2 2\n")
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["simulate", "--config", cfg, "--tech-table", table]) == 2
        assert capsys.readouterr().err == f"error: {table}: tech table has no entry for (STTRAM, 0.001)\n"

    @pytest.mark.parametrize("command", ["simulate", "characterize", "sweep", "specialize", "asym"])
    def test_study_without_config_exits_2(self, tmp_path, capsys, command):
        assert run([command, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: this subcommand requires --config <path>\n"
        assert not (tmp_path / "out").exists()

    def test_seed_flag_overrides_synthetic_seed(self, tmp_path):
        cfg = make_config(tmp_path, SINGLE_CORE)
        seed4 = make_config(tmp_path, SINGLE_CORE.replace("seed = 3", "seed = 4"), name="seed4.cfg")
        for config, seed, out in ((cfg, None, "a"), (cfg, 4, "b"), (seed4, None, "c")):
            flags = ["--seed", seed] if seed is not None else []
            assert run(["simulate", "--config", config, "--out-dir", tmp_path / out] + flags) == 0
        a, b, c = ((tmp_path / out / "simulate.csv").read_bytes() for out in "abc")
        assert b == c and b != a

    @pytest.mark.parametrize("source", ["--trace", "[input] trace"])
    def test_seed_with_a_trace_file_exits_2(self, tmp_path, capsys, source):
        trace = tmp_path / "tiny.trace"
        trace.write_text("0 0 LD 0x0\n0 10 ST 0x40\n")
        if source == "--trace":
            cfg, flags = make_config(tmp_path, SINGLE_CORE), ["--trace", trace]
        else:
            body = SINGLE_CORE[:SINGLE_CORE.index("[synthetic]")] + f"[input]\ntrace = {trace}\n"
            cfg, flags = make_config(tmp_path, body), []
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--seed", 5, "--out-dir", out, *flags]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --seed ")
        assert source in lines[0] and str(trace) in lines[0]
        assert not out.exists()

    def test_trace_flag_overrides_synthetic(self, tmp_path):
        trace = tmp_path / "tiny.trace"
        trace.write_text("0 0 LD 0x0\n0 10 ST 0x40\n")
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["simulate", "--config", cfg, "--trace", trace, "--out-dir", tmp_path / "r2"]) == 0
        _, rows = read_csv(tmp_path / "r2" / "simulate.csv")
        assert int(rows[1][1]) == 2


class TestCharacterize:
    def test_all_four_reports(self, tmp_path):
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["characterize", "--config", cfg]) == 0
        out = tmp_path / "reports"
        for name in ("rwratio.csv", "lifetimes.csv", "persistence.csv", "expiration_curve.csv"):
            assert (out / name).exists(), name
        header, rows = read_csv(out / "rwratio.csv")
        assert header == ["scope", "loads", "stores", "read_fraction"]
        assert rows[-1][0] == "aggregate"
        header, rows = read_csv(out / "expiration_curve.csv")
        # one row per retention for the data stream
        assert len(rows) == 4

    @pytest.mark.parametrize("kinds, streams", [(("IF", "LD", "ST"), ["data", "instr"]), (("IF",), ["instr"])])
    def test_streams_of_a_trace_file(self, tmp_path, kinds, streams):
        # each stream the trace holds gets its rows, data first; rwratio counts loads and stores only
        trace = tmp_path / "t.trace"
        trace.write_text("".join(f"0 {100 * i} {kinds[i % len(kinds)]} {64 * (i % 5):#x}\n" for i in range(30)))
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["characterize", "--config", cfg, "--trace", trace, "--out-dir", tmp_path / "r"]) == 0
        _, rows = read_csv(tmp_path / "r" / "rwratio.csv")
        if "LD" in kinds:
            assert rows == [["core0", "10", "10", "0.5"], ["aggregate", "10", "10", "0.5"]]
        else:
            assert rows == [["aggregate", "0", "0", "-"]]
        for name in ("lifetimes.csv", "persistence.csv", "expiration_curve.csv"):
            _, rows = read_csv(tmp_path / "r" / name)
            assert list(dict.fromkeys(row[0] for row in rows)) == streams, name

    def test_a_trace_file_grouped_by_core_is_sorted_once(self, tmp_path, monkeypatch):
        # the bundled trace with every fifth record an instruction fetch, so it has both streams, grouped by core:
        # the run sorts one copy and passes it on to the read/write ratio and to each stream's profile
        lines = (CONFIGS / "clustered_threads.trace").read_text().splitlines(keepends=True)
        lines[4::5] = [line.replace(" LD ", " IF ").replace(" ST ", " IF ") for line in lines[4::5]]
        timed, grouped = tmp_path / "timed.trace", tmp_path / "grouped.trace"
        timed.write_text("".join(lines))
        grouped.write_text("".join(sorted(lines, key=lambda line: int(line.split()[0]))))
        copies = []
        real_check_records = trace_mod.check_records

        def counting_check_records(records, ncores=None):
            admitted = real_check_records(records, ncores)
            if admitted is not records:
                copies.append(len(admitted))
            return admitted

        for module in (cli, characterize):
            monkeypatch.setattr(module, "check_records", counting_check_records)
        cfg = str(CONFIGS / "asym_quadcore.cfg")
        for trace in (timed, grouped):
            assert run(["characterize", "--config", cfg, "--trace", trace, "--out-dir", tmp_path / trace.stem]) == 0
        assert copies == [len(lines)]
        for name in ("rwratio.csv", "lifetimes.csv", "persistence.csv", "expiration_curve.csv"):
            assert (tmp_path / "timed" / name).read_bytes() == (tmp_path / "grouped" / name).read_bytes(), name
        _, rows = read_csv(tmp_path / "grouped" / "expiration_curve.csv")
        assert {row[0] for row in rows} == {"data", "instr"}

    @pytest.mark.parametrize("retention", ["1e-320", "5e-324", "1e400"])
    def test_retention_beyond_tick_arithmetic_exits_2(self, tmp_path, capsys, retention):
        # 1e-320 and 5e-324 s give ticks below one clock cycle, 1e400 is inf
        cfg = make_config(tmp_path, SINGLE_CORE.replace("retentions = 1e-5", f"retentions = {retention} 1e-5"))
        assert run(["characterize", "--config", cfg]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("retention", ["1e-320", "5e-324"])
    def test_failed_run_writes_no_report(self, tmp_path, retention):
        # the config loads; the retention fails only once the curve replays it
        cfg = make_config(tmp_path, SINGLE_CORE.replace("retentions = 1e-5", f"retentions = {retention} 1e-5"))
        assert run(["characterize", "--config", cfg]) == 2
        out = tmp_path / "reports"
        assert not (out.exists() and list(out.glob("*.csv")))


class TestStudyDriver:
    """A study builds all its tables before the driver writes any."""

    @pytest.mark.parametrize("command", ["simulate", "characterize", "sweep", "specialize", "asym"])
    def test_failed_study_writes_no_report(self, tmp_path, capsys, command):
        if command == "characterize":
            # the config loads; the retention fails only once the curve replays it
            cfg, flags = make_config(tmp_path, ASYM.replace("retentions = 1e-4", "retentions = 1e-320 1e-4")), []
        else:
            # the table loads; it lacks the STTRAM retentions the study simulates
            table = tmp_path / "table.txt"
            table.write_text("SRAM - 1e-12 1e-12 1e-3 2 2\n")
            cfg, flags = make_config(tmp_path, ASYM), ["--tech-table", table]
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out-dir", out, *flags]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (out.exists() and os.listdir(out))  # no CSV and no .tmp file

    @pytest.mark.parametrize("command", ["simulate", "characterize", "sweep", "specialize", "asym"])
    def test_trace_without_records_exits_2_and_writes_no_report(self, tmp_path, capsys, command):
        # comments and blank lines only: every study refuses the trace, by its file
        trace = tmp_path / "empty.trace"
        trace.write_text("# no records\n\n   \n")
        config = CONFIGS / ("asym_quadcore.cfg" if command == "asym" else "quadcore_two_level.cfg")
        out = tmp_path / "out"
        assert run([command, "--config", config, "--trace", trace, "--out-dir", out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {trace}: trace has no records"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "specialize"])
    @pytest.mark.parametrize("source", ["--trace", "[input] trace", "[synthetic]"])
    def test_records_error_names_the_trace_source(self, tmp_path, capsys, command, source):
        # core 7 (4 for the synthetic trace) on a 4-core hierarchy: the error names the trace file, or the config
        # of a synthetic trace
        trace = tmp_path / "t.trace"
        trace.write_text("7 0 LD 0x40\n")
        body = ASYM.replace("accesses_per_core = 2000", "accesses_per_core = 20")
        if source == "[synthetic]":
            cfg = make_config(tmp_path, body.replace("[synthetic]", "[synthetic]\nnum_cores = 5"))
            where, core = f"{cfg} [synthetic]", 4
        else:
            synthetic = body[body.index("[synthetic]"):body.index("[experiment]")]
            cfg = make_config(tmp_path, body.replace(synthetic, "[input]\ntrace = t.trace\n\n"))
            where, core = str(trace), 7
        flags = ["--trace", trace] if source == "--trace" else []
        assert run([command, "--config", cfg, "--out-dir", tmp_path / "out", *flags]) == 2
        assert capsys.readouterr().err == f"error: {where}: trace references core {core} but num_cores is 4\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["--trace", "[synthetic]"])
    def test_a_value_past_64_bits_names_the_trace_source(self, tmp_path, capsys, source):
        # an address of 2**64 in a trace file, or a synthetic trace whose second timestamp is 2**64
        big = 2**64
        trace = tmp_path / "t.trace"
        trace.write_text(f"0 0 LD {big:#x}\n")
        cfg = make_config(tmp_path, SINGLE_CORE.replace("gap = constant:5000", f"gap = constant:{big}"))
        flags, where = (["--trace", trace], trace) if source == "--trace" else ([], f"{cfg} [synthetic]")
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "out", *flags]) == 2
        assert capsys.readouterr().err == f"error: {where}: trace value {big} does not fit in 64 bits\n"
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_rows_and_normalization(self, tmp_path):
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["sweep", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "reports" / "sweep.csv")
        assert rows[0][0] == "SRAM"
        assert rows[0][4] == "1" and rows[0][5] == "1"  # normalized fields exactly 1
        assert len(rows) == 5  # SRAM + 4 retentions
        assert sum(1 for r in rows if r[-1] == "1") == 1  # exactly one best row

    def test_a_ratio_without_a_baseline_prints_a_dash(self, tmp_path):
        # the bundled table's latencies with every energy 0: the SRAM cache energy is 0, so no row's energy has a
        # ratio to it, while its time still has one
        table = tmp_path / "table.txt"
        rows = resources.files("sttsim.data").joinpath(SAMPLE_TABLE_RESOURCE).read_text().splitlines()
        rows = [" ".join(f[:2] + ["0", "0", "0"] + f[5:]) for f in map(str.split, rows) if f and f[0] != "#"]
        table.write_text("\n".join(rows) + "\n")
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["sweep", "--config", cfg, "--tech-table", table]) == 0
        header, rows = read_csv(tmp_path / "reports" / "sweep.csv")
        assert header[4:6] == ["normalized_energy", "normalized_time"]
        assert [r[4] for r in rows] == ["-"] * 5
        assert rows[0][5] == "1" and all(r[5] not in ("-", "0") for r in rows)


class TestSpecialize:
    def test_report_rows(self, tmp_path):
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["specialize", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "reports" / "specialize.csv")
        kinds = [r[0] for r in rows]
        assert kinds.count("candidate") == 4
        assert kinds[-2:] == ["chosen", "base"]


class TestAsym:
    def test_report_rows(self, tmp_path):
        cfg = make_config(tmp_path, ASYM)
        assert run(["asym", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "reports" / "asym.csv")
        kinds = [r[0] for r in rows]
        assert kinds.count("profiled_cost") == 16  # 4 threads x 4 cores
        assert kinds.count("assignment") == 4
        assert kinds.count("homogeneous_total") == 3  # distinct retentions
        assert "savings_vs_best_homogeneous" in kinds

    def test_requires_core_retentions(self, tmp_path, capsys):
        cfg = make_config(tmp_path, SINGLE_CORE)
        assert run(["asym", "--config", cfg]) == 2
        assert "core_retentions" in capsys.readouterr().err


class TestDeterminism:
    def test_no_temp_files_left(self, tmp_path):
        cfg = make_config(tmp_path, SINGLE_CORE)
        run(["sweep", "--config", cfg])
        names = os.listdir(tmp_path / "reports")
        assert not [n for n in names if n.endswith(".tmp")]

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = make_config(tmp_path, SINGLE_CORE)
        run(["sweep", "--config", cfg, "--out-dir", tmp_path / "r1"])
        run(["sweep", "--config", cfg, "--out-dir", tmp_path / "r2"])
        a = (tmp_path / "r1" / "sweep.csv").read_bytes()
        b = (tmp_path / "r2" / "sweep.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("command", ["simulate", "sweep", "specialize", "asym", "characterize"])
    def test_trace_file_grouped_by_core(self, tmp_path, command):
        # read_trace requires only each core's own order, so a file may group its lines by core
        cfg = make_config(tmp_path, ASYM)
        timed = tmp_path / "timed.trace"
        run(["gen-trace", "--num-cores", 4, "--accesses-per-core", 600, "--working-set-blocks", 64,
             "--pattern", "uniform", "--gap", "loguniform:1000:2000000", "--out", timed])
        lines = timed.read_text().splitlines(keepends=True)
        grouped = tmp_path / "grouped.trace"
        grouped.write_text("".join(sorted(lines, key=lambda line: int(line.split()[0]))))
        for trace in (timed, grouped):
            assert run([command, "--config", cfg, "--trace", trace, "--out-dir", tmp_path / trace.stem]) == 0
        names = sorted(os.listdir(tmp_path / "timed"))
        assert names and names == sorted(os.listdir(tmp_path / "grouped"))
        for name in names:
            assert (tmp_path / "timed" / name).read_bytes() == (tmp_path / "grouped" / name).read_bytes(), name


class TestGoldenSweep:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bundled_fixture_matches_golden(self, tmp_path, jobs):
        here = os.path.dirname(__file__)
        cfg = os.path.join(here, "..", "sample_configs", "golden_sweep.cfg")
        assert run(["sweep", "--config", cfg, "--out-dir", tmp_path, "--jobs", jobs]) == 0
        produced = (tmp_path / "sweep.csv").read_text()
        golden = open(os.path.join(here, "golden", "sweep.csv")).read()
        assert produced == golden


class TestUnreadableInputs:
    """A file that cannot be read or decoded ends the run with one named error."""

    @staticmethod
    def bad_path(tmp_path, what):
        if what == "directory":
            p = tmp_path / "a_directory"
            p.mkdir()
        else:
            p = tmp_path / "latin1.txt"
            p.write_bytes("0 0 LD 0x0 # caf\xe9\n".encode("latin-1"))
        return p

    @pytest.mark.parametrize("what", ["directory", "not_utf8"])
    @pytest.mark.parametrize("flag", ["--trace", "--tech-table", "--config"])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, flag, what):
        bad = self.bad_path(tmp_path, what)
        args = {"--config": make_config(tmp_path, SINGLE_CORE), flag: bad}
        command = "simulate" if flag == "--tech-table" else "characterize"  # characterize reads no table
        argv = [command] + [a for pair in args.items() for a in pair]
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(bad) in lines[0]
        assert "Traceback" not in captured.err


class TestUnwritableOutputs:
    """An output path that cannot be written ends the run with one named error."""

    @pytest.mark.parametrize("case", ["out_dir_is_file", "out_under_file", "out_is_directory"])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, case):
        blocker = tmp_path / "blocker"
        if case == "out_is_directory":
            blocker.mkdir()
        else:
            blocker.write_text("not a directory\n")
        if case == "out_dir_is_file":
            argv, target = ["simulate", "--config", make_config(tmp_path, SINGLE_CORE),
                            "--out-dir", blocker], blocker / "simulate.csv"
        else:
            target = blocker if case == "out_is_directory" else blocker / "x.trace"
            argv = ["gen-trace", "--accesses-per-core", 10, "--out", target]
        assert run(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in captured.err
        assert not [n for _, _, names in os.walk(tmp_path) for n in names if n.endswith(".tmp")]


_WITHOUT_NUMPY = """
import sys
import sttsim
from sttsim import characterize, cli
from sttsim import trace as trace_mod
from sttsim.cli import main
config, out = sys.argv[1:]
for args in (
    ["gen-trace", "--num-cores", "2", "--accesses-per-core", "400", "--pattern", "zipf:1.2",
     "--gap", "loguniform:10:1000", "--out", out + "/zipf.trace"],
    ["sweep", "--config", config, "--out-dir", out + "/sweep"],
    ["characterize", "--config", config, "--out-dir", out + "/characterize"],
    ["characterize", "--config", config, "--trace", out + "/zipf.trace", "--out-dir", out + "/zipf"],
):
    assert main(args) == 0, args
print(sorted(m for m in sys.modules if m.partition(".")[0] == "numpy"))
"""


def test_import_and_cli_load_no_numpy(tmp_path):
    # sttsim has no runtime dependency: neither the import nor a study loads numpy
    cfg = make_config(tmp_path, SINGLE_CORE.replace("accesses_per_core = 3000", "accesses_per_core = 400"))
    src = os.path.dirname(os.path.dirname(sttsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, cfg, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # the numpy modules loaded
    for csv in ("sweep/sweep.csv", "characterize/lifetimes.csv", "zipf/persistence.csv"):
        assert os.path.getsize(tmp_path / csv) > 0


# -- fuzz: every subcommand ends in a report, a named input error or a usage error --------------------------

_NUMBER_SOUP = st.sampled_from(["0", "1", "2", "3", "-1", "-0", "+2", "1_0", "1.5", "0.5", "1e3", "64", "inf", "nan",
                                "", " 1", "x", "0x10", "١", "٢"])
_JOBS_SOUP = st.sampled_from(["1", "2", "0", "-1", "+2", "1_0", "1.5", "", "x", "٢"])  # no pool of more than 2
_SAMPLE_ROWS = [line for line in resources.files("sttsim.data").joinpath(SAMPLE_TABLE_RESOURCE).read_text().splitlines()
                if line and line[0] != "#"]
_TRACE_LINES = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3000), st.sampled_from(["IF", "LD", "ST"]), st.integers(0, 4095)),
    max_size=40,
).map(lambda rows: [f"{c} {t} {k} {hex(64 * b)}" for c, t, k, b in sorted(rows, key=lambda r: r[1])])
_SOUP_LINES = st.lists(st.one_of(st.lists(_TOKENS, max_size=6).map(" ".join), _TRACE_LINES.map("\n".join)),
                       max_size=8)
_TRACE_FILE = st.one_of(st.binary(max_size=200), _TRACE_LINES, _SOUP_LINES).map(
    lambda x: x if isinstance(x, bytes) else "\n".join(x).encode())
_TABLE_FILE = st.one_of(
    st.none(),  # the bundled table
    st.binary(max_size=200),
    st.lists(st.one_of(st.sampled_from(_SAMPLE_ROWS), st.lists(_TOKENS, max_size=8).map(" ".join)), max_size=10)
    .map(lambda lines: "\n".join(lines).encode()),
    st.just("\n".join(_SAMPLE_ROWS).encode()),
)
_USAGE_ERROR = re.compile(r"sttsim [a-z-]+: error: argument --[a-z-]+: ")


def _run_captured(argv):
    """(exit status, stderr lines, whether argparse refused a flag) of main(argv)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main([str(a) for a in argv]), err.getvalue().splitlines(), False
        except SystemExit as exc:
            return exc.code, err.getvalue().splitlines(), True


def _check_failure(status, lines, usage, out):
    assert status == 2
    assert not (out.exists() and os.listdir(out))  # no report and no .tmp file
    if usage:
        assert _USAGE_ERROR.match(lines[-1]), lines
        return None
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0][len("error: "):]


@pytest.mark.parametrize("command", ["simulate", "characterize", "sweep", "specialize", "asym"])
@settings(max_examples=60, deadline=None)
@given(trace=_TRACE_FILE, table=_TABLE_FILE, jobs=_JOBS_SOUP, seed=st.one_of(st.none(), _NUMBER_SOUP))
def test_study_ends_in_a_report_or_a_named_error(tmp_path_factory, command, trace, table, jobs, seed):
    # a failure names the bad file: a trace or table that does not parse by that reader's own error, with its line
    # when a line is at fault; a trace whose records do not suit the study by the trace file
    here = tmp_path_factory.mktemp(command)
    config = CONFIGS / ("asym_quadcore.cfg" if command == "asym" else "quadcore_two_level.cfg")
    trace_path = here / "t.trace"
    trace_path.write_bytes(trace)
    argv = [command, "--config", config, "--trace", trace_path, "--out-dir", here / "out", "--jobs", jobs]
    readers = [(read_trace, trace_path)]
    table_path = None
    if table is not None:
        table_path = here / "table.txt"
        table_path.write_bytes(table)
        argv += ["--tech-table", table_path]
        if command != "characterize":  # the one study that reads no table
            readers.append((load_tech_table, table_path))
    if seed is not None:
        argv += ["--seed", seed]
    status, lines, usage = _run_captured(argv)
    if status == 0:
        assert os.listdir(here / "out") and not lines
        return
    message = _check_failure(status, lines, usage, here / "out")
    if message is None:
        return
    paths = "|".join(re.escape(str(path)) for path in (trace_path, table_path) if path)
    reader_errors = []
    for reader, path in readers:
        try:
            reader(str(path))
        except sttsim.SttsimError as exc:
            reader_errors.append(str(exc))
    if message.startswith("--seed "):
        assert f"--trace {trace_path}" in message
    elif reader_errors:  # the first reader to fail, by its own error: the file, and its line for a parse error
        assert message == reader_errors[0]
        assert re.match(rf"cannot read (trace|tech table) ({paths}): |({paths}):[0-9]+: ", message)
    else:  # the study's, about the records or the table
        assert re.match(rf"({paths}): ", message)


_GEN_FLAGS = ["--seed", "--num-cores", "--accesses-per-core", "--read-fraction", "--working-set-blocks", "--line-size"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_GEN_FLAGS), _NUMBER_SOUP), max_size=4, unique_by=lambda f: f[0]))
def test_gen_trace_ends_in_a_trace_or_a_named_error(tmp_path_factory, flags):
    # at most 64 cores of at most 1000 records; a value outside a spec's range names its field
    out = tmp_path_factory.mktemp("gen") / "out"
    status, lines, usage = _run_captured(["gen-trace", *(a for flag in flags for a in flag), "--out", out / "t.trace"])
    if status == 0:
        assert len(read_trace(str(out / "t.trace"))) and not lines
        return
    message = _check_failure(status, lines, usage, out)
    assert message is None or not message.startswith("cannot write")

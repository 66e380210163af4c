#!/usr/bin/env python3
"""sttsim benchmark: host time of one workload's study, end to end and per layer.

Run from the root of a checkout (no build step; sttsim is imported from ./src):

    python3 perfbench/run.py --workload sweep-c11 --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py.  The default seed is 1; seed 7 is held
out for checking performance claims.  Each repetition is one operation: a new
interpreter (study.py) imports sttsim, loads the config and the tech table,
generates or reads the trace, runs the study and checks its results.  The
simulated caches start empty in every simulation.  Repetitions continue until
--seconds have passed (at least three).

Every time reported is scaled to a reference CPU speed: a probe per CPU the
study uses (probe.py) samples that CPU's speed every 50 ms while the study
runs there, and each timed window is scaled by the mean speed during it.

--trace 0 prints the end-to-end metrics, medians over the repetitions.
--trace 1 alternates untraced and traced repetitions and prints the per-layer
metrics, medians over the traced ones; a layer that does no work in the
workload reads 0.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Everything else (result
digest, provenance, every repetition, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REPS = 3  # untraced repetitions per --trace 0 run, however short --seconds is
HARD_LIMIT_S = 170.0  # no repetition starts or runs past this point of a run

END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "accesses_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {
        "import.sttsim_s": "s",
        "config.load_s": "s",
        "energy.table_s": "s",
        "trace.generate_s": "s",
        "trace.generate_rec_per_s": "1/s",
        "trace.read_s": "s",
        "trace.read_rec_per_s": "1/s",
        "trace.write_s": "s",
        "trace.records": "count",
        "cache.access_s.sram": "s",
        "cache.access_s.short": "s",
        "cache.expiry_overhead": "ratio",
        "cache.hit_ratio.sram": "ratio",
        "cache.hit_ratio.short": "ratio",
        "cache.expirations.short": "count",
        "cache.writebacks.short": "count",
    }
    labels = dict.fromkeys(label for w in wl.WORKLOADS.values() for label in w.candidates())
    for metric, unit in (
        ("simulate_s", "s"),
        ("accesses_per_s", "1/s"),
        ("l1_miss_ratio", "ratio"),
        ("expirations", "count"),
        ("mem_writes", "count"),
    ):
        units.update({f"hierarchy.{metric}.{label}": unit for label in labels})
    units.update(
        {
            "explore.sweep_s": "s",
            "explore.serial_sum_s": "s",
            "explore.pool_efficiency": "ratio",
            "explore.children_cpu_s": "s",
        }
    )
    units.update({f"characterize.{name}_s": "s" for name in ("rwratio", "lifetimes", "persistence", "curve")})
    units["tracing.overhead_s"] = "s"
    # the untraced repetitions' wall times before scaling, and the CPU speed they were scaled by
    units.update({"host.setup_wall_s": "s", "host.study_wall_s": "s", "host.cpu_speed": "ratio"})
    return units


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait until it is gone."""
    deadline = clock() + 10.0
    while clock() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def start_probes(cpus: list[int], run_dir: Path) -> tuple[list[subprocess.Popen], list[str]]:
    """Start one CPU speed probe per CPU and wait for the first samples (at most 10 s);
    return the probes and the --probe arguments for study.py, or no arguments if a probe gave no sample."""
    files = {cpu: run_dir / f"probe-cpu{cpu}.txt" for cpu in cpus}
    procs = [subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu), str(path)])
             for cpu, path in files.items()]
    deadline = clock() + 10.0
    while clock() < deadline and not all(path.is_file() and path.stat().st_size for path in files.values()):
        time.sleep(0.02)
    if not all(path.is_file() and path.stat().st_size for path in files.values()):
        return procs, []
    return procs, [f"--probe={cpu}:{path}" for cpu, path in files.items()]


def stop_probes(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_child(argv: list[str], timeout: float) -> dict:
    """Run study.py in a fresh interpreter; its last stdout line is a JSON object."""
    # bytecode is compiled once, by the prepare step, as in an installed package
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = clock()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "study.py"), *argv, "--spawned-at", repr(spawned)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        return {"ok": False, "error": f"exit code {proc.returncode}: {err.strip()[-2000:]}"}
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "error": f"no JSON result on stdout: {out[-500:]!r}"}
    res["ok"] = True
    return res


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_sha256() -> str:
    """Digest of every file of the sttsim package, so a checkout without git is still identified."""
    h = hashlib.sha256()
    pkg = SRC / "sttsim"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g}  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sttsim" / "__init__.py").is_file():
        print(f"error: no sttsim package under {SRC}; run from the root of an sttsim checkout",
              file=sys.stderr)
        return 2

    started = clock()
    work = wl.WORKLOADS[args.workload]
    run_dir = OUT / f"{work.name}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # the study runs on the first CPU, a sweep's fork pool on the first `jobs`
    cpus = sorted(os.sched_getaffinity(0))[:work.jobs]
    probes, probe_argv = start_probes(cpus, run_dir)
    try:
        if not probe_argv:
            print("error: a CPU speed probe gave no sample within 10 s", file=sys.stderr)
            return 1
        os.sched_setaffinity(0, cpus[:1])
        return measure(args, work, run_dir, started, cpus, probe_argv)
    finally:
        stop_probes(probes)


def measure(args, work: wl.Workload, run_dir: Path, started: float, cpus: list[int], probe_argv: list[str]) -> int:
    config_text = work.config_text(args.seed, "workload.trace" if work.study == "characterize" else None)
    config = run_dir / "study.cfg"
    config.write_text(config_text)
    provenance = {
        "workload": work.name,
        "seed": args.seed,
        "default_seed": wl.DEFAULT_SEED,
        "held_out_seed": wl.HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpus": cpus,
        "probe_reference_rate": probe.REFERENCE_RATE,
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
        "config_sha256": {"study.cfg": sha256_text(config_text)},
    }

    # untimed: compile the package's bytecode; for characterize, write the trace file
    prep_argv = ["prepare", "--workload", work.name, *probe_argv]
    if work.study == "characterize":
        gen_text = work.config_text(args.seed)
        (run_dir / "generate.cfg").write_text(gen_text)
        provenance["config_sha256"]["generate.cfg"] = sha256_text(gen_text)
        prep_argv += ["--gen-config", str(run_dir / "generate.cfg"), "--trace-file", str(run_dir / "workload.trace")]
    prep = run_child(prep_argv, HARD_LIMIT_S)
    if not prep["ok"]:
        print(f"error: prepare step failed: {prep['error']}", file=sys.stderr)
        return 1
    if Path(prep["sttsim"]).resolve().parent != (SRC / "sttsim").resolve():
        print(f"error: imported sttsim from {prep['sttsim']}, not from {SRC}", file=sys.stderr)
        return 1
    provenance["trace_sha256"] = prep.get("trace_sha256")

    reps: list[dict] = []
    loop_start = clock()
    rounds = 0
    while True:
        for traced in (False, True) if args.trace else (False,):
            argv = ["study", "--workload", work.name, *probe_argv, "--config", str(config)]
            rep = run_child(argv + (["--traced"] if traced else []), HARD_LIMIT_S - (clock() - started))
            rep["traced"] = traced
            reps.append(rep)
        rounds += 1
        per_round = (clock() - loop_start) / rounds
        if clock() - started + per_round > HARD_LIMIT_S:
            break
        if rounds >= (1 if args.trace else MIN_REPS) and clock() - loop_start + per_round > args.seconds:
            break

    # failure accounting: a crash, a failed check, or a digest that differs from the others
    done = [r for r in reps if r["ok"]]
    digests = collections.Counter(r["digest"] for r in done)
    result_digest = digests.most_common(1)[0][0] if digests else None
    for r in reps:
        if r["ok"] and r["digest"] != result_digest:
            r["failures"].append(f"result digest {r['digest']} differs from {result_digest}")
    failed = [r for r in reps if not r["ok"] or r["failures"]]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        for r in failed:
            print(f"failed repetition: {r.get('error') or r.get('failures')}", file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    provenance.update(numpy=done[0]["provenance"]["numpy"], sttsim=done[0]["provenance"]["sttsim"])

    lines = [f"sttsim benchmark  workload={work.name}  seed={args.seed}  trace={args.trace}  "
             f"repetitions={len(reps)}  failed={len(failed)}"]
    if args.trace:
        units = per_layer_units()
        layer = {**prep["layer"]}
        for name in units:
            values = [r["layer"][name] for r in traced if name in r["layer"]]
            if values:
                layer[name] = statistics.median(values)
        layer["tracing.overhead_s"] = (statistics.median(r["study_s"] for r in traced)
                                       - statistics.median(r["study_s"] for r in plain))
        for name in ("setup_wall_s", "study_wall_s", "cpu_speed"):
            layer["host." + name] = statistics.median(r[name] for r in plain)
        not_applicable = [name for name in units if name not in layer]
        metrics = {name: {"value": layer.get(name, 0), "unit": unit} for name, unit in units.items()}
        for name, unit in units.items():
            shown = "n/a (0)" if name in not_applicable else f"{layer[name]:.6g} {unit}"
            lines.append(f"  {name:34s} {shown}")
        spans_file = OUT / f"spans-{work.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            [{"rep": i, "traced": r["traced"], "spans": r["spans"]} for i, r in enumerate(reps) if r["ok"]]
            + [{"rep": "prepare", "traced": True, "spans": prep["spans"]}]))
        lines.append(f"  spans: {spans_file.relative_to(ROOT)}")
    else:
        not_applicable = []
        per_rep = {
            "setup_s": [r["setup_s"] for r in plain],
            "study_s": [r["study_s"] for r in plain],
            "accesses_per_s": [r["work"] / r["study_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {name: {"value": statistics.median(per_rep[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for name, unit in END_TO_END_UNITS.items():
            lines.append(f"  {name:16s} [{unit}]  {spread(per_rep[name])}")
        lines.append("  unscaled wall times and the CPU speed they were scaled by:")
        for name, unit in (("setup_wall_s", "s"), ("study_wall_s", "s"), ("cpu_speed", "ratio")):
            lines.append(f"  {name:16s} [{unit}]  {spread([r[name] for r in plain])}")
    lines.append(f"result digest sha256:{result_digest}  (identical in {digests[result_digest]} of {len(reps)} repetitions)")
    for r in failed:
        lines.append(f"  failed repetition: {r.get('error') or r.get('failures')}")

    result = {"correct": not failed, "attempted": len(reps), "failed": len(failed), "metrics": metrics}
    record = {
        "provenance": provenance,
        "result_digest": result_digest,
        "not_applicable": not_applicable,
        "result": result,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    (OUT / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

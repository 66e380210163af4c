#!/usr/bin/env python3
"""Interpreted opcodes per record of one replay of a benchmark workload's trace.

Run from the root of a checkout; pytest does not collect this script:

    PYTHONPATH=src python3 tests/opcount.py sweep-expiry-writes 1e-6 --records 20000
    PYTHONPATH=src python3 tests/opcount.py characterize-tracefile sram --records 20000
    PYTHONPATH=src python3 tests/opcount.py sweep-c11 admit --records 20000

The workload (perfbench/workloads.py) gives the config and the synthetic
trace of --seed.  Its first --records records are admitted, and then one
replay is traced with sys.settrace, every opcode of every Python frame
counted: hierarchy._simulate of the workload's hierarchy with every unit at
the retention for a sweep workload, or characterize._replay of the data
stream through the workload's L1D config for characterize, the profile
replay at "sram".  The count divided by the records replayed is printed.
Admission, building the config and generating the trace are not counted.

Given "admit" in place of a retention, it counts instead the admission of
those records, check_records(trace, num_cores) of the generated trace's
prefix as a sweep admits its trace, per record admitted.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as wl  # noqa: E402

from sttsim import Technology, generate_trace, load_experiment_config, sample_tech_table  # noqa: E402
from sttsim.characterize import _replay  # noqa: E402
from sttsim.explore import with_technology  # noqa: E402
from sttsim.hierarchy import _simulate  # noqa: E402
from sttsim.trace import check_records  # noqa: E402


def count_opcodes(call) -> int:
    """The opcodes the interpreter runs in call(), in every Python frame it enters."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("retention", help='retention in seconds, "sram", or "admit" to count admission')
    parser.add_argument("--records", type=int, default=20_000, help="records of the trace to replay")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    args = parser.parse_args()

    work = wl.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "workload.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(work.config_text(args.seed))
        cfg = load_experiment_config(path)
    trace = generate_trace(cfg.synthetic)[: args.records]
    hcfg = cfg.hierarchy
    if args.retention == "admit":  # the first admission: check_records marks a Trace it finds in order
        ops = count_opcodes(lambda: check_records(trace, hcfg.num_cores))
        records = trace
    else:
        records = check_records(trace, hcfg.num_cores)
        if args.retention == "sram":
            tech, retention = Technology.SRAM, None
        else:
            tech, retention = Technology.STTRAM, float(args.retention)
        if work.study == "sweep":
            hcfg = with_technology(hcfg, tech, retention)
            table = sample_tech_table()
            ops = count_opcodes(lambda: _simulate(hcfg, records, table))
        else:
            records = records.select(records.kinds)  # the data stream
            unit_cfg = with_technology(hcfg, tech, retention).l1d[0]
            ops = count_opcodes(lambda: _replay(records, unit_cfg, hcfg.clock_hz, profile=tech is Technology.SRAM))
    print(f"{args.workload} {args.retention}: {ops / len(records):.1f} opcodes per record over {len(records)} records")


if __name__ == "__main__":
    main()

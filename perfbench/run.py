"""The echoguide benchmark: one command for every speed claim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each is a set of inputs made from --seed; see WORKLOADS):

  walk_sparse     the three bundled 20-minute scenarios (walk_20min,
                  gps_outage, offline_queue) at run seeds drawn from the
                  seed.  About 92 % of polls hit a channel with no target,
                  so the run loop and the world's timeline lookups dominate.
  obstacle_dense  a generated 20-minute course where all three channels
                  always have a target and steps cross the alert thresholds;
                  every poll draws randomness, so echo sampling, the firmware
                  filter, frames, announcements and trace volume dominate.
  tracking_mix    the tracking server on a generated store of 100k fixes
                  over 20 walkers, queried by a guardian client: 45 % latest
                  fix + map, 45 % history(limit=50) + track, 10 % posted fixes.

Each workload does only its own work, and every workload reports every
gated end-to-end metric:

  setup_s      the program's own set-up, median of several.  Simulators:
               scenario_from_dict on each scenario plus load_config.
               tracking_mix: spawning the server on a copy of the store
               until its first successful answer (this loads the store).
  op_ms_p50    host ms per operation, median over samples.  Simulators: one
               20-minute simulated walk (run_scenario then
               TraceLog.to_jsonl), per round; a round walks each of the
               workload's scenarios once.  tracking_mix: wall ms per
               completed guardian request in a closed loop on 2
               connections (1000 / requests per second), per 1-second burst.
  peak_mem_mb  simulators: tracemalloc peak of one walk (untimed pass);
               tracking_mix: the server process's VmHWM.

Beside them, not gated, `info.ungated` gives walk_ms_p50 (the simulators'
op_ms_p50 under its own name) or, on tracking_mix, http_rps, the server's
CPU ms per closed-loop request, and http_p50_ms and http_p90_ms: the
latency of an open loop at a fixed rate, timed from when each request was
due.  Those percentiles spread by 15-50 % between runs on the 2-vCPU host
this was tuned on, more than any bound allows.

Times and rates are scaled to a reference host speed by a probe timed next
to every sample (see sim.py); `info.as_measured` on the line before the
result gives the unscaled values.  The benchmark and the server it starts
run on one CPU, the one the probe measures; a probe during which the
server used CPU is taken again.

With --trace 1 the same work runs with every layer's public functions
wrapped (see tracing.py) and the per-layer metrics are printed instead;
the result has to carry all of them, so tracking_mix's traced run also
walks walk_20min and the simulators' traced runs check each scenario's
uploads through the tracker (claim c10).  Spans are written to
.perfbench_out/.  Every run also checks the program's outputs: the pinned
sha256 of each bundled trace and of the accuracy experiment, invariants of
every walk's trace, every HTTP answer, and the store after the server
stops.  Each check is an operation; a mismatch is a
failed one.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
# What the benchmark needs from the checkout besides itself.
NEEDED = ("src/echoguide/__init__.py", "configs/default.json", "scenarios/walk_20min.json",
          "scenarios/gps_outage.json", "scenarios/offline_queue.json")


def src_line_count() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny store and few set-up repeats, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # A terminated run still stops the server it started (see the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in NEEDED:
        if not (ROOT / need).is_file():
            print(f"perfbench: {need} not found; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    # All timed work, the server included, runs on one CPU, so that the probe
    # that scales every time (see sim.probe_ms) measures the CPU it ran on.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)  # the walks' throwaway stores stay in the checkout
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, args.smoke, work)
        if args.trace:
            metrics, dump = run.measure_traced()
            raw = ungated = None
        else:
            (measured, ungated), dump = run.measure(), None
            metrics = {name: (value, unit) for name, (value, _, unit) in measured.items()}
            raw = {name: as_measured for name, (_, as_measured, _) in measured.items()}
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "src_lines": src_line_count(),
        "python": platform.python_version(), "nproc": nproc, "cpu": cpu,
    }
    if raw is not None:
        info["as_measured"] = raw
        info["ungated"] = {name: {"value": value, "unit": unit}
                           for name, (value, unit) in ungated.items()}
    if dump is not None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"info": info, **dump}, fh)
        info["spans"] = str(out.relative_to(ROOT))
    for reason in run.tally.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

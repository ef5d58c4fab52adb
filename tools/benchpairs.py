"""Paired benchmark runs of a parent tree against a change tree.

    python3 tools/benchpairs.py PARENT CHANGE --pr N [--pairs 10]

Make each tree with `git archive <rev> | tar -x -C <dir>`: a whole
checkout, with its own perfbench/.  For every workload in the change
tree's BENCHMARK.json, pair i runs both trees' perfbench/run.py,
unchanged, for BENCHMARK.json's run_seconds at seed i + 1, one after the
other, and the tree that runs first alternates from pair to pair.

The result goes to BENCH_<pr>.json at the change tree's root:

- for each workload and gated metric (BENCHMARK.json's end_to_end): each
  side's values by seed, their median and interquartile range, the pairs
  the change wins, the change in the median, and a verdict.  The verdict
  is "better" or "worse" when the change wins, or loses, at least 9 pairs
  in 10 and moves the median by more than the parent's interquartile
  range; otherwise the spreads overlap more than the change, and it is
  "unresolved";
- each run's seed, correct flag and failed operations;
- each side's git tree ids of src/ and perfbench/, which equal
  `git rev-parse <rev>:src` and `<rev>:perfbench`, its src/ line count,
  the hashes of its pinned outputs (perfbench/sim.pinned_outputs) and
  whether they equal its perfbench/pins.json, and the Python version and
  nproc the runs reported.

Standard library only; pytest does not collect it, and perfbench does not
use it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9  # of the pairs, for a verdict other than "unresolved"
PINS = """\
import json, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import sim
pins = sim.load_pins()
print(json.dumps(sim.pinned_outputs(Path("scenarios"), sorted(pins["bundled"]))))
"""


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the tree's perfbench/run.py: its info line and result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"benchpairs: {tree}: {workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(info_line)["info"], **json.loads(result_line)}


def pinned(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", PINS], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    outputs = json.loads(done.stdout)
    with open(tree / "perfbench" / "pins.json", encoding="utf-8") as fh:
        pins = json.load(fh)
    return {"outputs": outputs,
            "match_pins_json": all(outputs[key] == pins[key] for key in ("bundled", "experiment"))}


def git_tree_id(directory: Path) -> str:
    """The id git gives the directory as a tree of regular files, leaving
    out __pycache__, which running the benchmark adds."""
    entries = []
    for path in directory.iterdir():
        if path.is_dir():
            if path.name != "__pycache__":
                entries.append((path.name + "/", b"40000", git_tree_id(path)))
        else:
            data = path.read_bytes()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            mode = b"100755" if os.access(path, os.X_OK) else b"100644"
            entries.append((path.name, mode, blob))
    body = b"".join(mode + b" " + name.rstrip("/").encode() + b"\0" + bytes.fromhex(oid)
                    for name, mode, oid in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The two sides of one metric over the pairs, and the verdict."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    moved = after["median"] - before["median"]
    verdict = "unresolved"
    if abs(moved) > before["iqr"]:
        if wins >= WIN_SHARE * len(parent) and (moved < 0) == lower:
            verdict = "better"
        elif losses >= WIN_SHARE * len(parent) and (moved > 0) == lower:
            verdict = "worse"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": before, "change": after, "wins": wins, "losses": losses,
            "median_change": moved / before["median"] if before["median"] else None,
            "verdict": verdict}


def run_workload(trees: dict[str, Path], workload: str, pairs: int, seconds: float,
                 gated: list[dict]) -> tuple[dict, dict]:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            started = time.monotonic()
            runs[side].append(bench(trees[side], workload, pair + 1, seconds))
            print(f"benchpairs: {workload} seed {pair + 1} {side}: "
                  f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    metrics = {
        metric["name"]: compare(metric, *([run["metrics"][metric["name"]]["value"]
                                           for run in runs[side]]
                                          for side in ("parent", "change")))
        for metric in gated
    }
    summary = {
        "seeds": [pair + 1 for pair in range(pairs)],
        "first": ["parent" if pair % 2 == 0 else "change" for pair in range(pairs)],
        "runs": {side: [{"seed": run["seed"], "correct": run["correct"],
                         "attempted": run["attempted"], "failed": run["failed"]}
                        for run in side_runs]
                 for side, side_runs in runs.items()},
        "metrics": metrics,
    }
    return summary, {side: side_runs[0] for side, side_runs in runs.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(trees["change"] / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]

    workloads, first_runs = {}, {}
    for workload in benchmark["workloads"]:
        workloads[workload["name"]], first_runs = run_workload(
            trees, workload["name"], args.pairs, seconds, benchmark["end_to_end"])
    sides = {side: {"src_tree": git_tree_id(tree / "src"),
                    "perfbench_tree": git_tree_id(tree / "perfbench"),
                    "src_lines": first_runs[side]["src_lines"], "pins": pinned(tree)}
             for side, tree in trees.items()}
    result = {
        "pr": args.pr,
        "python": first_runs["change"]["python"],
        "nproc": first_runs["change"]["nproc"],
        "pairs": args.pairs,
        "seconds": seconds,
        "sides": sides,
        "same_pinned_outputs": (sides["parent"]["pins"]["outputs"]
                                == sides["change"]["pins"]["outputs"]),
        "workloads": workloads,
    }
    out = trees["change"] / f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, summary in workloads.items():
        for metric, verdict in summary["metrics"].items():
            print(f"{name} {metric}: {verdict['parent']['median']:.4g} -> "
                  f"{verdict['change']['median']:.4g} {verdict['unit']}, "
                  f"{verdict['wins']}/{args.pairs} wins, {verdict['verdict']}")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

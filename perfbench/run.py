"""Run one workload of the end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload run-all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the benchmark imports the package from
``src/`` there.  Every pass is a fresh child process
(``python -m perfbench``) timed on its own speed clock
(``perfbench/speed.py``):

* ``--trace 0``: one measuring pass (untraced operations for at least
  ``--seconds`` seconds) plus ``SETUP_REPEATS - 1`` set-up-only passes;
  prints every end-to-end metric of ``BENCHMARK.json``, with
  ``setup_s`` the median set-up time over all of them;
* ``--trace 1``: one traced pass; prints every per-layer metric.

A provenance line comes first; the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Each run also writes a record (metrics, samples, provenance) under
``.perfbench/results/``; scratch stores and caches live under
``.perfbench/work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
#: The names of ``perfbench.workloads.WORKLOADS``, repeated here because
#: this process never imports the package under test.
WORKLOADS = ("run-all", "atlas-sweep", "atlas-resume")

#: Set-up measurements per ``--trace 0`` run (the median is reported).
SETUP_REPEATS = 5

#: Wall-clock budget of one run, all passes included.
DEADLINE_S = 175.0


class PassFailed(RuntimeError):
    """A child pass exited non-zero or ran out of time."""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(work: pathlib.Path, label: str, spec: Dict[str, object],
          deadline: float) -> Dict[str, object]:
    """Run one child pass; returns its findings (``setup_s`` among
    them)."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / f"{label}.json"
    spec_path = work / f"{label}.spec.json"
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    log_path = work / f"{label}.log"
    spec_path.write_text(json.dumps(dict(
        spec, work=str(work / label), out=str(out),
        spawned=time.monotonic())))
    with open(log_path, "w") as log:
        child = subprocess.Popen(
            [sys.executable, "-m", "perfbench", str(spec_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            code = None
    if code != 0:
        tail = log_path.read_text()[-4000:]
        reason = "ran out of time" if code is None else f"exited {code}"
        raise PassFailed(f"{label} pass {reason}:\n{tail}")
    return json.loads(out.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds}
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            spawn(work, f"setup-{k}", dict(spec, mode="setup"), deadline)
            for k in range(SETUP_REPEATS - 1)]
        found = spawn(work, "main",
                      dict(spec, mode="trace" if args.trace else "measure"),
                      deadline)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = found["metrics"]
    if not args.trace:
        setups.append(found)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    absent = [entry["name"] for entry in wanted
              if entry["name"] not in metrics]
    if absent:
        print(f"perfbench: metrics not measured: {', '.join(absent)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": not found["problems"],
        "attempted": found["attempted"],
        "failed": found["failed"],
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples_s=[s["setup_s"] for s in setups],
                  setup_raw_samples_s=[s["setup_raw_s"] for s in setups],
                  scaled_walls_s=found.get("scaled"),
                  raw_walls_s=found.get("walls"), clock=found["clock"],
                  problems=found["problems"],
                  provenance=found["provenance"])
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    for problem in found["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": found["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

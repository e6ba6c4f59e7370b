"""Run one workload of the poolreg benchmark and print its metrics as JSON.

Usage, from the root of a poolreg checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs are generated from the seed (untimed set-up), then a fresh worker
process with one numerical thread runs the workload's ``poolreg`` command
lines in-process (worker.py) and the outputs are checked against
independent computations (checks.py).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the seed, the machine, the inputs and every check.  With ``--trace 1`` the
worker also makes one traced round and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
DEADLINE_S = 170.0  # the whole run, set-up included, ends within this
MAX_SECONDS = 100  # rounds start only within this, whatever --seconds says
SETUP_REPEATS = 3
MAX_ROUNDS = 64
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    return {**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC)}


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing poolreg.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import poolreg.cli"], env=child_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def run_worker(workload, workdir: Path, seconds: int, trace: bool, t_start: float):
    spec = {
        "src": str(SRC),
        "rounds": [[{"label": c.label, "argv": list(c.argv)} for c in workload.calls(r)]
                   for r in range(MAX_ROUNDS)],
        "out_root": str(workdir / "out"),
        "seconds": min(seconds, MAX_SECONDS),
        "min_rounds": workload.min_rounds,
        "trace": trace,
    }
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    log_path = workdir / "worker.log"
    with log_path.open("w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            timeout=DEADLINE_S - (time.perf_counter() - t_start),
        )
    if proc.returncode != 0:
        sys.stderr.write(log_path.read_text()[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def checked(scope: str, check, outs) -> list:
    """The outcomes of check(outs); an output it cannot read is one failure."""
    try:
        return check(outs)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [(f"{scope}.readable", (False, repr(exc)))]


def run(args, workdir: Path, t_start: float) -> dict:
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup = None if args.trace else setup_seconds()
    res = run_worker(workload, workdir, args.seconds, bool(args.trace), t_start)
    if not Path(res["poolreg"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"measured {res['poolreg']}, not the checkout's source tree")

    rounds = res["rounds"] + ([res["traced"]] if args.trace else [])
    outcomes = []
    for r in rounds:
        outcomes += [(f"{k}.exit", (code == 0, f"exit {code}")) for k, code in r["codes"].items()]
        outcomes += checked("round", workload.check_round, r["outs"])
    outcomes += checked("run", workload.check_run, [r["outs"] for r in rounds])
    failed = sum(1 for _, (ok, _) in outcomes if not ok)

    calls = workload.calls(0)
    call_s = {c.label: statistics.median(r["times"][c.label] for r in res["rounds"])
              for c in calls}
    if args.trace:
        untraced = statistics.median(r["wall_s"] for r in res["rounds"])
        metrics = dict(res["layers"])
        metrics["trace.wall_s"] = {"value": res["traced"]["wall_s"], "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": res["traced"]["wall_s"] - untraced,
                                       "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        for c in calls:
            metrics[f"call_{c.label}_rows_per_s"] = {"value": c.rows / call_s[c.label],
                                                     "unit": "rows/s"}

    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "inputs": workload.facts,
        "argv": {c.label: list(c.argv) for c in calls},
        "rounds": len(res["rounds"]), "call_s": call_s,
        "round_call_s": [r["times"] for r in res["rounds"]],
        "checks": [[name, ok, detail] for name, (ok, detail) in outcomes],
    }}))
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "poolreg" / "cli.py").is_file():
        print(f"run.py: no poolreg source tree under {SRC}; run from the root of a "
              "poolreg checkout", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

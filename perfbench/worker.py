"""Run one workload's poolreg calls in this process; write timings as JSON.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the source tree, the calls of each round (argv without --out),
the output root, the seconds to fill, the minimum number of rounds and whether
to trace.  Whole rounds are run until one more round would overrun the
seconds; a traced run makes the minimum number of untraced rounds and then one
traced round.  The peak resident set size of this process is the workload's.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time


def run_round(cli, calls, out_root, r, tracer=None):
    times, codes, outs = {}, {}, {}
    for c in calls:
        out = f"{out_root}/r{r}/{c['label']}"
        argv = list(c["argv"]) + ["--out", out]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed call
            code = repr(exc)
        times[c["label"]] = time.perf_counter() - t0
        codes[c["label"]] = code
        outs[c["label"]] = out
    return {"times": times, "codes": codes, "outs": outs}


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import poolreg.cli as cli

    rounds, out_root = spec["rounds"], spec["out_root"]
    result = {"poolreg": cli.__file__, "rounds": []}

    start = time.perf_counter()
    for r, calls in enumerate(rounds[:-1]):
        t = time.perf_counter()
        result["rounds"].append(run_round(cli, calls, out_root, r))
        result["rounds"][-1]["wall_s"] = time.perf_counter() - t
        if r + 1 < spec["min_rounds"]:
            continue
        typical = statistics.median(x["wall_s"] for x in result["rounds"])
        if spec["trace"] or time.perf_counter() - start + typical > spec["seconds"]:
            break

    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        t = time.perf_counter()
        r = len(result["rounds"])
        traced = run_round(cli, rounds[r], out_root, r, tracer)
        traced["wall_s"] = time.perf_counter() - t
        tracer.uninstall()
        result["traced"] = traced
        result["layers"] = tracer.metrics()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

"""One timed chevlat process, started fresh by run.py for every sample.

Usage: child.py <job.json>.  The job names the CLI calls to make and where
to write the result.  The parent passes its CLOCK_MONOTONIC reading at
spawn time in PERFBENCH_T0, so `setup_s` covers interpreter start-up and
the import of `chevlat.cli`.  An untraced run times the CLI calls with a
`hostspeed.Probe` running alongside and returns the probe's mean sample.
"""

import contextlib
import json
import os
import statistics
import sys
import time

job_path = sys.argv[1]
with open(job_path, encoding="utf-8") as fh:
    job = json.load(fh)

import chevlat.cli  # noqa: E402  (the import is what setup_s measures)

setup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])

import hostspeed  # noqa: E402
import numpy  # noqa: E402  (already loaded by chevlat)

src = os.path.realpath(job["src"])
if not os.path.realpath(chevlat.cli.__file__).startswith(src + os.sep):
    sys.exit(f"chevlat was imported from {chevlat.cli.__file__}, not from {src}")

result = {"setup_s": setup_s, "numpy": numpy.__version__,
          "python": sys.version.split()[0]}
tracer = None
if job["calls"] and job["trace"]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

if job["calls"]:
    probe = hostspeed.Probe()
    codes = []
    with contextlib.nullcontext() if tracer else probe:
        t0 = time.perf_counter()
        for argv in job["calls"]:
            codes.append(chevlat.cli.main(argv))
        result["wall_s"] = time.perf_counter() - t0
    result["exit_codes"] = codes
    if not tracer:
        samples = probe.samples or hostspeed.sample(5)
        result["probe_mean_s"] = statistics.fmean(samples)
        result["probe_n"] = len(samples)

if tracer is not None:
    from tracer import fire_failures, layer_metrics, top_spans

    total = tracer.totals()
    result["trace"] = {
        "metrics": layer_metrics(total, result["wall_s"]),
        "per_model": {model or "-": layer_metrics(st, 0.0)
                      for model, st in sorted(tracer.by_model.items())},
        "top_spans": top_spans(tracer),
        "missing": tracer.missing(),
        "hook_errors": tracer.hook_errors,
        "fire_failures": fire_failures(tracer, job["workload"]),
        "elements": total.extra["elements"],
        "expected_elements": tracer.expected_elements(),
        "groups": sorted(f"{k}{n}(Z/{m})" for k, n, m in tracer.touched_groups),
    }

with open(job["result"], "w", encoding="utf-8") as fh:
    json.dump(result, fh)

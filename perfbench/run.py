"""Cold-process benchmark of the chevlat CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sandwich --seed 1 --seconds 20 --trace 0

Every sample is a fresh interpreter that imports `chevlat.cli` from `src/`
and calls `chevlat.cli.main` with a generated `--config` file and an
`--out` report, one job at a time on one CPU: a closed loop with one
client.  With `--trace 0` the run starts the interpreter a few times
without running anything, to time set-up, then repeats the workload process
as many times as fit in `--seconds`, judged from the first process and at
least once, and reports medians of the end-to-end metrics.  Times are
reported at a fixed reference host speed (see hostspeed.py): `wall_ref_s`
and `cpu_ref_s` are the child's wall and CPU time scaled by its probe
thread, `setup_s` is each bare start scaled by probes the parent times just
before and after it.  The times as measured are printed next to them.
With `--trace 1` it runs one process with every public function of the
package wrapped (see tracer.py) and reports per-layer metrics instead.

Every check record is compared with reference/<workload>.json, taken at the
commit that added this benchmark; a record whose (name, model, verdict) is
missing counts as failed, and a crash or an exit code other than the
reference's fails every record.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".perfbench_out"

# The default model set of `chevlat all`: (name, mod, blocks, expect_violation).
MODELS = (
    ("SL3", 2, "1,1,1", False),
    ("SL3", 3, "1,1,1", False),
    ("SL3", 4, "1,1,1", False),
    ("SL4", 2, "1,1,1,1", False),
    ("Sp4", 2, "borel", True),
    ("Sp4", 3, "line", False),
)

# Workload -> CLI suites run one after the other in one process.  The seed
# only shuffles the order of the [model.*] sections, which changes which
# tables and contexts the process-wide caches share; sampled checks reseed
# per model, so verdicts do not depend on the order.
WORKLOADS = {
    "sandwich": ("sandwich",),
    "group_roots": ("roots", "relroots", "group"),
}
MODEL_SUITES = ("group", "sandwich")

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
# Printed by name with --trace 0 but not in the result: raw times follow the
# host's drift (see hostspeed.py).
AS_MEASURED = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s"}
SETUP_PROBES = 11
SETUP_KERNELS = 50  # probe kernels timed just before and just after each bare start
DEADLINE_S = 170.0  # every child is stopped by then, so a run ends within 180 s
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    pass


def model_order(seed: int) -> list[tuple]:
    order = list(MODELS)
    random.Random(seed).shuffle(order)
    return order


def config_text(suite: str, seed: int) -> str:
    lines = ["[run]", f"suite = {suite}", ""]
    if suite in MODEL_SUITES:
        for i, (name, mod, blocks, expect) in enumerate(model_order(seed)):
            lines += [f"[model.m{i}]", f"name = {name}", f"mod = {mod}",
                      f"blocks = {blocks}"]
            if expect:
                lines.append("expect_violation = true")
            lines.append("")
    return "\n".join(lines)


def prepare(workload: str, seed: int, out: Path) -> list[list[str]]:
    """Write the configs and return the CLI argument lists of one process."""
    calls = []
    for suite in WORKLOADS[workload]:
        cfg = out / f"{suite}.ini"
        cfg.write_text(config_text(suite, seed), encoding="utf-8")
        calls.append([suite, "--config", str(cfg), "--out", str(out / f"{suite}.report.json")])
    return calls


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(out: Path, workload: str, calls: list, trace: bool, deadline: float) -> dict:
    """Start one fresh interpreter, wait for it and return its result with
    the CPU time and peak RSS the kernel accounted to it."""
    job = out / "job.json"
    result_path = out / "result.json"
    result_path.unlink(missing_ok=True)
    job.write_text(json.dumps({"src": str(SRC), "workload": workload, "calls": calls,
                               "trace": trace, "result": str(result_path)}),
                   encoding="utf-8")
    env = child_env()
    with open(out / "child.log", "w", encoding="utf-8") as log:
        env["PERFBENCH_T0"] = repr(time.monotonic())
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job)],
                                env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    kernel = {"cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mib": usage.ru_maxrss / 1024.0}  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0 or not result_path.exists():
        tail = (out / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise ChildFailed(f"child exited with {proc.returncode}:\n{tail}", kernel)
    return {**json.loads(result_path.read_text(encoding="utf-8")), **kernel}


# -- verdicts ------------------------------------------------------------------

def load_reports(workload: str, out: Path) -> list[dict]:
    reports = []
    for suite in WORKLOADS[workload]:
        path = out / f"{suite}.report.json"
        reports.append(json.loads(path.read_text(encoding="utf-8")) if path.exists() else None)
    return reports


def verdicts(reports: list[dict]) -> list[list[str]]:
    return sorted([c["name"], c["model"], c["verdict"]]
                  for rep in reports if rep for c in rep["checks"])


def digest(report: dict) -> str:
    """SHA-256 of a report without its timing block, with models and checks
    sorted so the workload seed does not change it."""
    rep = {k: v for k, v in report.items() if k != "timing"}
    rep["config"] = dict(rep["config"], models=sorted(rep["config"]["models"], key=json.dumps))
    rep["checks"] = sorted(rep["checks"], key=lambda c: json.dumps(c, sort_keys=True))
    text = json.dumps(rep, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def checks_failed(ref: dict, exit_codes, reports) -> int:
    expected = Counter(tuple(c) for c in ref["checks"])
    if exit_codes != ref["exit_codes"] or any(r is None for r in reports):
        return sum(expected.values())
    got = Counter(tuple(c) for c in verdicts(reports))
    return sum((expected - got).values())


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text(encoding="utf-8"))


# -- run record ----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_record(sample: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": sample.get("python"),
        "numpy": sample.get("numpy"),
        "OPENBLAS_NUM_THREADS": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines(),
    }


# -- modes ---------------------------------------------------------------------

def measure(workload: str, seconds: int, out: Path, calls: list, ref: dict, deadline: float):
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        before = hostspeed.sample(SETUP_KERNELS)
        raw = run_child(out, workload, [], False, deadline)["setup_s"]
        raw_setups.append(raw)
        setups.append(raw * hostspeed.scale(before + hostspeed.sample(SETUP_KERNELS)))
    samples, attempted, failed, runs = [], 0, 0, 1
    while len(samples) < runs:
        t0 = time.monotonic()
        try:
            res = run_child(out, workload, calls, False, deadline)
            reports = load_reports(workload, out)
            res["checks_failed"] = checks_failed(ref, res["exit_codes"], reports)
            res["digests_match"] = [digest(r) for r in reports if r] == ref["digests"]
            res["scale"] = hostspeed.scale([res["probe_mean_s"]])
        except ChildFailed as exc:
            # a crash fails every expected record; its wall time is the parent's
            print(f"process failed: {exc.args[0]}", file=sys.stderr)
            res = {**exc.args[1], "wall_s": time.monotonic() - t0, "exit_codes": None,
                   "probe_mean_s": float("nan"), "scale": 1.0,
                   "checks_failed": len(ref["checks"]), "digests_match": False}
        res["wall_ref_s"] = res["wall_s"] * res["scale"]
        res["cpu_ref_s"] = res["cpu_s"] * res["scale"]
        took = time.monotonic() - t0
        samples.append(res)
        attempted += len(ref["checks"])
        failed += res["checks_failed"]
        print(f"process {len(samples)}: wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
              f"probe kernel {1e6 * res['probe_mean_s']:.1f} us, "
              f"at reference speed wall {res['wall_ref_s']:.3f} s, cpu {res['cpu_ref_s']:.3f} s, "
              f"rss {res['peak_rss_mib']:.1f} MiB, exit {res['exit_codes']}, "
              f"checks_failed {res['checks_failed']}")
        if len(samples) == 1:
            runs = max(1, round(seconds / took))
        if time.monotonic() + took > deadline:
            break
    names = ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "peak_rss_mib")
    metrics = {name: statistics.median(s[name] for s in samples) for name in names}
    metrics["setup_s"] = statistics.median(setups)
    metrics["setup_raw_s"] = statistics.median(raw_setups)
    print(f"setup samples at reference speed (s): {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"setup samples as measured (s): {' '.join(f'{s:.4f}' for s in raw_setups)}")
    print(f"report digests match reference (information only): "
          f"{all(s['digests_match'] for s in samples)}")
    (out / "untraced.json").write_text(json.dumps({"wall_s": metrics["wall_s"]}),
                                       encoding="utf-8")
    return metrics, attempted, failed, samples[0]


def traced(workload: str, out: Path, calls: list, ref: dict, deadline: float):
    res = run_child(out, workload, calls, True, deadline)
    reports = load_reports(workload, out)
    failed = checks_failed(ref, res["exit_codes"], reports)
    tr = res["trace"]
    metrics = tr["metrics"]
    layers = {k[5:-2]: v for k, v in metrics.items() if k.startswith("self.")}
    total = sum(layers.values()) or 1.0
    print(f"traced wall {res['wall_s']:.3f} s, exit {res['exit_codes']}, checks_failed {failed}")
    untraced = out / "untraced.json"
    if untraced.exists():
        base = json.loads(untraced.read_text(encoding="utf-8"))["wall_s"]
        print(f"tracing overhead: {res['wall_s'] - base:+.3f} s against the last untraced "
              f"median of {base:.3f} s")
    else:
        print("tracing overhead: no untraced run of this workload in this checkout yet")
    print("layer self time (s, share of all spans): " + ", ".join(
        f"{k} {v:.3f} ({100 * v / total:.1f}%)"
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    print("per model, nonzero per-layer metrics ('-' is outside any model suite):")
    for model, m in tr["per_model"].items():
        print(f"  {model}: " + ", ".join(
            f"{k} {v:.4g}" for k, v in m.items() if v and k != "trace.wall_s"))
    print("top self-time spans (model, span, self s, calls):")
    for model, span, self_s, calls_n in tr["top_spans"]:
        print(f"  {self_s:9.3f}  {calls_n:>9}  {model}  {span}")
    print(f"cold start: table.elements {tr['elements']}, order formula over the groups "
          f"touched {tr['expected_elements']} ({', '.join(tr['groups']) or 'none'}): "
          f"{'ok' if tr['elements'] == tr['expected_elements'] else 'MISMATCH'}")
    print(f"missing trace targets: {', '.join(tr['missing']) or 'none'}")
    for span, err in tr["hook_errors"].items():
        print(f"trace hook failed on {span}: {err}")
    if tr["fire_failures"]:
        print(f"trace self-check FAILED, never called on {workload}: "
              f"{', '.join(tr['fire_failures'])}")
    else:
        print(f"trace self-check: every target named for {workload} fired")
    with open(out / "trace.json", "w", encoding="utf-8") as fh:
        json.dump(tr, fh, indent=1, sort_keys=True)
    return metrics, len(ref["checks"]), failed, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "chevlat" / "cli.py").is_file():
        print(f"no chevlat sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for this process and every child it starts, so that a child's
    # probe thread measures the CPU its main thread runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    out = OUT_BASE / args.workload
    out.mkdir(parents=True, exist_ok=True)
    ref = load_reference(args.workload)
    calls = prepare(args.workload, args.seed, out)
    order = [f"{n}(Z/{m})[{b}]" for n, m, b, _ in model_order(args.seed)]
    print(f"workload {args.workload}, seed {args.seed}, suites "
          f"{' + '.join(WORKLOADS[args.workload])}, model order {' '.join(order)}, CPU {cpu}")
    try:
        if args.trace:
            from tracer import PER_LAYER as units
            metrics, attempted, failed, sample = traced(args.workload, out, calls, ref, deadline)
        else:
            units = END_TO_END
            metrics, attempted, failed, sample = measure(
                args.workload, args.seconds, out, calls, ref, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc.args[0]}", file=sys.stderr)
        return 1
    record = run_record(sample)
    (out / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("run record: " + ", ".join(f"{k} {v}" for k, v in record.items()))
    for name, unit in {**units, **({} if args.trace else AS_MEASURED)}.items():
        print(f"{name:32s} {metrics[name]} {unit}")
    print(f"{'checks':32s} {attempted} count (expected records, summed over processes)")
    print(f"{'checks_failed':32s} {failed} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the verdict reference that run.py checks every process against.

Usage, from the root of a checkout: python3 perfbench/record_reference.py [workload ...]

Runs each workload once, untraced, in a fresh interpreter and writes
reference/<workload>.json: the exit codes, the sorted (name, model, verdict)
list of every check record, and the digest of each report without its
timing block (information only).  Rerun it only when a change is meant to
alter verdicts, and say so in that change.
"""

import json
import sys
import time

import run


def record(workload: str) -> dict:
    out = run.OUT_BASE / workload
    out.mkdir(parents=True, exist_ok=True)
    calls = run.prepare(workload, 0, out)
    res = run.run_child(out, workload, calls, False, time.monotonic() + 900)
    reports = run.load_reports(workload, out)
    return {
        "workload": workload,
        "exit_codes": res["exit_codes"],
        "checks": run.verdicts(reports),
        "digests": [run.digest(r) for r in reports],
    }


def main() -> None:
    for workload in sys.argv[1:] or sorted(run.WORKLOADS):
        ref = record(workload)
        print(f"{workload}: {len(ref['checks'])} records, exit codes {ref['exit_codes']}")
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        checks = ",\n  ".join(json.dumps(c) for c in ref.pop("checks"))
        head = json.dumps(ref, indent=1)[:-2]  # reopen the object to append the list
        path.write_text(f'{head},\n "checks": [\n  {checks}\n ]\n}}\n', encoding="utf-8")


if __name__ == "__main__":
    main()

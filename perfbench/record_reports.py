"""Record the sha256 of the ``verify all --jobs 1`` report for every grid
window the verify workloads use, into reports.json.

    python3 perfbench/record_reports.py

Run it from a checkout of the commit whose reports are the reference.
Each report must already pass the semantic gate: exit code 0, the printed
THM4 and THM5 readings failing, every other identity passing.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    recorded = {}
    for window in (None,) + workloads.WINDOWS:
        key = workloads.window_key(window)
        request = {"kind": "verify", "window": key, "argv": workloads.verify_argv(window, 1)}
        res, t0, t_end, error = run.spawn(request, run.RUN_LIMIT_S)
        if res is None or not res.get("ok"):
            print(f"{key}: {error or res.get('error')}", file=sys.stderr)
            return 1
        problem = workloads.check(request, res, {key: res["report_sha256"]})
        if problem:
            print(f"{key}: {problem}", file=sys.stderr)
            return 1
        recorded[key] = res["report_sha256"]
        print(f"{key}: {res['items']} points, {t_end - t0:.1f} s", flush=True)
    with open(workloads.REPORTS_FILE, "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

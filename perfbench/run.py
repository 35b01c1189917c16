"""polycauchy benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Requests come in cycles from the seeded
stream of the workload (workloads.py); each runs in a fresh interpreter
that imports polycauchy from ``src`` and calls its public API
(worker.py), one request in flight at a time, for as many whole cycles as
fit in ``--seconds``.  Every request's outputs are checked; a request that
fails or gives a wrong answer counts as failed and takes the worst value
of every metric it touches: no items, infinite latency, no RSS.

Request time is CPU time at the reference host speed.  CPU time is what
the request's process (its threads and reaped children included) used
from spawn to "request done"; on a dedicated core that is the request's
latency.  On a shared virtual machine the wall clock also counts the time
the host gives the vCPU to someone else (steal), and even CPU time drifts
by a quarter over minutes with the load of the host's other tenants.
So between requests the benchmark times a fixed piece of pure
Python work of its own in a fresh interpreter (calibrate.py, independent
of polycauchy) and scales each request's times by CAL_REF_S over the
median time of that work around the request (`set_scales`): the result
is the time on a host where that work takes CAL_REF_S.  (The same work timed in the long-lived benchmark
process does not follow the drift: what slows down is the cold process.)
The raw CPU and wall-clock figures are printed alongside, but they are
not metrics.  A change that runs a request's work on several cores in
parallel lowers its wall time, not its CPU time: such a change must show
its gain on the wall-clock line.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` each request runs once untraced and once traced, and the
last line holds the per-layer metrics (means per traced request; wall
times of spans, not scaled) and ``trace.overhead_ratio``, traced over
untraced ``items_per_cpu_s`` on the same requests.  Span files of the
traced requests are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# a run must be over within 180 s: no request may run past this point
RUN_LIMIT_S = 170.0
# median CPU seconds of one calibrate.py run on the reference host, a
# 2.1 GHz Xeon vCPU; before the first request the benchmark calibrates for
# CAL_FIRST_S, after each request for CAL_SHARE of the request's CPU time
# (at least CAL_MIN_RUNS runs), and it scales a request by the median of
# the at least CAL_WINDOW calibration runs nearest to it
CAL_REF_S = 0.080
CAL_FIRST_S = 1.0
CAL_SHARE = 0.15
CAL_MIN_RUNS = 3
CAL_WINDOW = 20


def calibrate(budget: float) -> list:
    """CPU seconds of calibrate.py runs, run one after the other until
    they add up to `budget`."""
    times = []
    while len(times) < CAL_MIN_RUNS or sum(times) < budget:
        out = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")],
                             capture_output=True, text=True, check=True, timeout=60).stdout
        times.append(float(out))
    return times


class Outcome:
    """One request as the benchmark saw it.  `cpu` and `wall` are the CPU
    and the wall-clock seconds from spawn to "request done" (or to the
    failure), `setup` the CPU seconds from spawn to "import done"; a
    failed request has no items, infinite latency and no RSS."""

    def __init__(self, request, ok, items=0, cpu=0.0, wall=0.0, setup=None, rss_kb=None,
                 error=None, layers=None):
        self.request = request
        self.ok = ok
        self.items = items if ok else 0
        self.latency = cpu if ok else math.inf
        self.cpu = cpu
        self.wall = wall
        self.setup = setup
        self.scale = 1.0
        self.rss_kb = rss_kb if ok else None
        self.error = error
        self.layers = layers


def spawn(request: dict, timeout: float, trace_file=None) -> tuple:
    """Run one request in a fresh worker; (worker result or None, spawn
    time, end time, error)."""
    payload = dict(request, root=ROOT, trace_file=trace_file)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(payload)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, t0, time.monotonic(), "timed out"
    t_end = time.monotonic()
    try:
        return json.loads(out.strip().splitlines()[-1]), t0, t_end, None
    except (IndexError, ValueError):
        return None, t0, t_end, f"worker exit {proc.returncode}: {err.strip()[-300:]}"


def execute(request: dict, reports: dict, timeout: float, trace_file=None) -> Outcome:
    res, t0, t_end, error = spawn(request, timeout, trace_file)
    if res is None:
        # no CPU reading from the worker: charge it the wall-clock time
        return Outcome(request, False, cpu=t_end - t0, wall=t_end - t0, error=error)
    wall = res["t_done"] - t0 if "t_done" in res else t_end - t0
    cpu = res.get("c_done", wall)
    setup = res.get("c_import")
    if not res.get("ok"):
        return Outcome(request, False, cpu=cpu, wall=wall, setup=setup, error=res.get("error"))
    problem = workloads.check(request, res, reports)
    return Outcome(request, problem is None, items=res["items"], cpu=cpu, wall=wall, setup=setup,
                   rss_kb=res["rss_kb"], error=problem, layers=res.get("layers"))


def _run(request: dict, reports: dict, deadline: float, trace_file=None) -> Outcome:
    outcome = execute(request, reports, deadline - time.monotonic(), trace_file)
    status = "ok" if outcome.ok else f"FAILED: {outcome.error}"
    shown = {k: v for k, v in request.items() if k != "argv"}
    print(f"  {'traced ' if trace_file else ''}request {json.dumps(shown)}: "
          f"{outcome.cpu:.3f} s CPU, {outcome.wall:.3f} s wall, {outcome.items} items, {status}",
          flush=True)
    return outcome


def measure(cycles, seconds: float, reports: dict, deadline: float) -> tuple:
    """Closed loop over whole cycles: send the next request when the
    previous one is done, and start another cycle only while the mean
    cycle so far still fits in `seconds`; always at least one cycle.
    Calibrates before the first request and after each; returns the
    outcomes and the calibration blocks, where request i ran between
    blocks i and i + 1.  Past `deadline` no request is sent."""
    outcomes, blocks = [], [calibrate(CAL_FIRST_S)]
    start = time.monotonic()
    done = 0
    for cycle in cycles:
        for request in cycle:
            if time.monotonic() >= deadline:
                return outcomes, blocks
            outcomes.append(_run(request, reports, deadline))
            blocks.append(calibrate(min(CAL_SHARE * outcomes[-1].cpu, deadline - time.monotonic())))
        done += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / done > seconds:
            break
    return outcomes, blocks


def set_scales(outcomes: list, blocks: list) -> None:
    """Scale request i by CAL_REF_S over the median of the calibration
    blocks next to it (i and i + 1, then i - 1 and i + 2, ...), taken
    until they hold CAL_WINDOW runs or there are no more."""
    for i, outcome in enumerate(outcomes):
        times, lo, hi = [], i, i + 1
        while len(times) < CAL_WINDOW and (lo >= 0 or hi < len(blocks)):
            times += (blocks[lo] if lo >= 0 else []) + (blocks[hi] if hi < len(blocks) else [])
            lo, hi = lo - 1, hi + 1
        outcome.scale = CAL_REF_S / statistics.median(times)


def measure_traced(cycles, seconds: float, reports: dict, deadline: float, prefix: str) -> tuple:
    """Each request runs untraced and then traced, until `seconds` have
    passed; returns the untraced and the traced outcomes."""
    plain, traced = [], []
    start = time.monotonic()
    for request in (r for cycle in cycles for r in cycle):
        plain.append(_run(request, reports, deadline))
        traced.append(_run(request, reports, deadline, f"{prefix}-{len(traced)}.tsv"))
        if time.monotonic() - start >= seconds:
            break
    return plain, traced


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the latency at the highest percentile
    with at least ten samples above it; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(outcomes: list, scaled: bool = True) -> dict:
    """The end-to-end metrics; each request's times multiplied by its
    `scale` if `scaled`."""
    scale = [o.scale if scaled else 1.0 for o in outcomes]
    cpu = sum(f * o.cpu for f, o in zip(scale, outcomes))
    latencies = [f * o.latency for f, o in zip(scale, outcomes)]
    setups = [f * o.setup for f, o in zip(scale, outcomes) if o.setup is not None]
    rss = [o.rss_kb for o in outcomes if o.rss_kb is not None]
    tail_value = tail(latencies)[0]
    return {
        "items_per_cpu_s": (sum(o.items for o in outcomes) / cpu, "1/s"),
        "request_cpu_p50_s": (statistics.median(latencies), "s"),
        "request_cpu_tail_s": (tail_value, "s"),
        "ok_share": (sum(o.ok for o in outcomes) / len(outcomes), "share"),
        "peak_rss_mb": (max(rss) * 1024 / 1e6 if rss else None, "MB"),
        "setup_s": (statistics.median(setups) if setups else None, "s"),
    }


_MAX_KEYS = ("families.max_order", "series.max_coeff_bits")


def per_layer(traced: list, overhead_ratio: float) -> dict:
    """Means over the traced requests; maxima for the two max_ metrics."""
    layers = [o.layers for o in traced if o.ok and o.layers]
    out = dict.fromkeys(tracer.PER_LAYER, 0.0)
    for k in out.keys() & (layers[0].keys() if layers else set()):
        values = [d[k] for d in layers]
        out[k] = max(values) if k in _MAX_KEYS else sum(values) / len(values)
    out["trace.overhead_ratio"] = overhead_ratio
    return {k: (out[k], tracer.metric_unit(k)) for k in tracer.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polycauchy", "__init__.py")):
        print(f"error: no polycauchy sources under {ROOT}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    reports = workloads.load_reports()
    cycles = workloads.cycles(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        prefix = os.path.join(OUT_DIR, f"{args.workload}-spans")
        plain, traced = measure_traced(cycles, args.seconds, reports, deadline, prefix)
        outcomes = plain + traced
        base = end_to_end(plain)["items_per_cpu_s"][0]
        ratio = end_to_end(traced)["items_per_cpu_s"][0] / base if base else 0.0
        metrics = per_layer(traced, ratio)
    else:
        outcomes, blocks = measure(cycles, args.seconds, reports, deadline)
        set_scales(outcomes, blocks)
        metrics = end_to_end(outcomes)
        _, pct, n = tail([o.latency for o in outcomes])
        print(f"request_cpu_tail_s is the p{pct:.1f} latency of {n} requests")
        cal = [t for block in blocks for t in block]
        print(f"calibration: median {statistics.median(cal):.5f} s over {len(cal)} runs;"
              f" requests scaled by {' '.join(f'{o.scale:.4f}' for o in outcomes)}")
        raw = {name: value for name, (value, _) in end_to_end(outcomes, scaled=False).items()}
        walls = [o.wall if o.ok else math.inf for o in outcomes]
        print(f"not metrics: raw CPU {raw['items_per_cpu_s']:.4g} items/s, p50 {raw['request_cpu_p50_s']:.4g} s,"
              f" tail {raw['request_cpu_tail_s']:.4g} s, setup {raw['setup_s']} s;"
              f" wall clock {sum(o.items for o in outcomes) / sum(o.wall for o in outcomes):.4g}"
              f" items/s, p50 {statistics.median(walls):.4g} s, tail {tail(walls)[0]:.4g} s;"
              f" CPU / wall {sum(o.cpu for o in outcomes) / sum(o.wall for o in outcomes):.3f}")

    failed = sum(not o.ok for o in outcomes)
    print(f"{failed} of {len(outcomes)} requests failed (failed_share {failed / len(outcomes):.3f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

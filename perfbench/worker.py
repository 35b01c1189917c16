"""One cold request against polycauchy, run in a fresh interpreter.

    python3 perfbench/worker.py '<request json>'

The request names the checkout root; polycauchy is imported from its
``src`` directory.  The worker prints one JSON line: monotonic-clock
timestamps and the CPU seconds used so far (`cpu_now`) at "import done"
and at "request done", the peak RSS up to the end of the request, the
outputs the benchmark checks, and, when the request is traced, the
per-layer metrics.  Anything the worker does after
"request done" (reading back the report, the Sheffer reference
expansion, writing the trace) is outside the measured latency.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def cpu_now() -> float:
    """CPU seconds (user + system) this process has used since it was
    spawned, all its threads and every child process it has reaped
    included."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _family_call(fam, family: str, params: dict):
    """n -> polynomial, called the way `polycauchy table` calls it."""
    if family == "mixed":
        return lambda n: fam.mixed_A(n, params["r"], params["k"])
    if family == "poly-cauchy":
        return lambda n: fam.poly_cauchy(n, params["k"])
    if family == "narumi":
        return lambda n: fam.narumi(n, params["r"])
    if family == "bernoulli":
        return lambda n: fam.bernoulli_poly(n, params["s"])
    if family == "frobenius-euler":
        return lambda n: fam.frobenius_euler(n, params["s"], Fraction(params["lam"]))
    if family == "bernoulli2":
        return lambda n: fam.bernoulli2(n)
    raise ValueError(f"unknown family {family!r}")


def _strings(poly) -> list:
    return [str(c) for c in poly.coeffs] or ["0"]


def run_request(pc, request: dict):
    """Run the request and return finish(res), which is called after the
    clock stops and adds to res what the checks need."""
    kind = request["kind"]
    if kind == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = pc.cli.main(request["argv"])

        def finish(res):
            text = out.getvalue()
            res["exit_code"] = rc
            res["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
            docs = json.loads(text)
            docs = docs if isinstance(docs, list) else [docs]
            res["totals"] = {d["identity"]: d["totals"] for d in docs}
            res["items"] = sum(t["pass"] + t["fail"] for t in res["totals"].values())

        return finish
    if kind == "rows":
        call = _family_call(pc.families, request["family"], request["params"])
        rows = [call(n) for n in range(request["n_max"] + 1)]

        def finish(res):
            res["rows"] = [_strings(p) for p in rows]
            res["items"] = len(rows)

        return finish
    if kind == "stirling2":
        rows = [
            [pc.families.stirling2(n, m) for m in range(n + 1)]
            for n in range(request["n_max"] + 1)
        ]

        def finish(res):
            res["rows"] = [[str(v) for v in row] for row in rows]
            res["items"] = len(rows)

        return finish
    if kind == "sheffer":
        n, r, k = request["n"], request["r"], request["k"]
        pair = pc.umbral.mixed_pair(r, k, n + pc.umbral.GUARD)
        poly = pc.umbral.sheffer_by_gf(pair, n)

        def finish(res):
            res["poly"] = _strings(poly)
            res["reference"] = _strings(pc.families.mixed_A(n, r, k))
            res["items"] = 1

        return finish
    raise ValueError(f"unknown request kind {kind!r}")


def main(argv: list) -> int:
    request = json.loads(argv[0])
    root = request["root"]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(root, "src"), here]
    res: dict = {"ok": False}
    try:
        import polycauchy
        import polycauchy.cli
    except ImportError as exc:
        res["error"] = f"cannot import polycauchy from {root}/src: {exc}"
        print(json.dumps(res))
        return 1
    res["t_import"] = time.monotonic()
    res["c_import"] = cpu_now()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(polycauchy.__file__).startswith(src + os.sep):
        res["error"] = f"polycauchy was imported from {polycauchy.__file__}, not {src}"
        print(json.dumps(res))
        return 1

    tracer = None
    if request.get("trace_file"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(polycauchy)
    try:
        finish = run_request(polycauchy, request)
        res["t_done"] = time.monotonic()
        res["c_done"] = cpu_now()
        res["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception as exc:  # the request failed; report it, do not crash
        res["t_done"] = time.monotonic()
        res["c_done"] = cpu_now()
        res["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        res["traceback"] = traceback.format_exc(limit=-3)
        print(json.dumps(res))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        from tracer import layer_metrics

        res["layers"] = layer_metrics(tracer.spans, tracer.root_algebra)
        tracer.write(request["trace_file"])
    finish(res)
    res["ok"] = True
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

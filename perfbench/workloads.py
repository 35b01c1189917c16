"""Seeded request streams and the correctness gate for each workload.

A stream is an endless, deterministic sequence of cycles of requests,
built from the seed alone; the program sees only these requests.  Every
request runs in its own fresh interpreter (see worker.py), one at a time:
a closed loop with one client.  A run measures whole cycles, so that
runs with different seeds do the same kinds of work in the same
proportions.

- ``verify-all``: ``polycauchy verify all --jobs 1``.  Seed 0 keeps the
  default grids, one request per cycle.  Any other seed walks the six
  grid windows below in seeded order, one window per request, one cycle
  of six per run.  Inside r -1..4, k -3..2 and s 1..4 every identity
  passes except the printed THM4 and THM5 readings, which fail by design.
- ``verify-all-jobs2``: the same requests with ``--jobs 2``; the report
  must be byte-identical to the ``--jobs 1`` one.
- ``deep-expand``: cycles of 26 cold library requests with seeded
  parameters, in seeded order: rows 0..N of six polynomial families past
  the CLI's old degree-32 ceiling, Stirling-2 rows, and ``sheffer_by_gf``
  expansions of the mixed pair.  Every cycle holds the same number of
  requests of each kind at the same sizes (`DEEP_CYCLE`), and the seed
  draws each request's parameters from a set whose members cost about the
  same (within some 15 % at these sizes), so that a cycle costs about the
  same whatever the seed: some 33 s of CPU on a 2.1 GHz Xeon vCPU.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import oracle

# the r and k windows shift together
RK_WINDOWS = (((-1, 2), (-3, 0)), ((0, 3), (-2, 1)), ((1, 4), (-1, 2)))
S_WINDOWS = ((1, 3), (2, 4))
WINDOWS = tuple((r, k, s) for (r, k), s in itertools.product(RK_WINDOWS, S_WINDOWS))

# identities whose printed reading must fail on every grid the benchmark uses
PINNED_FAILING = ("THM4", "THM5")

FAMILY_KINDS = ("mixed", "poly-cauchy", "narumi", "bernoulli", "frobenius-euler", "bernoulli2")
LAMBDAS = ("2", "-1", "1/2", "3", "-1/3")

# One deep-expand cycle: (kind, requests, N), sized so that all but the
# mixed and poly-Cauchy rows cost about the same (some 1.1 s of CPU each
# on a 2.1 GHz Xeon vCPU; those two cost about twice as much at any N past
# 32).  With costs that even, the median and the tail request lie inside
# one broad band instead of on a boundary between kinds, so they do not
# jump from seed to seed.
DEEP_CYCLE = (
    ("bernoulli", 4, 46), ("frobenius-euler", 3, 46), ("stirling2", 3, 26),
    ("bernoulli2", 3, 36), ("narumi", 4, 38), ("sheffer", 4, 24),
    ("mixed", 3, 33), ("poly-cauchy", 2, 33),
)

REPORTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports.json")


def window_key(window) -> str:
    if window is None:
        return "default"
    (r0, r1), (k0, k1), (s0, s1) = window
    return f"r{r0}..{r1},k{k0}..{k1},s{s0}..{s1}"


def verify_argv(window, jobs: int) -> list:
    argv = ["verify", "all", "--jobs", str(jobs)]
    if window is not None:
        (r0, r1), (k0, k1), (s0, s1) = window
        argv += ["--r", f"{r0}..{r1}", "--k", f"{k0}..{k1}", "--s", f"{s0}..{s1}"]
    return argv


def verify_stream(seed: int, jobs: int):
    if seed == 0:
        while True:
            yield [{"kind": "verify", "window": None, "argv": verify_argv(None, jobs)}]
    rng = random.Random(seed)
    while True:
        order = list(WINDOWS)
        rng.shuffle(order)
        yield [
            {"kind": "verify", "window": window_key(w), "argv": verify_argv(w, jobs)}
            for w in order
        ]


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    """A nonzero integer in lo..hi: the parameter 0 turns the r = 0
    Narumi and k = 0 poly-Cauchy rows into much cheaper special cases."""
    return rng.choice([v for v in range(lo, hi + 1) if v != 0])


def _family_params(rng: random.Random, family: str) -> dict:
    if family == "mixed":
        return {"r": _nonzero(rng, -2, 3), "k": _nonzero(rng, -3, 3)}
    if family == "poly-cauchy":
        return {"k": _nonzero(rng, -3, 3)}
    if family == "narumi":
        return {"r": _nonzero(rng, -3, 3)}
    if family == "bernoulli":
        # s = 0 and s = 1 are cheap special cases
        return {"s": rng.randint(2, 4)}
    if family == "frobenius-euler":
        return {"s": rng.randint(1, 3), "lam": rng.choice(LAMBDAS)}
    return {}


def _deep_request(rng: random.Random, kind: str, n: int) -> dict:
    if kind == "stirling2":
        return {"kind": "stirling2", "n_max": n}
    if kind == "sheffer":
        return {"kind": "sheffer", "n": n, "r": rng.randint(0, 3), "k": rng.randint(-1, 2)}
    return {"kind": "rows", "family": kind, "params": _family_params(rng, kind), "n_max": n}


def deep_stream(seed: int):
    rng = random.Random(seed)
    while True:
        cycle = [_deep_request(rng, kind, n) for kind, count, n in DEEP_CYCLE for _ in range(count)]
        rng.shuffle(cycle)
        yield cycle


STREAMS = {
    "verify-all": lambda seed: verify_stream(seed, 1),
    "verify-all-jobs2": lambda seed: verify_stream(seed, 2),
    "deep-expand": deep_stream,
}


def cycles(workload: str, seed: int):
    if workload not in STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(STREAMS)}")
    return STREAMS[workload](seed)


# -- correctness gate -------------------------------------------------------


def load_reports() -> dict:
    with open(REPORTS_FILE) as fh:
        return json.load(fh)


def _fractions(rows) -> list:
    return [[Fraction(v) for v in row] for row in rows]


def check(request: dict, result: dict, reports: dict) -> str | None:
    """None if the outputs are right, else what is wrong."""
    kind = request["kind"]
    if kind == "verify":
        if result["exit_code"] != 0:
            return f"exit code {result['exit_code']}"
        for ident, t in result["totals"].items():
            if ident in PINNED_FAILING and not t["fail"]:
                return f"{ident}: printed reading no longer fails"
            if ident not in PINNED_FAILING and t["fail"]:
                return f"{ident}: {t['fail']} failing points"
        key = request["window"] or "default"
        if result["report_sha256"] != reports.get(key):
            return f"report for {key} differs from the recorded --jobs 1 report"
        return None
    if kind == "rows":
        return oracle.check_family_rows(request["family"], request["params"], _fractions(result["rows"]))
    if kind == "stirling2":
        return oracle.check_stirling2_rows(_fractions(result["rows"]))
    if kind == "sheffer":
        if result["poly"] != result["reference"]:
            return f"sheffer_by_gf({request}) != mixed_A"
        a0 = oracle.family_numbers("mixed", request, request["n"])[-1]
        if Fraction(result["poly"][0]) != a0:
            return f"sheffer_by_gf({request}) constant term != {a0}"
        return None
    return f"unknown request kind {kind!r}"

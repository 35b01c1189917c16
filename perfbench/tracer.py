"""Per-layer tracing of polycauchy from outside the program.

`Tracer.install` replaces the public functions of each layer at the
places they are imported and called from: a module attribute such as
``polycauchy.families.mul`` or ``polycauchy.identities.mixed_A`` is
swapped for a wrapper that records a span, and `Tracer.uninstall` puts
the originals back.  The program's source is not touched.

Layers are the package modules ``cli``, ``identities``, ``umbral``,
``families``, ``series`` and ``algebra``.  `Polynomial` methods are called
about 600k times in one ``verify all``, so algebra calls are not spans:
their count and time are added to the innermost open span instead.

Spans live in memory.  Each thread keeps its own parent stack; work that
``identities`` hands to its thread pool starts a ``worker`` span whose
parent is the span that submitted it.  A span's self time is its duration
minus the part of that interval its child spans cover, minus the
algebra and tracer time spent directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

SERIES_OPS = ("mul", "div", "int_pow", "reciprocal", "compose", "comp_inverse", "exp_series")
ALGEBRA_OPS = ("evaluate", "mul", "add", "shift")
# Polynomial attribute -> index of the counted operation in ALGEBRA_OPS
_POLY_METHODS = {"evaluate": 0, "__mul__": 1, "__rmul__": 1, "__add__": 2, "__radd__": 2, "shift": 3}
FAMILY_FUNCS = (
    "lif", "lif_neg_t", "cauchy_ratio", "bernoulli_ratio", "stirling1", "stirling2",
    "cauchy_number", "higher_cauchy", "poly_cauchy", "mixed_A", "bernoulli_poly",
    "frobenius_euler", "narumi", "bernoulli2",
)
UMBRAL_FUNCS = (
    "identity_pair", "bernoulli_pair", "exp_minus_t", "backward_delta", "mixed_pair",
    "functional", "apply_series", "_inverse_data", "sheffer_by_gf", "sheffer_by_conjugate",
    "sheffer_sequence", "sheffer_next", "sheffer_derivative", "connection_constants",
    "transfer",
)
IDENTITY_IDS = (
    "THM1", "THM2", "EQ32", "EQ34", "EQ35", "EQ36", "THM3", "THM4", "THM4_VARIANT",
    "THM5", "THM5_VARIANT", "EQ52", "THM6", "THM7", "THM8", "NARUMI_BERNOULLI",
    "SHEFFER_PAIR_EQ17", "ASSOC_EQ25",
)

PER_LAYER = (
    [f"identities.verify_s.{i}" for i in IDENTITY_IDS]
    + ["identities.self_s", "identities.points", "identities.cpu_per_wall"]
    + [f"algebra.{op}.calls" for op in ALGEBRA_OPS] + ["algebra.s"]
    + ["families.calls", "families.builds", "families.hit_ratio", "families.hit_s",
       "families.build_s", "families.stirling_s", "families.max_order"]
    + [f"series.{op}.{x}" for op in SERIES_OPS for x in ("calls", "s")]
    + ["series.self_s", "series.coeff_mults", "series.max_coeff_bits"]
    + ["umbral.calls", "umbral.s", "umbral.self_s", "umbral.sheffer_by_gf_s",
       "umbral.inverse_builds"]
    + ["cli.self_s", "trace.overhead_ratio"]
)
_UNITS = {"series.coeff_mults": "computed-count", "series.max_coeff_bits": "bits",
          "families.max_order": "order"}


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s") or ".verify_s." in name:
        return "s"
    if name.endswith("ratio") or name.endswith("per_wall"):
        return "ratio"
    return _UNITS.get(name, "count")


# (n+1)(n+2)/2 products for mul, n(n+1)/2 for the triangular solves; the
# composite operations are counted through the mul calls they make.
_MULTS = {
    "mul": lambda n: (n + 1) * (n + 2) // 2,
    "div": lambda n: n * (n + 1) // 2,
    "reciprocal": lambda n: n * (n + 1) // 2,
    "exp_series": lambda n: n * (n + 1) // 2,
}


class Span:
    __slots__ = (
        "id", "parent", "layer", "name", "key", "start", "end", "algebra_s",
        "algebra_calls", "overhead_s", "order", "bits", "items", "cpu_s",
    )

    def __init__(self, id, parent, layer, name, start=0.0, end=0.0, key=None):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.key = key
        self.start = start
        self.end = end
        self.algebra_s = 0.0
        self.algebra_calls = None  # counts per ALGEBRA_OPS, made on first call
        self.overhead_s = 0.0
        self.order = -1
        self.bits = 0
        self.items = 0
        self.cpu_s = 0.0

    def calls(self) -> list:
        return self.algebra_calls or [0] * len(ALGEBRA_OPS)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> str:
        calls = ",".join(str(c) for c in self.calls())
        return (
            f"{self.id}\t{self.parent if self.parent is not None else ''}\t{self.layer}\t"
            f"{self.name}\t{self.key or ''}\t{self.start:.9f}\t{self.end:.9f}\t"
            f"{self.algebra_s:.9f}\t{calls}\t{self.order}\t{self.bits}\t{self.items}"
        )


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs:
        for q in getattr(c, "coeffs", (c,)):
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.root_algebra = Span(None, None, "algebra", "root")
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer, name, key=None, parent=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent.id if parent else None, layer, name, key=key)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _span_wrapper(self, layer, name, fn, post=None, key=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name, key(args, kwargs) if key else None)
            cpu0 = time.process_time() if layer == "identities" else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                if layer == "identities":
                    span.cpu_s = time.process_time() - cpu0
                tracer._close(span)
            if post is not None:
                t0 = time.perf_counter()
                post(span, result)
                stack = tracer._stack()
                if stack:
                    stack[-1].overhead_s += time.perf_counter() - t0
            return result

        return traced

    def _algebra_wrapper(self, op, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            owner = stack[-1] if stack else tracer.root_algebra
            if owner.algebra_calls is None:
                owner.algebra_calls = [0] * len(ALGEBRA_OPS)
            owner.algebra_calls[op] += 1
            if getattr(local, "in_algebra", False):
                return fn(*args, **kwargs)
            local.in_algebra = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                owner.algebra_s += time.perf_counter() - t0
                local.in_algebra = False

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def task(*a, **k):
                    span = tracer._open("identities", "worker", parent=parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._close(span)

                return super().submit(task, *args, **kwargs)

        return TracedPool

    # -- installing the wrappers ------------------------------------------

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, package):
        """Wrap every layer function at each polycauchy module (and the
        package namespace) that holds a reference to it."""
        import importlib

        mods = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in ("algebra", "series", "families", "umbral", "identities", "cli")
        }

        def series_post(span, result):
            span.order = result.order
            span.bits = _coeff_bits(result)

        def verify_post(span, report):
            t = report.totals
            span.items = t["pass"] + t["fail"]

        targets = []  # (layer, name, original, post, key)
        for name in SERIES_OPS:
            targets.append(("series", name, getattr(mods["series"], name), series_post, None))
        for name in FAMILY_FUNCS:
            targets.append(("families", name, getattr(mods["families"], name), None, None))
        for name in UMBRAL_FUNCS:
            targets.append(("umbral", name, getattr(mods["umbral"], name), None, None))
        targets.append(
            ("identities", "verify", mods["identities"].verify, verify_post,
             lambda a, k: a[0] if a else k.get("identity"))
        )
        targets.append(("identities", "verify_variants", mods["identities"].verify_variants, None, None))
        targets.append(("cli", "main", mods["cli"].main, None, None))

        wrapped = {}
        for layer, name, fn, post, key in targets:
            wrapped[id(fn)] = (fn, self._span_wrapper(layer, name, fn, post, key))
        for module in list(mods.values()) + [package]:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(mods["identities"], "ThreadPoolExecutor", self._pool_class())
        poly = mods["algebra"].Polynomial
        for attr, op in _POLY_METHODS.items():
            self._patch(poly, attr, self._algebra_wrapper(op, poly.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(
                "id\tparent\tlayer\tname\tkey\tstart\tend\talgebra_s\t"
                "algebra_calls(evaluate,mul,add,shift)\torder\tbits\titems\n"
            )
            for span in self.spans:
                fh.write(span.row() + "\n")


# -- aggregation ------------------------------------------------------------


def _covered(span: Span, children: list) -> float:
    """Length of the union of the children's intervals inside the span."""
    total = 0.0
    cursor = span.start
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list) -> dict:
    """span id -> self time."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return {
        s.id: max(
            0.0,
            s.duration - _covered(s, children.get(s.id, [])) - s.algebra_s - s.overhead_s,
        )
        for s in spans
    }


def layer_metrics(spans: list, root_algebra: Span | None = None) -> dict:
    """Per-layer metrics of one traced request, keyed as in BENCHMARK.json."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    # does the span enclose real work: a series span or an algebra call?
    works = {s.id: False for s in spans}
    for s in sorted(spans, key=lambda s: s.end):
        did = works[s.id] or s.algebra_calls is not None
        works[s.id] = did
        if s.parent is not None and s.parent in works:
            works[s.parent] = works[s.parent] or did or s.layer == "series"

    m: dict = {}
    for ident in IDENTITY_IDS:
        m[f"identities.verify_s.{ident}"] = 0.0
    verify_wall = verify_cpu = 0.0
    points = 0
    for s in spans:
        if s.layer == "identities" and s.name == "verify":
            m[f"identities.verify_s.{s.key}"] = m.get(f"identities.verify_s.{s.key}", 0.0) + s.duration
            points += s.items
            if not any(a.name == "verify" for a in ancestors(s)):
                verify_wall += s.duration
                verify_cpu += s.cpu_s
    m["identities.self_s"] = sum(selfs[s.id] for s in spans if s.layer == "identities")
    m["identities.points"] = points
    m["identities.cpu_per_wall"] = verify_cpu / verify_wall if verify_wall else 0.0

    holders = spans + ([root_algebra] if root_algebra is not None else [])
    for i, op in enumerate(ALGEBRA_OPS):
        m[f"algebra.{op}.calls"] = sum(s.calls()[i] for s in holders)
    m["algebra.s"] = sum(s.algebra_s for s in holders)

    def entries(layer):
        return [
            s for s in spans
            if s.layer == layer and (s.parent is None or by_id[s.parent].layer != layer)
        ]

    fam = entries("families")
    builds = [s for s in fam if works[s.id]]
    hits = [s for s in fam if not works[s.id]]
    m["families.calls"] = len(fam)
    m["families.builds"] = len(builds)
    m["families.hit_ratio"] = len(hits) / len(fam) if fam else 0.0
    m["families.hit_s"] = sum(s.duration for s in hits)
    m["families.build_s"] = sum(s.duration for s in builds)
    m["families.stirling_s"] = sum(s.duration for s in fam if s.name.startswith("stirling"))
    m["families.max_order"] = max(
        (s.order for s in spans
         if s.layer == "series" and any(a.layer == "families" for a in ancestors(s))),
        default=0,
    )

    for op in SERIES_OPS:
        ops = [s for s in spans if s.layer == "series" and s.name == op]
        m[f"series.{op}.calls"] = len(ops)
        m[f"series.{op}.s"] = sum(s.duration for s in ops)
    series = [s for s in spans if s.layer == "series"]
    m["series.self_s"] = sum(selfs[s.id] for s in series)
    m["series.coeff_mults"] = sum(_MULTS[s.name](s.order) for s in series if s.name in _MULTS)
    m["series.max_coeff_bits"] = max((s.bits for s in series), default=0)

    umb = entries("umbral")
    m["umbral.calls"] = len(umb)
    m["umbral.s"] = sum(s.duration for s in umb)
    m["umbral.self_s"] = sum(selfs[s.id] for s in spans if s.layer == "umbral")
    m["umbral.sheffer_by_gf_s"] = sum(
        s.duration for s in spans
        if s.name == "sheffer_by_gf" and not any(a.name == "sheffer_by_gf" for a in ancestors(s))
    )
    m["umbral.inverse_builds"] = sum(
        1 for s in spans if s.name == "_inverse_data" and works[s.id]
    )
    m["cli.self_s"] = sum(selfs[s.id] for s in spans if s.layer == "cli")
    return m

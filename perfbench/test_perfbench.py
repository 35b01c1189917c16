"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import itertools
import math
import os
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def take(workload, seed, n):
    requests = (r for cycle in workloads.cycles(workload, seed) for r in cycle)
    return list(itertools.islice(requests, n))


@pytest.mark.parametrize("workload", sorted(workloads.STREAMS))
def test_generator_is_deterministic(workload):
    assert take(workload, 7, 40) == take(workload, 7, 40)
    assert take(workload, 7, 40) != take(workload, 8, 40)


def test_seed_zero_keeps_default_grids():
    for req in take("verify-all", 0, 3):
        assert req["argv"] == ["verify", "all", "--jobs", "1"]
        assert req["window"] is None


def test_every_verify_cycle_walks_all_windows_in_the_passing_ranges():
    cycle = next(workloads.cycles("verify-all", 3))
    assert sorted(r["window"] for r in cycle) == sorted(workloads.window_key(w) for w in workloads.WINDOWS)
    reqs = take("verify-all", 3, 5)
    for (r0, r1), (k0, k1), (s0, s1) in workloads.WINDOWS:
        assert -1 <= r0 < r1 <= 4 and -3 <= k0 < k1 <= 2 and 1 <= s0 < s1 <= 4
    jobs2 = take("verify-all-jobs2", 3, 5)
    assert [r["window"] for r in jobs2] == [r["window"] for r in reqs[:5]]
    assert all(r["argv"][3] == "2" for r in jobs2)


def test_every_window_has_a_recorded_report():
    reports = workloads.load_reports()
    keys = {"default"} | {workloads.window_key(w) for w in workloads.WINDOWS}
    assert set(reports) == keys


def test_no_flag_that_the_cli_is_losing():
    for workload in workloads.STREAMS:
        for req in take(workload, 5, 30):
            assert "--trunc" not in req.get("argv", [])


def test_deep_cycles_hold_the_same_kinds_and_sizes_for_every_seed():
    expected = sorted((kind, n) for kind, count, n in workloads.DEEP_CYCLE for _ in range(count))
    assert {kind for kind, _, _ in workloads.DEEP_CYCLE} == set(workloads.FAMILY_KINDS) | {"stirling2", "sheffer"}
    assert all(n > 32 for kind, _, n in workloads.DEEP_CYCLE if kind in workloads.FAMILY_KINDS)
    for seed in (0, 1, 11):
        for cycle in itertools.islice(workloads.cycles("deep-expand", seed), 5):
            assert sorted((r.get("family", r["kind"]), r.get("n_max", r.get("n"))) for r in cycle) == expected


def test_forced_failing_request_takes_the_worst_values():
    failed = run.execute({"kind": "no-such-kind"}, {}, timeout=60)
    assert not failed.ok and "no-such-kind" in failed.error
    assert failed.items == 0 and failed.latency == math.inf and failed.rss_kb is None
    assert failed.cpu > 0

    good = run.Outcome({"kind": "rows"}, True, items=10, cpu=2.0, wall=2.5, setup=0.1, rss_kb=20000)
    m = run.end_to_end([good, failed])
    assert m["items_per_cpu_s"][0] == pytest.approx(10 / (2.0 + failed.cpu))
    assert m["request_cpu_p50_s"][0] == math.inf
    assert m["request_cpu_tail_s"][0] == math.inf
    assert m["ok_share"][0] == 0.5
    assert m["peak_rss_mb"][0] == pytest.approx(20000 * 1024 / 1e6)

    only_failed = run.end_to_end([failed])
    assert only_failed["items_per_cpu_s"][0] == 0
    assert only_failed["ok_share"][0] == 0
    assert only_failed["peak_rss_mb"][0] is None


def test_times_are_scaled_to_the_reference_host():
    outs = [run.Outcome({}, True, items=4, cpu=2.0, wall=2.0, setup=0.2, rss_kb=1),
            run.Outcome({}, False, cpu=1.0, wall=1.0, setup=0.1)]
    ref = run.CAL_REF_S
    # request 0 sits between blocks 0 and 1, request 1 between 1 and 2
    blocks = [[ref * 2] * 12, [ref * 2] * 12, [ref] * 30]
    run.set_scales(outs, blocks)
    assert [o.scale for o in outs] == [0.5, pytest.approx(ref / statistics.median(blocks[1] + blocks[2]))]
    outs[1].scale = 0.5
    raw, scaled = run.end_to_end(outs, scaled=False), run.end_to_end(outs)
    assert scaled["items_per_cpu_s"][0] == pytest.approx(2 * raw["items_per_cpu_s"][0])
    assert scaled["setup_s"][0] == pytest.approx(0.5 * raw["setup_s"][0])
    assert scaled["request_cpu_p50_s"][0] == math.inf
    assert scaled["ok_share"] == raw["ok_share"] and scaled["peak_rss_mb"] == raw["peak_rss_mb"]
    times = run.calibrate(0.0)
    assert len(times) == run.CAL_MIN_RUNS and all(0 < t < 10 for t in times)


def test_no_request_is_sent_past_the_deadline():
    cycles = iter([[{"kind": "stirling2", "n_max": 3}] * 50])
    outcomes, blocks = run.measure(cycles, 999.0, {}, time.monotonic() + run.CAL_FIRST_S + 1.0)
    assert 1 <= len(outcomes) < 50 and all(o.ok for o in outcomes)
    assert len(blocks) == len(outcomes) + 1


def test_wrong_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "check", lambda request, result, reports: "mismatch")
    out = run.execute({"kind": "stirling2", "n_max": 3}, {}, timeout=60)
    assert not out.ok and out.error == "mismatch"
    assert out.items == 0 and out.latency == math.inf and out.rss_kb is None


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)  # ten samples above 29


def span(id, parent, layer, name, start, end, algebra_s=0.0, calls=None, order=-1):
    s = tracer.Span(id, parent, layer, name, start, end)
    s.algebra_s = algebra_s
    s.algebra_calls = calls
    s.order = order
    return s


def test_self_time_on_a_synthetic_tree():
    spans = [
        span(2, 1, "families", "mixed_A", 2.0, 3.0),
        span(1, 0, "identities", "worker", 1.0, 4.0, algebra_s=0.5, calls=[1, 0, 0, 0]),
        span(3, 0, "identities", "worker", 3.0, 6.0),  # overlaps span 1, another thread
        span(0, None, "identities", "verify", 0.0, 10.0, algebra_s=1.0, calls=[0, 2, 0, 0]),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10 - 5 - 1.0)  # children cover 1..6
    assert selfs[1] == pytest.approx(3 - 1 - 0.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        span(1, 0, "series", "mul", 1.0, 2.0, order=16),
        span(0, None, "families", "mixed_A", 0.0, 3.0),  # encloses a series span: build
        span(2, None, "families", "mixed_A", 4.0, 4.5),  # no work inside: hit
        span(4, 3, "families", "stirling1", 6.0, 6.5, algebra_s=0.2, calls=[0, 3, 0, 0]),
        span(3, None, "umbral", "sheffer_by_gf", 5.0, 7.0),
    ]
    m = tracer.layer_metrics(spans)
    assert m["families.calls"] == 3
    assert m["families.builds"] == 2  # the stirling1 call did algebra work
    assert m["families.hit_ratio"] == pytest.approx(1 / 3)
    assert m["families.hit_s"] == pytest.approx(0.5)
    assert m["families.build_s"] == pytest.approx(3.5)
    assert m["families.stirling_s"] == pytest.approx(0.5)
    assert m["families.max_order"] == 16
    assert m["series.mul.calls"] == 1 and m["series.coeff_mults"] == 17 * 18 // 2
    assert m["series.self_s"] == pytest.approx(1.0)
    assert m["umbral.calls"] == 1
    assert m["umbral.self_s"] == pytest.approx(1.5)
    assert m["umbral.sheffer_by_gf_s"] == pytest.approx(2.0)
    assert m["algebra.mul.calls"] == 3 and m["algebra.s"] == pytest.approx(0.2)


def test_tracer_wraps_and_restores():
    import polycauchy
    from polycauchy import families, identities, series

    mul = series.mul
    methods = {name: polycauchy.Polynomial.__dict__[name] for name in ("evaluate", "__mul__", "shift")}
    t = tracer.Tracer()
    t.install(polycauchy)
    try:
        assert families.mul is not mul and series.mul is families.mul
        identities.verify("EQ36", identities.GridSpec(n_values=(1, 2), r_values=(1,), k_values=(1,)))
    finally:
        t.uninstall()
    assert families.mul is series.mul is mul
    assert identities.mixed_A is families.mixed_A
    assert all(polycauchy.Polynomial.__dict__[name] is fn for name, fn in methods.items())
    assert tracer.IDENTITY_IDS == identities.IDENTITY_IDS
    m = tracer.layer_metrics(t.spans, t.root_algebra)
    assert m["identities.points"] == 2
    assert m["identities.verify_s.EQ36"] > 0
    assert m["families.calls"] > 0 and m["algebra.shift.calls"] > 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, tracer.metric_unit(name)) for name in tracer.PER_LAYER
    ]
    assert set(run.per_layer([], 1.0)) == set(tracer.PER_LAYER)
    good = run.Outcome({}, True, items=1, cpu=1.0, wall=1.0, setup=0.1, rss_kb=1)
    e2e = run.end_to_end([good])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
    assert sorted(w["name"] for w in bench["workloads"]) == ["deep-expand", "verify-all"]

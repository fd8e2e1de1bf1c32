"""Tests of the benchmark itself: seeding, tracing transparency, tail rule, failures.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import math
from pathlib import Path

import pytest

import report
import tracer as T
import worker
import workloads as W

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("name", report.WORKLOADS)
def test_same_seed_same_inputs(name):
    for r in (0, 1):
        assert W.make_round(name, 7, r) == W.make_round(name, 7, r)
    assert W.make_warmup(name, 7) == W.make_warmup(name, 7)
    assert W.make_round(name, 7, 0) != W.make_round(name, 8, 0)
    assert W.make_round(name, 7, 0) != W.make_round(name, 7, 1)


@pytest.mark.parametrize("name", report.WORKLOADS)
def test_traced_results_bit_identical(name, tmp_path):
    ctx = W.Context(str(tmp_path))
    item = W.make_warmup(name, 3)
    ctx.stage([item])
    plain = W.run_item(name, item, ctx)
    tr = T.Tracer()
    tr.install()
    try:
        tr.begin_item(0)
        traced = W.run_item(name, item, ctx)
        tr.end_item()
    finally:
        tr.uninstall()
    assert plain["values"] == traced["values"]
    assert len(tr.spans) > 1
    import nitsche_lab

    assert nitsche_lab.evaluate is nitsche_lab.annulus_core.evaluate
    assert not hasattr(nitsche_lab.annulus_core.evaluate, "__wrapped__")


def test_self_times_partition_the_traced_item(tmp_path):
    ctx = W.Context(str(tmp_path))
    item = W.make_warmup("certify_maps", 5)
    tr = T.Tracer()
    tr.install()
    try:
        tr.begin_item(0)
        W.run_item("certify_maps", item, ctx)
        tr.end_item()
    finally:
        tr.uninstall()
    self_s, calls, overhead = tr.self_times()
    root = tr.spans[0]
    total = root[T.END] - root[T.START]
    assert sum(self_s.values()) + overhead == pytest.approx(total, rel=1e-9)
    assert all(t >= -1e-6 for t in self_s.values())
    assert calls["quadratic_forms.prop52_certificate"] == W.CERT_RADII
    # evaluate is bound by name in several modules; all of them are traced
    assert calls["annulus_core.evaluate"] >= 4


@pytest.mark.parametrize("n", [19, 20, 21, 54, 99, 100, 101, 180, 199, 200,
                               1000, 5000, 20000])
def test_tail_percentile_rule(n):
    p = report.tail_percentile(n)
    beyond = n - math.ceil(p * n / 100.0 - 1e-9)
    if n >= 20:
        assert beyond >= 10
        if p < 99.9:
            q = p + 0.1
            assert n - math.ceil(q * n / 100.0 - 1e-9) < 10
    else:
        assert p == 50.0


def test_tail_value_on_synthetic_sample():
    values = [float(v) for v in range(1, 101)]  # 1..100 ms
    assert report.tail_percentile(100) == 90.0
    assert report.nearest_rank(values, 90.0) == 90.0
    summary = report.loop_summary([v / 1e3 for v in values], [(50, 1.0), (50, 2.0)])
    assert summary["item_tail_ms"] == pytest.approx(90.0)
    assert summary["tail_percentile"] == 90.0
    assert summary["items_per_s"] == pytest.approx(37.5)
    assert summary["item_p50_ms"] == pytest.approx((25.5 + 75.5) / 2)


def test_tail_blocks_shrug_off_one_burst():
    steady = [0.010 + 0.001 * (i % 11) for i in range(1100)]
    burst = list(steady)
    burst[100:140] = [0.1] * 40  # a stall of the host slows 40 items in a row
    tail, p, per_block = report.block_tail(burst)
    assert per_block == 275
    assert tail == report.block_tail(steady)[0] == pytest.approx(0.020)
    assert report.block_tail(burst[:400])[0] == pytest.approx(0.1)


def test_forced_bad_item_counts_in_fail_share(tmp_path, monkeypatch, capsys):
    good = W.CliItem(("construct", "--R", "2.0", "--Rstar", "1.5"), 0, "margin")
    # below the bound: the CLI refuses with exit 4, so expecting 0 must fail
    bad = W.CliItem(("construct", "--R", "2.0", "--Rstar", "1.1"), 0, "margin")
    monkeypatch.setattr(W, "make_round", lambda name, seed, r: [good, bad])
    code = worker.main(["--workload", "cli_session", "--seed", "0",
                        "--seconds", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["failed"] == 1
    assert res["attempted"] == 3  # warm-up item plus one round of two
    assert res["summary"]["fail_share"] == pytest.approx(1.0 / 3.0)


def test_benchmark_json_matches_metric_lists():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(report.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)

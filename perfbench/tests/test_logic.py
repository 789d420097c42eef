"""Tests of the benchmark's own logic: statistics, tracing, reconciliation.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import statistics
from pathlib import Path

import pytest

from perfbench import analysis, tracer as tracer_module
from perfbench.run import E2E, PER_LAYER, WORKLOADS, parse_importtime
from perfbench.stats import percentile, summarize, tail_percentile
from perfbench.tracer import Tracer, traced

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# The tail rule: the highest percentile with at least 10 samples beyond it
# ----------------------------------------------------------------------
def test_tail_percentile_picks_highest_with_ten_beyond():
    values = [float(value) for value in range(1, 101)]
    pct, value = tail_percentile(values)
    assert pct == 90.0
    assert value == pytest.approx(percentile(values, 90.0))
    assert sum(1 for sample in values if sample > value) == 10


def test_tail_percentile_moves_up_with_more_samples():
    values = [float(value) for value in range(1, 1001)]
    assert tail_percentile(values)[0] == 99.0
    values = [float(value) for value in range(1, 10_001)]
    assert tail_percentile(values)[0] == 99.9


def test_tail_percentile_none_when_too_few_or_tied():
    assert tail_percentile([float(value) for value in range(15)]) is None
    assert tail_percentile([1.0] * 500) is None
    assert tail_percentile([]) is None


def test_summarize_uses_statistics_quartiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    summary = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary["median"] == statistics.median(values)
    assert summary["spread"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert summary["n"] == len(values)
    assert summarize([2.5])["spread"] == 0.0


# ----------------------------------------------------------------------
# Self time over nested spans
# ----------------------------------------------------------------------
@pytest.fixture
def fake_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracer_module, "clock", lambda: float(next(ticks)))


def _only_lane(tracer: Tracer):
    (lane,) = tracer.snapshot()["lanes"]
    return lane


def test_self_time_subtracts_children(tmp_path, fake_clock):
    tracer = Tracer(tmp_path, main_thread=True)
    # Each enter and exit reads the clock once: the times below follow.
    root = tracer.enter("root", "bench")  # t=0
    child = tracer.enter("child", "layer.a")  # t=1
    grandchild = tracer.enter("grandchild", "layer.b")  # t=2
    tracer.exit(grandchild)  # t=3
    tracer.exit(child)  # t=4
    sibling = tracer.enter("sibling", "layer.a")  # t=5
    tracer.exit(sibling)  # t=6
    tracer.exit(root)  # t=7
    lane = _only_lane(tracer)
    aggregates = lane["aggregates"]
    assert aggregates["grandchild"]["self_s"] == 1
    assert aggregates["child"]["self_s"] == 2
    assert aggregates["sibling"]["self_s"] == 1
    assert aggregates["root"]["self_s"] == 7 - 3 - 1
    (record,) = lane["records"]
    assert record["kind"] == "root"
    assert record["breakdown"] == {"bench": 3, "layer.a": 3, "layer.b": 1}
    assert sum(record["breakdown"].values()) == record["end"] - record["start"]


def test_same_name_nesting_counts_busy_once(tmp_path, fake_clock):
    tracer = Tracer(tmp_path)
    outer = tracer.enter("evaluate", "dynamics")  # t=0
    inner = tracer.enter("evaluate", "dynamics")  # t=1
    tracer.exit(inner)  # t=2
    tracer.exit(outer)  # t=3
    values = _only_lane(tracer)["aggregates"]["evaluate"]
    assert values["calls"] == 2
    assert values["outer_calls"] == 1
    assert values["busy_s"] == 3
    assert values["self_s"] == 3


def test_wrapper_runs_hooks_inside_the_span(tmp_path):
    tracer = Tracer(tmp_path)
    seen = []
    wrapped = traced(
        tracer, lambda value: value * 2, "double", "layer",
        before=lambda t, args, kwargs: t.count("calls"),
        after=lambda t, args, kwargs, result, state: seen.append(result),
    )
    assert wrapped(21) == 42
    lane = _only_lane(tracer)
    assert lane["counters"] == {"calls": 1}
    assert lane["aggregates"]["double"]["calls"] == 1
    assert seen == [42]


def _child_work(tracer: Tracer, function) -> None:
    function()


def test_forked_process_writes_its_own_spans(tmp_path):
    tracer = Tracer(tmp_path, main_thread=True)
    work = traced(tracer, lambda: sum(range(1000)), "job", "runtime.jobs", record=True)
    with tracer.span("bench.unit", "bench"):
        process = multiprocessing.get_context("fork").Process(target=_child_work, args=(tracer, work))
        process.start()
        process.join(timeout=30)
    assert not process.is_alive()
    assert process.exitcode == 0
    tracer.flush()
    processes = analysis.load_trace(tmp_path)
    assert len(processes) == 2
    child = next(p for p in processes if p["forked"])
    (lane,) = child["lanes"]
    assert not lane["main"]
    assert lane["records"][0]["name"] == "job"
    spans, _ = analysis.merge_aggregates(processes)
    assert spans["job"]["calls"] == 1
    assert spans["bench.unit"]["calls"] == 1


# ----------------------------------------------------------------------
# Cross-process self time and the reconciliation check
# ----------------------------------------------------------------------
def _process(lanes, forked=False):
    return {"pid": 1, "forked": forked, "lanes": lanes, "extra": {}}


def _lane(main, records):
    return {"tid": 1, "main": main, "aggregates": {}, "counters": {}, "records": records,
            "mismatched_exits": 0}


def _synthetic_run():
    unit = {"kind": "root", "name": analysis.UNIT_SPAN, "layer": analysis.UNIT_LAYER,
            "start": 0.0, "end": 10.0, "self_s": 4.0, "wait": False,
            "breakdown": {"bench": 4.0, "runtime.scheduler": 6.0}}
    wait = {"kind": "span", "name": "runtime.scheduler.run", "layer": "runtime.scheduler",
            "start": 2.0, "end": 8.0, "self_s": 6.0, "wait": True}
    setup_wait = {"kind": "root", "name": "service.client.request", "layer": "service.client",
                  "start": 20.0, "end": 21.0, "self_s": 1.0, "wait": True,
                  "breakdown": {"service.client": 1.0}}
    job_one = {"kind": "root", "name": "runtime.jobs.execute", "layer": "runtime.jobs",
               "start": 2.0, "end": 6.0, "self_s": 0.0, "wait": False,
               "breakdown": {"dynamics.batched": 3.0, "rng": 1.0}}
    job_two = {"kind": "root", "name": "runtime.jobs.execute", "layer": "runtime.jobs",
               "start": 3.0, "end": 8.0, "self_s": 0.0, "wait": False,
               "breakdown": {"baselines": 5.0}}
    return [
        _process([_lane(True, [unit, wait, setup_wait])]),
        _process([_lane(False, [job_one])], forked=True),
        _process([_lane(False, [job_two])], forked=True),
    ]


def test_wait_is_handed_to_concurrent_worker_spans():
    parts = analysis.reconcile(_synthetic_run())
    assert parts["units"] == 1
    assert parts["wall_s"] == 10.0
    assert parts["unaccounted_s"] == pytest.approx(4.0)
    layers = parts["layers"]
    # Workers cover all of the 6 s wait; overlaps 4 s and 5 s split it 4:5.
    assert layers["dynamics.batched"] == pytest.approx(6 * 4 / 9 * 3 / 4)
    assert layers["rng"] == pytest.approx(6 * 4 / 9 * 1 / 4)
    assert layers["baselines"] == pytest.approx(6 * 5 / 9)
    assert layers["runtime.scheduler"] == pytest.approx(0.0)
    assert "service.client" not in layers  # outside every unit
    assert analysis.reconciles(parts, 10.0)


def test_uncovered_part_of_a_wait_stays_with_the_waiting_layer():
    run = _synthetic_run()
    run.pop()  # only the first worker: it covers 4 s of the 6 s wait
    layers = analysis.reconcile(run)["layers"]
    assert layers["runtime.scheduler"] == pytest.approx(2.0)
    assert layers["dynamics.batched"] + layers["rng"] == pytest.approx(4.0)


def test_reconciliation_check_rejects_gaps_and_negative_parts():
    parts = analysis.reconcile(_synthetic_run())
    assert analysis.reconciles(parts, 10.004)
    assert not analysis.reconciles(parts, 10.5)
    broken = dict(parts, layers=dict(parts["layers"], rng=-1.0))
    assert not analysis.reconciles(broken, 10.0)


def test_job_wait_runs_from_batch_start():
    wait, busy, batch_time = analysis.job_waits(_synthetic_run())
    assert wait == pytest.approx(((2.0 - 2.0) + (3.0 - 2.0)) / 2)
    assert busy == pytest.approx(4.0 + 5.0)
    assert batch_time == pytest.approx(6.0)


# ----------------------------------------------------------------------
# Output contract
# ----------------------------------------------------------------------
def test_importtime_parsing():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   site",
        "import time:      2000 |       2000 |           numpy.core",
        "import time:      1000 |       3000 |         numpy",
        "import time:       500 |        500 |           scipy.sparse._base",
        "import time:       400 |        400 |           scipy.sparse._csr",
        "import time:       700 |       1600 |         scipy.integrate",
        "import time:       300 |       4900 |       repro.core",
        "import time:       200 |       5100 |     repro",
        "import time:       100 |       5200 |   repro.cli",
    ])
    times = parse_importtime(sample)
    assert times["cli.import_s"] == pytest.approx(0.0052)
    assert times["cli.import_numpy_s"] == pytest.approx(0.003)
    assert times["cli.import_scipy_sparse_s"] == pytest.approx(0.0009)
    assert times["cli.import_scipy_integrate_s"] == pytest.approx(0.0016)
    assert times["cli.import_repro_self_s"] == pytest.approx(0.0006)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [item["name"] for item in spec["workloads"]] == list(WORKLOADS)
    assert {item["name"]: item["unit"] for item in spec["end_to_end"]} == E2E
    assert {item["name"]: item["unit"] for item in spec["per_layer"]} == PER_LAYER
    bounds = {item["name"]: item["bound"] for item in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())

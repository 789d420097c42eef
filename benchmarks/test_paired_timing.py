"""Tests of the interleaved A/B timing the hot-path speed gates read."""

from __future__ import annotations

import pytest

from benchmarks.paired_timing import interleaved_times, paired_speedups, ratio_summary


def test_rounds_alternate_the_call_order():
    calls = []
    callables = {name: (lambda name=name: calls.append(name)) for name in "abc"}
    interleaved_times(callables, rounds=3)
    assert calls == list("abc") + list("cba") + list("abc")


def test_each_callable_is_timed_once_per_round_and_keeps_its_last_result():
    counter = {"a": 0, "b": 0}

    def bump(name):
        counter[name] += 1
        return counter[name]

    results, times = interleaved_times({"a": lambda: bump("a"), "b": lambda: bump("b")}, rounds=4)
    assert results == {"a": 4, "b": 4}
    assert {name: len(series) for name, series in times.items()} == {"a": 4, "b": 4}
    assert all(value >= 0.0 for series in times.values() for value in series)


def test_interleaved_times_needs_a_round():
    with pytest.raises(ValueError):
        interleaved_times({"a": lambda: None}, rounds=0)


def test_speedups_pair_the_rounds():
    assert paired_speedups([3.0, 4.0, 6.0], [1.0, 2.0, 2.0]) == [3.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        paired_speedups([1.0, 2.0], [1.0])


def test_one_slow_round_does_not_move_the_median():
    # A burst of load in one round gives one low ratio; best-of blocks
    # timed apart could read it as the whole comparison.
    summary = ratio_summary([3.1, 3.0, 0.6, 3.2, 2.9, 3.0, 3.3, 3.1, 3.0])
    assert summary["median"] == 3.0
    assert summary["rounds"] == 9
    assert summary["q1"] <= summary["median"] <= summary["q3"]
    # The interval is of the median too, so the outlier stays out of it.
    assert summary["ci"][0] >= 2.9


def test_bootstrap_interval_is_seeded_and_brackets_the_median():
    ratios = [1.1, 1.3, 1.2, 1.25, 1.15, 1.4, 1.05]
    first = ratio_summary(ratios, seed=3)
    assert first == ratio_summary(ratios, seed=3)
    low, high = first["ci"]
    assert low <= first["median"] <= high
    assert min(ratios) <= low and high <= max(ratios)
    with pytest.raises(ValueError):
        ratio_summary([])

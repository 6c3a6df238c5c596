"""The committed benchmark records hold together.

Every speed claim of this project is a number in a root ``BENCH_*.json``:
the ``perfbench/run.py`` result lines of the parent commit and of the
change, and a summary of them per workload and metric.  These checks keep
each record honest: every run finished correct and without a failed job,
each summarised workload has runs of both sides, each summary median
is the median of its runs, and each summary's pair counts and change
fraction follow from those runs.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# every list of result lines a record keeps
RUN_LISTS = ("runs", "traced_runs", "earlier_runs", "repeat_runs", "block8192_runs")
SIDES = ("parent", "change")


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_run_is_correct_and_complete(path):
    rec = _load(path)
    runs = [r for key in RUN_LISTS for r in rec.get(key, [])]
    assert runs
    for r in runs:
        where = (r["side"], r["workload"], r["seed"])
        assert r["result"]["correct"] is True, where
        assert r["result"]["failed"] == 0, where


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_both_sides_for_every_summarised_workload(path):
    rec = _load(path)
    assert rec["summary"]
    for workload in rec["summary"]:
        for side in SIDES:
            assert any(r["workload"] == workload and r["side"] == side for r in rec["runs"]), (
                workload, side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_summary_medians_are_the_medians_of_the_runs(path):
    rec = _load(path)
    for workload, summary in rec["summary"].items():
        for metric, stats in summary.items():
            if not isinstance(stats, dict):  # the per-workload flags, not a metric
                continue
            for side in SIDES:
                values = [r["result"]["metrics"][metric]["value"] for r in rec["runs"]
                          if r["workload"] == workload and r["side"] == side]
                assert stats[f"{side}_median"] == statistics.median(values), (
                    workload, metric, side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_summary_pair_fields_follow_from_the_runs(path):
    """change_frac, pairs and change_wins: a pair is one seed with a run
    of each side, and the change wins it by reading lower."""
    rec = _load(path)
    for workload, summary in rec["summary"].items():
        for metric, stats in summary.items():
            if not isinstance(stats, dict):
                continue
            by_seed: dict = {}
            for r in rec["runs"]:
                if r["workload"] == workload:
                    value = r["result"]["metrics"][metric]["value"]
                    by_seed.setdefault(r["seed"], {}).setdefault(r["side"], []).append(value)
            pairs = [sides for sides in by_seed.values() if set(SIDES) <= sides.keys()]
            assert all(len(sides[s]) == 1 for sides in pairs for s in SIDES), (workload, metric)
            where = (workload, metric)
            assert stats["change_frac"] == stats["change_median"] / stats["parent_median"] - 1, where
            assert stats["pairs"] == len(pairs), where
            assert stats["change_wins"] == sum(
                sides["change"][0] < sides["parent"][0] for sides in pairs), where

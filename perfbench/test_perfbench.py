"""Tests of the benchmark's own rules (run: python3 -m pytest perfbench).

None of them simulates anything.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from metrics import (Span, Tracer, count_errors,  # noqa: E402
                     latency_summary, record_key, same_outcome, self_times,
                     tail_percentile)
from workloads import (MOVES, POOL, WORKLOADS,  # noqa: E402
                       campaign_seeds, layer_violations)


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


@pytest.mark.parametrize("n, pct", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_latency_summary_states_percentile_and_count():
    values = [float(v) for v in range(1, 101)]
    summary = latency_summary(values)
    assert summary == {"p50": 50.0, "tail_pct": 90.0, "tail": 90.0,
                       "samples": 100}
    assert latency_summary(values[:19])["tail_pct"] == 0.0


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    tracer = Tracer(FakeClock(0, 1, 2, 3, 4, 5, 9, 10))

    def leaf():
        return "leaf"

    a1 = tracer.wrap("a1", leaf)
    a = tracer.wrap("a", lambda: a1())
    b = tracer.wrap("b", leaf)
    root = tracer.wrap("root", lambda: (a(), b()))
    root()
    names = [s.name for s in tracer.spans]
    assert names == ["root", "a", "a1", "b"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [3, 2, 1, 4]
    assert list(tracer.ancestors(2)) == ["a", "root"]


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer(FakeClock(0, 10))
    root = tracer.open("root")
    tracer.close(root)
    for name, start, end in (("x", 2, 6), ("y", 4, 8), ("z", 9, 12)):
        tracer.spans.append(Span(name, start, parent=root))
        tracer.spans[-1].end = end
    assert self_times(tracer.spans)[0] == 10 - 6 - 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock(0, 1))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom, tag=lambda a, k, r, e: {"error": e})()
    assert tracer.spans[0].duration == 1
    assert isinstance(tracer.spans[0].attrs["error"], KeyError)


def _record(run_index, effect="Masked", **extra):
    record = {"benchmark": "pathfinder", "card": "RTX2060",
              "kernel": "dynproc", "structure": "register_file",
              "run": run_index, "effect": effect, "golden_cycles": 100,
              "synthesized": False, "mask": {"cycle": 7},
              "status": "completed", "passed": True, "cycles": 100,
              "message": "Test PASSED", "error": "",
              "injections": [{"core": 0}]}
    record.update(extra)
    return record


def test_error_count_one_corrupted_one_missing():
    reference = {record_key(r): r for r in map(_record, range(4))}
    records = [_record(0), _record(1, effect="SDC"), _record(3)]
    assert count_errors(records, reference) == 2
    assert count_errors(None, reference) == 4
    assert count_errors(records + [_record(9)], reference) == 3


def test_fast_paths_match_the_plain_record():
    plain = _record(0)
    converged = _record(0, terminated_at=60, stratum="lo/short")
    prescreened = {k: v for k, v in _record(0).items()
                   if k not in ("status", "passed", "cycles", "message",
                                "error", "injections")}
    prescreened.update(prescreened=True, prescreen_reason="dead")
    assert same_outcome(converged, plain)
    assert same_outcome(prescreened, plain)
    assert not same_outcome(_record(0, cycles=101), plain)
    assert not same_outcome(dict(prescreened, effect="SDC"), plain)


def test_predicted_zeros_flag_a_layer_that_did_work():
    layers = {name: 0 for name in MOVES}
    layers["batch.packs"] = 3
    problems = layer_violations("lockstep-pathfinder", layers)
    assert problems == []
    layers["checkpoint.snapshots"] = 1
    assert layer_violations("lockstep-pathfinder", layers) == [
        "checkpoint.snapshots = 1, predicted 0"]
    layers["batch.packs"] = 0
    assert any("lost its batch layer" in p
               for p in layer_violations("lockstep-pathfinder", layers))


def test_campaign_seeds_are_a_function_of_the_seed():
    def first_pass(seed):
        seeds = campaign_seeds(seed)
        return [next(seeds) for _ in POOL]

    assert first_pass(7) == first_pass(7)
    assert sorted(first_pass(7)) == sorted(POOL)
    assert first_pass(7) != first_pass(8)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {name: unit for name, (unit, _, _) in MOVES.items()}


def test_gitignore_matching():
    patterns = ["__pycache__/", "*.jsonl", "benchmarks/out_*/",
                "!keep.jsonl"]
    assert run._ignored(patterns, "perfbench/ref.jsonl")
    assert run._ignored(patterns, "perfbench/__pycache__/x.pyc")
    assert not run._ignored(patterns, "perfbench/keep.jsonl")
    assert not run._ignored(patterns, "perfbench/run.py")


def test_own_files_are_tracked_and_not_ignored():
    assert run.self_check() == []

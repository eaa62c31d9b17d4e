"""Tests of the benchmark's own logic: statistics, spans, inputs, checks.

Run with ``PYTHONPATH=src python -m pytest slotbench -q``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, covered  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestTail:
    def test_ten_samples_beyond_when_enough(self):
        values = list(range(1, 41))  # 40 samples
        value, percentile, beyond = measure.tail(values[::-1])
        assert beyond == 10
        assert value == 30
        assert sum(v > value for v in values) == 10
        assert percentile == pytest.approx(100 * 29 / 39)

    def test_never_below_the_median(self):
        for n in (1, 2, 6, 7, 20):
            values = list(range(n))
            value, _, beyond = measure.tail(values)
            assert value == values[n // 2]
            assert beyond < measure.TAIL_BEYOND

    def test_switches_to_the_rule_at_21_samples(self):
        values = list(range(21))
        value, _, beyond = measure.tail(values)
        assert (value, beyond) == (10, 10)

    def test_empty(self):
        with pytest.raises(ValueError):
            measure.tail([])


class TestSelfTime:
    def test_overlapping_and_overhanging_children(self):
        tracer = Tracer()
        parent = tracer.add("op", 0.0, 10.0)
        tracer.add("a", 1.0, 3.0, parent)
        tracer.add("b", 2.0, 5.0, parent)  # overlaps a
        tracer.add("c", 8.0, 12.0, parent)  # runs past the parent
        tracer.add("other", 0.0, 10.0)  # not a child
        # covered: [1, 5] and [8, 10] -> 6 of 10
        assert tracer.self_time(parent) == pytest.approx(4.0)

    def test_grandchildren_are_not_subtracted_twice(self):
        tracer = Tracer()
        root = tracer.add("op", 0.0, 10.0)
        child = tracer.add("solve", 2.0, 6.0, root)
        tracer.add("pi", 3.0, 4.0, child)
        assert tracer.self_time(root) == pytest.approx(6.0)
        assert tracer.self_time(child) == pytest.approx(3.0)

    def test_context_manager_nests(self):
        tracer = Tracer()
        with tracer.span("op"):
            with tracer.span("inner"):
                pass
        op, inner = tracer.spans
        assert inner.parent == 0 and op.parent is None
        assert tracer.self_time(0) == pytest.approx(op.duration - inner.duration)

    def test_covered_without_intervals(self):
        assert covered([], 0.0, 1.0) == 0.0


class TestInputs:
    def test_arrival_schedule_repeats_exactly(self):
        first = workloads.arrival_schedule(7, 1.5, 20)
        again = workloads.arrival_schedule(7, 1.5, 20)
        other = workloads.arrival_schedule(8, 1.5, 20)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)
        assert first.size == other.size == 30
        assert np.all(np.diff(first) > 0)
        assert 0 < first[0] and first[-1] < 20

    def test_derived_seeds(self):
        assert workloads.derive(3, 1, 2) == workloads.derive(3, 1, 2)
        seeds = {workloads.derive(s, 1, i) for s in range(5) for i in range(50)}
        assert len(seeds) == 250


class TestPlanCheck:
    @pytest.fixture(scope="class")
    def solved(self):
        pair = workloads.cora_pair(workloads.derive(0, 9))
        config = workloads.serve_config(3)
        engine = workloads.AlignmentEngine(config, cache=None)
        plan = engine.align(pair.source, pair.target).plan
        return plan, workloads.uniform(pair.source.n_nodes)

    def test_solved_plan_passes(self, solved):
        plan, mass = solved
        assert measure.plan_problems(plan, mass) == []
        assert measure.plan_problems(sp.csr_array(plan), mass) == []

    def test_perturbed_plan_fails(self, solved):
        plan, mass = solved
        moved = plan.copy()
        moved[0, 0] += 1e-3 * mass[0]
        assert any("row mass" in p for p in measure.plan_problems(moved, mass))
        broken = plan.copy()
        broken[1, 1] = np.nan
        assert any("non-finite" in p for p in measure.plan_problems(broken, mass))
        assert measure.plan_problems(plan[1:], mass)

    def test_partitioned_marginal_with_empty_rows(self):
        plan = sp.csr_array(np.array([[0.25, 0.25], [0.0, 0.0], [0.5, 0.0]]))
        assert measure.plan_problems(plan, np.array([0.5, 0.0, 0.5])) == []

    def test_failed_check_counts_as_failed_op(self):
        ops = [measure.Op(1.0, True, 100.0), measure.Op(2.0, False), measure.Op(None, False)]
        summary = measure.summarize(ops, 1.0)
        assert summary["failed_frac"] == pytest.approx(2 / 3)
        assert summary["samples"] == 1


class TestSpec:
    def test_listed_workloads_exist(self):
        assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)

    def test_layer_map_covers_every_layer_metric(self):
        layer_map = json.loads((HERE / "layer_map.json").read_text())["layers"]
        mapped = [m for entry in layer_map for m in entry["metrics"]]
        assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for entry in layer_map:
            for metric, workload in entry["moves"] + entry["no_change"]:
                assert metric in e2e and workload in workloads.WORKLOADS

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())

"""Tests for the benchmark's own code: python3 -m pytest bench/tests"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [
        (9, None),
        (39, None),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_reported_only_with_ten_samples_beyond_it(n, expected):
    values = [float(v) for v in range(n)][::-1]
    tail = harness.tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    percentile, value = tail
    assert percentile == expected
    assert sum(v > value for v in values) >= harness.MIN_BEYOND
    # the next percentile up would leave fewer than ten beyond
    higher = [p / 10 for p in harness.TAIL_PERMILLE if p / 10 > percentile]
    for p in higher:
        rank = -(-int(p * 10) * n // 1000)
        assert n - rank < harness.MIN_BEYOND


def _span(sid, parent, name, start, end):
    return Span(sid, parent, name, start, end, 1, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, "sweep.run_sweep", 0.0, 10.0),
        _span(2, 1, "qfi.qfi_report", 1.0, 3.0),  # children 2 and 3 overlap (worker threads)
        _span(3, 1, "qfi.qfi_report", 2.0, 5.0),
        _span(4, 1, "bounds.bound_report", 8.0, 12.0),  # clipped to the parent's end
        _span(5, 2, "qfi.qfi_general", 1.5, 2.5),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 4.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.0}
    assert tracing.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == 3.0
    assert tracing.union_length([(5.0, 6.0)], 0.0, 4.0) == 0.0


def test_totals_count_nested_calls_of_one_name_once():
    spans = [
        _span(1, 0, "figures.fig2a", 0.0, 10.0),
        _span(2, 1, "closed_forms.oat_qfi_closed", 1.0, 4.0),
        _span(3, 2, "closed_forms.oat_eta", 1.5, 2.0),
        _span(4, 1, "operators.seminorm", 5.0, 7.0),
        _span(5, 4, "operators.seminorm", 5.5, 6.0),
    ]
    totals = tracing.Totals()
    totals.add_pass(spans)
    assert totals.calls["operators.seminorm"] == 2
    assert totals.inclusive["operators.seminorm"] == 2.0
    assert totals.self["operators.seminorm"] == 2.0
    assert totals.module["closed_forms"] == 3.0
    assert totals.units["figures.fig2a"] == [10.0]


@pytest.fixture(scope="module")
def fig2a():
    from thermalqfi import sweep

    rows = sweep.run_sweep(workloads.figure_sweep_configs()["fig2a"])
    return rows, sweep.render_csv(rows)


def test_figure_rows_pass_the_gate(fig2a):
    rows, text = fig2a
    assert workloads.failed_rows(rows, text, workloads.FIGURE_DIGESTS["fig2a"]) == 0


def test_corrupted_csv_digest_fails_every_row(fig2a):
    rows, text = fig2a
    corrupted = text.replace("oat", "OAT", 1)
    assert workloads.failed_rows(rows, corrupted, workloads.FIGURE_DIGESTS["fig2a"]) == len(rows)


def test_ordering_violation_and_route_spread_fail_the_row(fig2a):
    rows, text = fig2a
    digest = workloads.FIGURE_DIGESTS["fig2a"]
    bad_order = list(rows)
    bad_order[3] = dataclasses.replace(rows[3], ordering_ok=False)
    assert workloads.failed_rows(bad_order, text, digest) == 1
    bad_spread = list(rows)
    bad_spread[5] = dataclasses.replace(rows[5], f_sld=rows[5].f_sld * (1 + 1e-6))
    assert workloads.failed_rows(bad_spread, text, digest) == 1


def test_route_spread_is_relative_to_the_largest_route():
    assert workloads.route_spread(0.0, 0.0, 0.0) == 0.0
    assert workloads.route_spread(1e-6, 1e-6, 1.1e-6) == pytest.approx(0.1 / 1.1)


def test_failed_units_and_exceptions_are_counted():
    def broken():
        raise ArithmeticError("negative QFI")

    units = [
        workloads.Unit("ok", 3, lambda: (0, None)),
        workloads.Unit("ordering", 2, lambda: (1, None)),
        workloads.Unit("raises", 4, broken),
    ]
    passes = harness.measure(units, lambda: None, seconds=0.0)
    assert harness.counts(passes) == (9, 5)


def test_traced_and_untraced_runs_give_identical_outputs():
    from thermalqfi import operators, qfi

    units = workloads.build_figures(0)
    units += [u for u in workloads.build_large_spin(7) if u.name.endswith("-100")]
    units += [u for u in workloads.build_verify(7) if u.name in ("c9", "c11")]
    plain = [harness.run_unit(u) for u in units]
    original = qfi.commutator_i
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qfi.commutator_i is not original
        traced = [tracer.unit(u.name, lambda u=u: harness.run_unit(u)) for u in units]
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert qfi.commutator_i is original and operators.commutator_i is original
    assert traced == plain
    assert all(failed == 0 for failed, _ in plain)
    assert tracer.totals.calls["encoding.generator_fd"] > 0
    assert tracer.totals.calls["numpy.linalg.eigh"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    totals = tracing.Totals()
    totals.add_pass([_span(1, 0, "figures.fig2a", 0.0, 1.0)])
    per_layer = tracing.per_layer_metrics(totals, ops=1, overhead_ratio=1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in per_layer.values()]
    sample = harness.Sample("u", 1.0, 1.0, 1.0, 1, 0)
    end_to_end = harness.end_to_end([[sample]], [sample], workloads.SmallKernel)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in end_to_end.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

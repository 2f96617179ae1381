"""The benchmark's own arithmetic, on hand-made inputs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from metrics import (  # noqa: E402
    gate,
    layer_metrics,
    median_of,
    rss_delta_mib,
    self_times_ns,
    union_length,
)
from tracing import Span  # noqa: E402


def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_length([(0, 10), (2, 3)]) == 10


def span(name, start, end, parent=-1, count=0):
    return Span(name, start, end, parent, 0, count)


def test_self_time_nested_and_overlapping_children():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 30, 60, parent=0),   # overlaps a
        span("a1", 15, 20, parent=1),  # nested in a
        span("c", 90, 120, parent=0),  # runs past its parent: clipped
    ]
    assert self_times_ns(spans) == [100 - 50 - 10, 25, 30, 5, 30]


def test_layer_self_times_account_for_the_wall():
    ms = 1_000_000
    spans = [
        span("computation", 0, 100 * ms),
        span("compute_all", 0, 80 * ms, parent=0),
        span("slice", 0, 70 * ms, parent=1),
        span("enumerate_basis", 0, 20 * ms, parent=2, count=12),
        span("components", 5 * ms, 10 * ms, parent=3),
        span("differential", 20 * ms, 40 * ms, parent=2, count=40),
        span("smith_normal_form", 40 * ms, 65 * ms, parent=2, count=3),
        span("euler_check", 80 * ms, 95 * ms, parent=0),
    ]
    out = layer_metrics(spans, 0.1)
    assert out["graph.partition_s"] == pytest.approx(0.005)
    assert out["complexes.basis_s"] == pytest.approx(0.015)
    assert out["complexes.assembly_s"] == pytest.approx(0.020)
    assert out["complexes.ns_per_nnz"] == pytest.approx(20 * ms / 40)
    assert out["homology.snf_s"] == pytest.approx(0.025)
    assert out["homology.aggregate_s"] == pytest.approx(0.015)
    assert out["chromatic.euler_s"] == pytest.approx(0.015)
    assert (out["graph.partition_calls"], out["complexes.states"], out["complexes.nnz"],
            out["homology.snf_calls"], out["homology.rank"]) == (1, 12, 40, 1, 3)
    assert out["homology.slice_sum_s"] == out["homology.slice_max_s"] == pytest.approx(0.07)
    # 5 ms of the computation span is the benchmark's own loop
    assert out["trace.accounted_frac"] == pytest.approx(0.95)


def test_median_of_keeps_counts_whole():
    out = median_of([{"rank": 7, "snf_s": 1.0}, {"rank": 7, "snf_s": 2.0}])
    assert out == {"rank": 7, "snf_s": 1.5} and isinstance(out["rank"], int)


def test_rss_delta_ignores_peaks_from_before_the_pass():
    # self peak only
    assert rss_delta_mib(20 * 1024, 52 * 1024, 3 * 1024, 3 * 1024) == 32
    # a reaped pool worker above the computing process counts
    assert rss_delta_mib(20 * 1024, 25 * 1024, 3 * 1024, 60 * 1024) == 40
    # a child peak left over from before the pass does not
    assert rss_delta_mib(20 * 1024, 25 * 1024, 300 * 1024, 300 * 1024) == 5


def record(label, groups, failures=()):
    return {"label": label, "latency_s": 0.01, "groups": groups, "failures": list(failures)}


GROUPS = [[0, 2, 1, []], [1, 1, 0, [2]]]


def test_gate_counts_each_failed_computation():
    passes = [
        {"mode": "untraced", "computations": [record("x", GROUPS), record("y", GROUPS)]},
        {"mode": "untraced", "computations": [
            record("x", GROUPS, ["euler identity"]),
            record("y", [], ["raised: ZeroDivisionError"]),
        ]},
    ]
    failed, reasons = gate(passes, {"x": GROUPS, "y": GROUPS})
    assert failed == 2 and len(reasons) == 2
    assert "euler identity" in reasons[0]


def test_gate_rejects_a_corrupted_reference():
    passes = [{"mode": "untraced", "computations": [record("x", GROUPS)]}]
    assert gate(passes, {"x": GROUPS}) == (0, [])
    corrupted = {"x": [[0, 2, 1, []], [1, 1, 0, [4]]]}
    failed, reasons = gate(passes, corrupted)
    assert failed == 1 and "stored reference" in reasons[0]
    failed, reasons = gate(passes, {})
    assert failed == 1 and "no stored reference" in reasons[0]


def test_gate_requires_traced_groups_to_equal_untraced():
    passes = [
        {"mode": "untraced", "computations": [record("x", GROUPS)]},
        {"mode": "traced", "computations": [record("x", GROUPS[:1])]},
    ]
    failed, reasons = gate(passes, {"x": GROUPS})
    assert failed == 1 and "first pass (traced)" in reasons[0]

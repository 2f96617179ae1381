"""Traced passes follow the engine's real path and reproduce its groups."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402  (puts src/ on sys.path)
from chromhom import Graph, cycle, make_deformed, make_truncated  # noqa: E402
from metrics import layer_metrics  # noqa: E402
from tracing import NullTracer, Tracer, installed  # noqa: E402
from workloads import WORKLOAD_FACTORIES, Computation, Workload, build  # noqa: E402

import chromhom.complexes as complexes  # noqa: E402
import chromhom.homology as homology  # noqa: E402


def tiny_workload():
    a2 = make_truncated(2)
    multi = Graph(3, ((0, 1), (1, 0), (1, 2), (2, 2)))
    comps = (
        Computation("cycle(3)/trunc:2", cycle(3), a2),
        Computation("multi/trunc:2", multi, a2),
        Computation("cycle(3)/poly:-1,0,0,1", cycle(3), make_deformed([-1, 0, 0, 1]),
                    oracle_poly=(-1, 0, 0, 1)),
    )
    return Workload("tiny", comps, 1)


def test_traced_groups_equal_untraced_groups():
    wl = tiny_workload()
    _, _, plain = worker.run_pass(wl, 1, NullTracer())
    tracer = Tracer()
    with installed(tracer):
        wall, _, traced = worker.run_pass(wl, 1, tracer)
    assert [r["groups"] for r in traced] == [r["groups"] for r in plain]
    assert not any(r["failures"] for r in plain + traced)

    names = {s.name for s in tracer.spans}
    assert {"components", "Cube", "masks_by_count", "enumerate_basis", "differential",
            "smith_normal_form", "homology_group", "slice", "compute_all",
            "euler_check", "check_vanishing", "oracle_check"} <= names
    assert {s.computation for s in tracer.spans} == {0, 1, 2}
    out = layer_metrics(tracer.spans, wall)
    assert 0.5 < out["trace.accounted_frac"] <= 1.0
    assert out["graph.partition_calls"] == 2 ** 3 + 2 ** 4 + 2 ** 3


def test_installed_restores_the_engine():
    originals = (complexes.components, homology.Cube, homology.smith_normal_form)
    with installed(Tracer()):
        assert homology.Cube is not originals[1]
    assert (complexes.components, homology.Cube, homology.smith_normal_form) == originals


def test_installed_fails_loudly_on_a_missing_entry_point(monkeypatch):
    monkeypatch.delattr(homology, "_degree_slice_groups")
    original = complexes.components
    with pytest.raises(AttributeError):
        with installed(Tracer()):
            pass
    assert complexes.components is original


def test_workloads_have_fixed_inputs():
    assert set(WORKLOAD_FACTORIES) == {"dense-k6", "cycle9-par", "deformed-snf"}
    assert build("dense-k6") == build("dense-k6")
    assert len(build("deformed-snf").computations) == 11
    with pytest.raises(ValueError):
        build("no-such-workload")

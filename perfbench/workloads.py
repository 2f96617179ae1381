"""The benchmark's workloads, as lists of (graph, algebra) computations.

Every workload has fixed inputs: its groups are compared against references
stored in ``references/``, and the benchmark's seed does not change them.
Relabeling the vertices with the seed was tried and rejected: isomorphic
inputs give the same groups, but the Smith elimination order changes with
the labels and moved the time of one computation by up to 2x, which would
swamp any regression bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from chromhom import (
    Algebra,
    Graph,
    complete,
    cycle,
    make_deformed,
    make_truncated,
    polygon_with_diagonals,
)

# The eight polynomials (coefficients low to high) whose triangle H^1 the
# acceptance suite checks against the cokernel oracle.
ORACLE_POLYS = (
    (0, 0, 1),
    (0, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (0, -1, 1),
    (-3, -2, 1),
    (1, -2, 1),
    (-1, 0, 0, 1),
    (-1, 0, 0, 0, 1),
)


@dataclass(frozen=True)
class Computation:
    """One compute_all call and the checks that certify its groups.

    Every graded computation is checked with ``euler_check`` and
    ``check_vanishing``; ``oracle_poly`` compares H^1 with
    ``cokernel_oracle([p, p'])``.
    """

    label: str
    graph: Graph
    algebra: Algebra
    oracle_poly: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    computations: tuple[Computation, ...]
    jobs: int


def _dense_k6() -> Workload:
    g = complete(6)
    comp = Computation("complete(6)/trunc:2", g, make_truncated(2))
    return Workload("dense-k6", (comp,), 1)


def _cycle9_par() -> Workload:
    g = cycle(9)
    comp = Computation("cycle(9)/trunc:3", g, make_truncated(3))
    jobs = min(2, len(os.sched_getaffinity(0)))
    return Workload("cycle9-par", (comp,), jobs)


def _deformed_snf() -> Workload:
    cubic = make_deformed([-1, 0, 0, 1])
    graphs = (
        ("vgon(6;0-2,0-3,0-4)", polygon_with_diagonals(6, [(0, 2), (0, 3), (0, 4)])),
        ("complete(5)", complete(5)),
        ("cycle(7)", cycle(7)),
    )
    comps = [Computation(f"{name}/{cubic.spec}", g, cubic) for name, g in graphs]
    tri = cycle(3)
    for p in ORACLE_POLYS:
        a = make_deformed(list(p))
        comps.append(Computation(f"cycle(3)/{a.spec}", tri, a, oracle_poly=p))
    return Workload("deformed-snf", tuple(comps), 1)


WORKLOAD_FACTORIES = {
    "dense-k6": _dense_k6,
    "cycle9-par": _cycle9_par,
    "deformed-snf": _deformed_snf,
}


def build(name: str) -> Workload:
    try:
        make = WORKLOAD_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose one of {', '.join(WORKLOAD_FACTORIES)}"
        ) from None
    return make()


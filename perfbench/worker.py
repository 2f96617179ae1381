"""One benchmark pass in a fresh process: set up, compute, certify, report.

A fresh process per pass makes ``ru_maxrss`` belong to this pass and lets
the set-up time include interpreter start and ``import chromhom``.  The
report is one JSON object on standard output; ``run.py`` starts this script
and does all comparisons against references outside the timed region.

    python3 perfbench/worker.py --workload NAME --spawned-at T
        [--trace] [--setup-only]

Untraced passes run at the workload's ``jobs``; traced passes run serially.

``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn
(a system-wide clock on Linux), so the set-up time starts before this
interpreter does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# probes right after set-up: about 80 ms, near enough in time to stand for
# the speed of a set-up that lasts a fraction of a second
SETUP_PROBES = 20


def proc_status_kib(field: str) -> int:
    """VmRSS (current) or VmHWM (peak) of this process, in KiB.

    VmHWM belongs to this process image alone; ``ru_maxrss`` of RUSAGE_SELF
    also carries the high-water mark of the process that spawned it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def children_peak_kib() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def serialize(h) -> list:
    return [[i, j, g.free_rank, list(g.torsion)] for (i, j), g in h.items_sorted()]


def certify(comp, h, tracer) -> list[str]:
    """Run the hard checks of one computation; return what failed."""
    from chromhom import cokernel_oracle, euler_check
    from chromhom.theorems import check_vanishing, poly_derivative

    g, a = comp.graph, comp.algebra
    failures = []
    if a.graded:
        with tracer.span("euler_check"):
            if not euler_check(g, a, h).passed:
                failures.append("euler identity")
        with tracer.span("check_vanishing"):
            if not check_vanishing(g, a, h).passed:
                failures.append("vanishing bound")
    if comp.oracle_poly is not None:
        p = list(comp.oracle_poly)
        with tracer.span("oracle_check"):
            oracle = cokernel_oracle([p, poly_derivative(p)], 2 * (len(p) - 1) + 2)
            if h.total(1) != oracle:
                failures.append(f"H^1 {h.total(1)} != oracle {oracle}")
    return failures


def run_pass(workload, jobs: int, tracer) -> tuple[float, float, list[dict]]:
    """Compute and certify every computation; return (wall s, CPU s, records)."""
    from chromhom import compute_all

    done = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for n, comp in enumerate(workload.computations):
        tracer.computation = n
        h, failures = None, []
        try:
            with tracer.span("computation"):
                with tracer.span("compute_all"):
                    h = compute_all(comp.graph, comp.algebra, jobs=jobs)
                failures = certify(comp, h, tracer)
        except Exception:
            failures = ["raised: " + traceback.format_exc(limit=3)]
        done.append((comp, h, failures))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    records = [
        {
            "label": comp.label,
            "groups": serialize(h) if h is not None else [],
            "failures": failures,
        }
        for comp, h, failures in done
    ]
    return wall, cpu, records


def properties(workload) -> dict:
    """Counts that say how much of the workload a change can apply to."""
    from chromhom import chromatic_polynomial
    from chromhom.homology import estimate_peak_bytes
    from metrics import MIB

    return {
        "workload.nbc_cells": sum(
            abs(chromatic_polynomial(c.graph).eval_int(-c.algebra.rank))
            for c in workload.computations
        ),
        "homology.estimate_peak_mib": max(
            estimate_peak_bytes(c.graph, c.algebra) for c in workload.computations
        ) / MIB,
    }


def provenance(jobs: int) -> dict:
    from chromhom import compiled_kernel_available

    compiled = compiled_kernel_available()
    pure_env = os.environ.get("CHROMHOM_PURE_SNF", "")
    return {
        "kernel": "compiled" if compiled and pure_env in ("", "0") else "pure",
        "compiled_kernel_available": compiled,
        "CHROMHOM_PURE_SNF": pure_env,
        "python": platform.python_version(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "jobs": jobs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import chromhom  # noqa: F401  (set-up includes the import)
    from workloads import build

    workload = build(args.workload)
    setup_s = time.monotonic() - args.spawned_at
    from speed import WARMUP_PROBES, Sampler, probe_wall_mean_s

    probe_wall_mean_s(WARMUP_PROBES)
    out = {"setup_s": setup_s, "setup_probe_s": probe_wall_mean_s(SETUP_PROBES)}
    if not args.setup_only:
        from tracing import NullTracer, Tracer, installed

        jobs = 1 if args.trace else workload.jobs
        out.update(workload_jobs=workload.jobs, provenance=provenance(jobs))
        if args.trace:
            out["properties"] = properties(workload)
        baseline_kib = proc_status_kib("VmRSS")
        children_before_kib = children_peak_kib()
        if args.trace:
            tracer = Tracer()
            with installed(tracer):
                wall, cpu, records = run_pass(workload, jobs, tracer)
            out["spans"] = tracer.spans
        else:
            with Sampler() as sampler:
                wall, cpu, records = run_pass(workload, jobs, NullTracer())
            wall -= sum(w for w, _ in sampler.probes)
            cpu -= sum(c for _, c in sampler.probes + sampler.child_probes)
            probe_wall, probe_cpu = sampler.mean_probe_s()
            out.update(probe_wall_s=probe_wall, probe_cpu_s=probe_cpu,
                       probes=len(sampler.probes) + len(sampler.child_probes))
        out.update(
            wall_s=wall,
            cpu_s=cpu,
            baseline_rss_kib=baseline_kib,
            peak_self_kib=proc_status_kib("VmHWM"),
            children_before_kib=children_before_kib,
            peak_children_kib=children_peak_kib(),
            computations=records,
        )
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's arithmetic: span self times, layer totals, RSS, the gate.

Nothing here imports the engine, so the orchestrating process stays light
and these functions can be tested on hand-made inputs.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span

MIB = 1 << 20

# span name -> layer whose self time it counts toward; "computation" spans
# are the benchmark's own loop and count toward no layer
LAYER_OF = {
    "components": "graph.partition_s",
    "Cube": "complexes.cube_s",
    "masks_by_count": "complexes.cube_s",
    "enumerate_basis": "complexes.basis_s",
    "differential": "complexes.assembly_s",
    "smith_normal_form": "homology.snf_s",
    "homology_group": "homology.aggregate_s",
    "slice": "homology.aggregate_s",
    "compute_all": "homology.aggregate_s",
    "euler_check": "chromatic.euler_s",
    "check_vanishing": "theorems.check_s",
    "oracle_check": "theorems.check_s",
}
LAYER_TIMES = tuple(dict.fromkeys(LAYER_OF.values()))


def rss_delta_mib(
    baseline_kib: int, self_peak_kib: int, children_before_kib: int, children_after_kib: int
) -> float:
    """Highest per-process peak RSS above the post-import baseline, in MiB.

    RUSAGE_CHILDREN reports the largest child reaped so far, including any
    reaped before the pass, so it counts only if the pass raised it.  Pool
    workers fork from the computing process and start from its baseline.
    """
    peak = self_peak_kib
    if children_after_kib > children_before_kib:
        peak = max(peak, children_after_kib)
    return (peak - baseline_kib) / 1024


def union_length(intervals) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for idx, s in enumerate(spans):
        clipped = [
            (max(lo, s.start_ns), min(hi, s.end_ns))
            for lo, hi in children.get(idx, ())
            if hi > s.start_ns and lo < s.end_ns
        ]
        out.append(s.end_ns - s.start_ns - union_length(clipped))
    return out


def layer_metrics(spans: list[Span], traced_wall_s: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    selfs = self_times_ns(spans)
    times = dict.fromkeys(LAYER_TIMES, 0)
    for s, own in zip(spans, selfs):
        layer = LAYER_OF.get(s.name)
        if layer is not None:
            times[layer] += own
    out = {name: ns / 1e9 for name, ns in times.items()}

    def named(name):
        return [s for s in spans if s.name == name]

    nnz = sum(s.count for s in named("differential"))
    snf = named("smith_normal_form")
    slices = [(s.end_ns - s.start_ns) / 1e9 for s in named("slice")]
    out.update({
        "graph.partition_calls": len(named("components")),
        "complexes.states": sum(s.count for s in named("enumerate_basis")),
        "complexes.nnz": nnz,
        "complexes.ns_per_nnz": times["complexes.assembly_s"] / nnz if nnz else 0.0,
        "homology.snf_calls": len(snf),
        "homology.snf_max_s": max(((s.end_ns - s.start_ns) / 1e9 for s in snf), default=0.0),
        "homology.rank": sum(s.count for s in snf),
        "homology.slice_sum_s": sum(slices),
        "homology.slice_max_s": max(slices, default=0.0),
        "trace.wall_s": traced_wall_s,
        "trace.accounted_frac": sum(times.values()) / 1e9 / traced_wall_s,
    })
    return out


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over passes; counts stay whole numbers."""
    out = {}
    for k in dicts[0]:
        values = [d[k] for d in dicts]
        whole = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if whole else statistics.median)(values)
    return out


def groups_key(groups) -> list:
    """Canonical form of a serialized group list for comparisons."""
    return sorted([int(i), int(j), int(free), [int(t) for t in tors]]
                  for i, j, free, tors in groups)


def gate(passes: list[dict], reference: dict) -> tuple[int, list[str]]:
    """Count failed computations over all passes; return (failed, reasons).

    A computation fails if it raised or failed a certifying check, if its
    groups differ from the stored reference, or if they differ from the
    first pass's groups for the same input (a traced pass must reproduce the
    untraced groups exactly).
    """
    first = {c["label"]: groups_key(c["groups"]) for c in passes[0]["computations"]
             if not c["failures"]}
    failed = 0
    reasons = []
    for p in passes:
        for c in p["computations"]:
            why = list(c["failures"])
            got = groups_key(c["groups"])
            want = reference.get(c["label"])
            if want is None:
                why.append("no stored reference")
            elif got != groups_key(want):
                why.append("groups differ from the stored reference")
            if c["label"] in first and got != first[c["label"]]:
                why.append(f"groups differ from the first pass ({p['mode']})")
            if why:
                failed += 1
                reasons.append(f"{p['mode']} {c['label']}: {'; '.join(why)}")
    return failed, reasons

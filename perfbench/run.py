"""Benchmark for chromhom: time to certified groups, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): dense-k6, cycle9-par, deformed-snf.  Every
pass runs in a fresh ``worker.py`` process, so set-up time and peak RSS
belong to that pass.  The inputs are fixed; the seed is only recorded.

``--trace 0`` repeats untraced passes at the workload's ``jobs`` until
``--seconds`` have passed and prints the end-to-end metrics: medians over
passes, and the median set-up time of at least fifteen fresh processes.  Each
time is scaled to the reference speed of ``speed.py`` by the probes taken
while it ran; the unscaled medians are printed beside them.

``--trace 1`` prints the per-layer metrics: medians over traced serial
passes of span self times and counts, and workload properties.  On a serial
workload untraced and traced passes alternate, and the tracing overhead is
the difference of their median walls.  On a parallel workload one untraced
pass runs on the pool, and its wall is reported beside the traced serial
wall instead of an overhead.

Groups are compared outside the timed region, against ``references/`` and
across passes.  The full record, spans included, goes to
``results/BENCH_<workload>_seed<N>_trace<T>.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
computation failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import gate, layer_metrics, median_of, rss_delta_mib
from speed import PROBE_REFERENCE_S, scaled
from tracing import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
MIN_SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed check)."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("ns_per_nnz"):
        return "ns"
    return "count"


def spawn(args: list[str]) -> dict:
    """Run one worker process to completion and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out after {WORKER_TIMEOUT_S} s: {args}") from None
    if done.returncode != 0:
        raise BenchmarkError(f"worker exited with {done.returncode}: {args}")
    return json.loads(done.stdout)


def run_passes(workload: str, seconds: float, trace: bool):
    """All passes of one run, then set-up samples (untraced runs only).

    Every run starts with an untraced pass.  A traced run on a serial
    workload then alternates traced and untraced passes, so that both walls
    of the overhead are medians over the same stretch of machine speed; on a
    parallel workload it runs only traced passes after the first.
    """
    start = time.monotonic()
    passes = []

    def add(traced: bool) -> None:
        report = spawn(["--workload", workload] + (["--trace"] if traced else []))
        report["mode"] = "traced" if traced else "untraced"
        passes.append(report)

    add(False)
    serial = passes[0]["workload_jobs"] == 1
    if trace:
        add(True)
    while time.monotonic() - start < seconds:
        add(trace and (not serial or passes[-1]["mode"] == "untraced"))
    setups = [(p["setup_s"], p["setup_probe_s"]) for p in passes]
    if not trace:
        while len(setups) < MIN_SETUP_SAMPLES:
            report = spawn(["--workload", workload, "--setup-only"])
            setups.append((report["setup_s"], report["setup_probe_s"]))
    return passes, setups, time.monotonic() - start


def walls(passes: list[dict], mode: str) -> list[float]:
    return [p["wall_s"] for p in passes if p["mode"] == mode]


def wall_probe_s(p: dict) -> float:
    """The probe time that scales a pass's wall time.

    In a serial pass it is the probes' wall time, which stretches with steal
    (the host taking the virtual CPU away) as the pass does.  In a pool pass
    the main process's probes also wait behind the workers, which their wall
    time would count as slowness, so there it is their CPU time.
    """
    return p["probe_wall_s"] if p["workload_jobs"] == 1 else p["probe_cpu_s"]


def end_to_end_metrics(passes: list[dict], setups: list[tuple[float, float]]) -> dict[str, float]:
    """Medians over the run; every time is scaled by its own probes.

    Set-up times are scaled by probe wall time, pass walls by
    ``wall_probe_s`` and CPU times by probe CPU time.
    """
    return {
        "setup_s": statistics.median(scaled(s, probe) for s, probe in setups),
        "wall_s": statistics.median(scaled(p["wall_s"], wall_probe_s(p)) for p in passes),
        "cpu_s": statistics.median(scaled(p["cpu_s"], p["probe_cpu_s"]) for p in passes),
        "peak_rss_mib": statistics.median(
            rss_delta_mib(p["baseline_rss_kib"], p["peak_self_kib"],
                          p["children_before_kib"], p["peak_children_kib"])
            for p in passes
        ),
    }


def unscaled_medians(passes: list[dict], setups: list[tuple[float, float]]) -> str:
    return (f"unscaled medians: setup {statistics.median(s for s, _ in setups):.4g} s, "
            f"wall {statistics.median(p['wall_s'] for p in passes):.4g} s, "
            f"cpu {statistics.median(p['cpu_s'] for p in passes):.4g} s; "
            f"probe {statistics.median(p['probe_wall_s'] for p in passes) * 1e3:.4g} ms wall, "
            f"{statistics.median(p['probe_cpu_s'] for p in passes) * 1e3:.4g} ms CPU "
            f"(reference {PROBE_REFERENCE_S * 1e3:.4g} ms), "
            f"{sum(p['probes'] for p in passes)} probes")


def per_layer_metrics(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["mode"] == "traced"]
    out = median_of([
        layer_metrics([Span(*s) for s in p["spans"]], p["wall_s"]) for p in traced
    ])
    out["trace.untraced_wall_s"] = statistics.median(walls(passes, "untraced"))
    out.update(traced[0]["properties"])
    return out


def tracing_overhead(passes: list[dict]) -> str:
    """Traced minus untraced median wall, or why there is none."""
    plain, traced = walls(passes, "untraced"), walls(passes, "traced")
    jobs = passes[0]["workload_jobs"]
    if jobs > 1:
        return (f"none: the untraced pass ran on {jobs} processes; traced serial "
                f"wall {statistics.median(traced):.4g} s beside untraced "
                f"{statistics.median(plain):.4g} s")
    overhead = statistics.median(traced) - statistics.median(plain)
    spread = max(plain) - min(plain)
    shown = (f"{overhead:.4g} s (median of {len(traced)} traced minus median of "
             f"{len(plain)} untraced passes")
    if len(plain) < 2:
        return shown + "; unresolved: one untraced pass gives no spread)"
    if abs(overhead) <= spread:
        return shown + f"; unresolved: inside the untraced range of {spread:.4g} s)"
    return shown + f"; untraced range {spread:.4g} s)"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "chromhom"
    for path in sorted(src.glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_reference(workload: str) -> dict:
    path = REFERENCES / f"{workload}.json"
    try:
        return json.loads(path.read_text())["groups"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchmarkError(f"cannot read the stored reference {path}: {exc}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chromhom" / "__init__.py").is_file():
        print(f"chromhom sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        reference = load_reference(args.workload)
        passes, setups, elapsed = run_passes(args.workload, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    failed, reasons = gate(passes, reference)
    attempted = sum(len(p["computations"]) for p in passes)
    if args.trace:
        metrics = per_layer_metrics(passes)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end_metrics(passes, setups)
        units = END_TO_END_UNITS
    provenance = dict(passes[0]["provenance"], seed=args.seed, git_commit=git_commit(),
                      source_sha256=source_digest())

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes in {elapsed:.1f} s")
    print("provenance " + json.dumps(provenance))
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:28s} {shown} {units[name]}")
    print(f"  {'fail_frac':28s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} computations)")
    if args.trace:
        overhead = tracing_overhead(passes)
        print(f"  tracing overhead: {overhead}")
    else:
        print(f"  {unscaled_medians(passes, setups)}; {len(passes)} passes, "
              f"{len(setups)} set-up samples")
    for reason in reasons[:10]:
        print(f"FAILED {reason}", file=sys.stderr)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"provenance": provenance, "metrics": metrics, "units": units,
              "attempted": attempted, "failed": failed, "failures": reasons,
              "setup_samples": setups, "passes": passes}
    if args.trace:
        record["tracing_overhead"] = overhead
    out = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

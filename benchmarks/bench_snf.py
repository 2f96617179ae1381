"""Benchmark: compiled Smith kernel vs the pure-Python twin.

Times the invariant-factor computation on differential matrices harvested
from real complexes plus synthetic sparse matrices, then a whole-pipeline
comparison.  Without the compiled kernel only the pure timings are printed.
Run with ``python3 benchmarks/bench_snf.py``; the end-to-end benchmark with
per-layer times is ``perfbench/run.py``.
"""

import os
import random
import time

from chromhom import _snfpure
from chromhom.algebra import make_truncated
from chromhom.complexes import Cube, IntMatrix, differential, enumerate_basis
from chromhom.graph import complete, cycle
from chromhom.homology import compiled_kernel_available, compute_all, use_kernel

try:
    from chromhom import _snfcore
except ImportError:
    _snfcore = None


def harvest_matrices():
    cases = []
    for g, a, label in (
        (cycle(9), make_truncated(3), "cycle(9)/trunc:3"),
        (complete(5), make_truncated(2), "complete(5)/trunc:2"),
        (complete(5), make_truncated(3), "complete(5)/trunc:3"),
        (complete(6), make_truncated(2), "complete(6)/trunc:2"),
    ):
        cube = Cube(g, a)
        biggest = None
        for j in range(a.max_degree * g.vertex_count + 1):
            for i in range(g.edge_count):
                src = enumerate_basis(g, a, i, j, cube)
                dst = enumerate_basis(g, a, i + 1, j, cube)
                if not (len(src) and len(dst)):
                    continue
                m = differential(g, a, i, j, cube, src, dst)
                if biggest is None or m.nnz > biggest[1].nnz:
                    biggest = (f"{label} d^({i},{j})", m)
        cases.append(biggest)
    rng = random.Random(42)
    for size, density in ((120, 0.03), (300, 0.01)):
        data = [
            {
                c: rng.choice([-2, -1, -1, 1, 1, 2])
                for c in range(size)
                if rng.random() < density
            }
            for _ in range(size)
        ]
        cases.append((f"random {size}x{size} d={density}", IntMatrix(size, size, data)))
    return cases


def time_kernel(fn, *args, repeat=3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def main():
    compiled = compiled_kernel_available()
    header = f"{'matrix':38s} {'shape':>12s} {'nnz':>7s} {'pure':>9s}"
    if compiled:
        header += f" {'compiled':>9s} {'speedup':>8s}"
    else:
        print("compiled kernel not built; showing pure timings only")
    print(header)
    for label, m in harvest_matrices():
        t_pure, f_pure = time_kernel(_snfpure.snf_invariant_factors, m.data)
        line = (f"{label:38s} {m.rows:>5d}x{m.cols:<6d} {m.nnz:>7d} "
                f"{t_pure * 1e3:>8.1f}ms")
        if compiled:
            try:
                t_c, f_c = time_kernel(
                    _snfcore.snf_invariant_factors, m.rows, m.cols, m.triplets()
                )
                assert f_c == f_pure, label
                line += f" {t_c * 1e3:>8.1f}ms {t_pure / t_c:>7.1f}x"
            except OverflowError:
                line += f" {'overflow':>9s} {'-':>8s}"
        print(line)

    print("\nend-to-end compute_all:")
    for g, a, label in (
        (complete(6), make_truncated(2), "complete(6)/trunc:2"),
        (cycle(8), make_truncated(3), "cycle(8)/trunc:3"),
    ):
        times = {}
        for kernel in ("pure", "auto") if compiled else ("pure",):
            use_kernel(kernel)
            t0 = time.perf_counter()
            compute_all(g, a)
            times[kernel] = time.perf_counter() - t0
        use_kernel("auto")
        line = f"  {label:24s} pure {times['pure']:.2f}s"
        if compiled:
            line += (f"   compiled {times['auto']:.2f}s"
                     f"   speedup {times['pure'] / times['auto']:.2f}x")
        print(line)

    cores = os.cpu_count() or 1
    if cores > 1:
        print(f"\nparallel degree slices ({cores} cores):")
        g, a = cycle(9), make_truncated(3)
        for jobs in sorted({1, 2, min(4, cores)}):
            t0 = time.perf_counter()
            compute_all(g, a, jobs=jobs)
            print(f"  cycle(9)/trunc:3 jobs={jobs}: {time.perf_counter() - t0:.2f}s")
    else:
        print("\nsingle core available: degree-slice parallelism not measured")


if __name__ == "__main__":
    main()

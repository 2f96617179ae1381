"""Command-line front end.

Subcommands: ``compute`` (homology tables/JSON), ``chromatic`` (coefficient
list), ``bases`` (debug dump of states and differential triplets), and
``verify`` (the full check suite or a single named check).

Exit codes: 0 success, 1 hard check failure, 2 usage error, 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import theorems
from .algebra import parse_algebra_spec
from .chromatic import chromatic_polynomial, euler_check
from .complexes import Cube, dump_slice, enumerate_basis, slice_dimension
from .graph import (
    MAX_EDGES,
    Graph,
    complete,
    cycle,
    load_graph,
    path,
    polygon_with_diagonals,
)
from .homology import (
    BigradedHomology,
    compute_all,
    degree_range,
    estimate_peak_bytes,
    peak_bytes_floor,
)

DEFAULT_MEMORY_CAP = 4 * 1024**3


class MemoryCapExceeded(RuntimeError):
    pass


def parse_graph_spec(spec: str) -> Graph:
    """``gen:<name>:<params>`` or ``file:<path>``."""
    g = _parse_graph_spec(spec)
    if g.edge_count > MAX_EDGES:
        raise ValueError(
            f"graph has {g.edge_count} edges; the engine is capped at {MAX_EDGES}"
        )
    return g


def _parse_graph_spec(spec: str) -> Graph:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"bad graph spec {spec!r}; use gen:... or file:...")
    if kind == "file":
        return load_graph(rest)
    if kind != "gen":
        raise ValueError(f"bad graph spec {spec!r}")
    name, _, params = rest.partition(":")
    if name == "cycle":
        return cycle(int(params))
    if name == "path":
        return path(int(params))
    if name == "complete":
        return complete(int(params))
    if name == "vgon":
        v, _, chords = params.partition(":")
        diagonals = []
        if chords:
            for part in chords.split(","):
                a, b = part.split("-")
                diagonals.append((int(a), int(b)))
        return polygon_with_diagonals(int(v), diagonals)
    raise ValueError(f"unknown generator {name!r}")


def _torsion_brackets(grp) -> str:
    counts: dict[int, int] = {}
    for t in grp.torsion:
        counts[t] = counts.get(t, 0) + 1
    return "".join(f"[{k}_{l}]" for l, k in sorted(counts.items()))


def render_table(h: BigradedHomology) -> str:
    """Grid with heights as columns and degrees as rows.

    A bare number counts copies of Z; ``[k_l]`` marks k copies of Z_l.
    """
    if not h.groups:
        return "all cohomology groups trivial"
    imax = max(i for i, _ in h.groups)
    jmin = min(j for _, j in h.groups)
    jmax = max(j for _, j in h.groups)
    cells: dict[tuple[int, int], str] = {}
    for (i, j), grp in h.groups.items():
        parts = []
        if grp.free_rank:
            parts.append(str(grp.free_rank))
        brackets = _torsion_brackets(grp)
        if brackets:
            parts.append(brackets)
        cells[(i, j)] = " ".join(parts)
    headers = ["j\\i"] + [str(i) for i in range(imax + 1)]
    widths = [len(x) for x in headers]
    rows = []
    for j in range(jmax, jmin - 1, -1):
        row = [str(j)] + [cells.get((i, j), ".") for i in range(imax + 1)]
        rows.append(row)
        widths = [max(w, len(x)) for w, x in zip(widths, row)]
    lines = ["  ".join(x.rjust(w) for x, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(x.rjust(w) for x, w in zip(row, widths)))
    return "\n".join(lines)


def _parse_jrange(text: str | None):
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("jrange must be LO:HI")
    js = range(int(lo), int(hi) + 1)
    if not js:
        raise ValueError(f"jrange {text} is empty; LO must not exceed HI")
    return js


def _check_memory(g, a, j_range, cap: int, jobs: int = 1):
    floor = peak_bytes_floor(g, a, j_range, jobs)  # refuse before the census if it can
    estimate = floor if floor > cap else estimate_peak_bytes(g, a, j_range, jobs)
    if estimate > cap:
        raise MemoryCapExceeded(
            f"estimated peak of at least {estimate} bytes exceeds cap {cap}; "
            "raise --memory-cap to proceed"
        )


def cmd_compute(args) -> int:
    g = parse_graph_spec(args.graph)
    a = parse_algebra_spec(args.algebra)
    j_range = _parse_jrange(args.jrange)
    _check_memory(g, a, j_range, args.memory_cap, args.jobs)
    h = compute_all(g, a, j_range=j_range, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(h.to_json_dict()))
    elif args.format == "triplets":
        _print_slices(Cube(g, a), degree_range(g, a, j_range))
    else:
        print(render_table(h))
    # The Euler identity needs every degree; restricted ranges skip it.
    if a.graded and j_range is None and not euler_check(g, a, h).passed:
        print("EULER CHECK FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_chromatic(args) -> int:
    g = parse_graph_spec(args.graph)
    coeffs = chromatic_polynomial(g).coeff_list()
    print(" ".join(str(c) for c in coeffs) if coeffs else "0")
    return 0


def cmd_bases(args) -> int:
    if (args.i is None) != (args.j is None):
        raise ValueError("--i and --j name one slice; give both or neither")
    g = parse_graph_spec(args.graph)
    a = parse_algebra_spec(args.algebra)
    js = degree_range(g, a, None if args.j is None else [args.j])
    _check_memory(g, a, None, args.memory_cap)
    cube = Cube(g, a)
    if args.i is None:
        _print_slices(cube, js)
    else:
        i, j = args.i, args.j
        print(dump_slice(enumerate_basis(cube, i, j), enumerate_basis(cube, i + 1, j)))
    return 0


def _print_slices(cube: Cube, js) -> None:
    """Dump the nonempty slices of each degree, enumerating each basis once."""
    for j in js:
        dst = None
        for i in range(cube.g.edge_count + 1):
            if slice_dimension(cube, i, j):
                src = dst if dst is not None and dst.i == i else enumerate_basis(cube, i, j)
                dst = enumerate_basis(cube, i + 1, j)
                print(dump_slice(src, dst))


# the options a single check reads that have no default
_NEEDS = {
    "vanishing": ("graph", "algebra"),
    "thickness": ("graph", "algebra"),
    "pendant": ("graph", "algebra"),
    "exactness": ("graph", "algebra"),
    "dichotomy": ("graph",),
    "vgon": ("graph", "algebra"),
}

_SINGLE_CHECKS = {
    "vanishing": lambda args, g, a: theorems.check_vanishing(g, a),
    "thickness": lambda args, g, a: theorems.check_thickness(g, a),
    "pendant": lambda args, g, a: theorems.check_pendant(g, args.edge, a),
    "exactness": lambda args, g, a: theorems.check_del_contract_exactness(
        g, args.edge, a
    ),
    "dichotomy": lambda args, g, a: theorems.check_torsion_dichotomy(g),
    "polygon": lambda args, g, a: theorems.check_polygon_formula(args.n),
    "p3-am": lambda args, g, a: theorems.check_p3_Am(args.m),
    "deformed-p3": lambda args, g, a: theorems.check_deformed_p3(
        [int(c) for c in args.p.split(",")]
    ),
    "vgon": lambda args, g, a: theorems.check_vgon_diagonals(g, a),
    "fixtures": lambda args, g, a: theorems.check_conjecture_fixtures(),
}


def cmd_verify(args) -> int:
    if args.suite:
        if args.suite != "paper":
            raise ValueError(f"unknown suite {args.suite!r}")
        reports = theorems.run_suite(seed=args.seed)
    elif args.check:
        if args.check not in _SINGLE_CHECKS:
            raise ValueError(
                f"unknown check {args.check!r}; known: {sorted(_SINGLE_CHECKS)}"
            )
        for option in _NEEDS.get(args.check, ()):
            if getattr(args, option) is None:
                raise ValueError(f"--check {args.check} needs --{option}")
        g = parse_graph_spec(args.graph) if args.graph else None
        a = parse_algebra_spec(args.algebra) if args.algebra else None
        reports = [_SINGLE_CHECKS[args.check](args, g, a)]
    else:
        raise ValueError("verify needs --suite or --check")
    hard_failures = 0
    for rep in reports:
        print(json.dumps(rep.to_json_dict()))
        if not rep.passed and not rep.soft:
            hard_failures += 1
    print(
        f"# {len(reports)} checks, {hard_failures} hard failures",
        file=sys.stderr,
    )
    return 1 if hard_failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromhom",
        description="Exact bigraded graph cohomology over Z[x]-quotient algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_help = "gen:cycle:6 | gen:complete:4 | gen:path:5 | gen:vgon:5:0-2,0-3 | file:g.txt"
    algebra_help = "trunc:m | poly:c0,c1,...,1 | window:J"

    def add_common(p, algebra=True, memory_cap=False):
        p.add_argument("--graph", required=True, help=graph_help)
        if algebra:
            p.add_argument("--algebra", required=True, help=algebra_help)
        if memory_cap:
            p.add_argument("--memory-cap", type=int, default=DEFAULT_MEMORY_CAP,
                           help="refuse computations whose estimate exceeds "
                           "this many bytes")

    p = sub.add_parser("compute", help="compute all cohomology groups")
    add_common(p, memory_cap=True)
    p.add_argument("--jrange", help="restrict internal degree, LO:HI")
    p.add_argument("--format", choices=("table", "json", "triplets"),
                   default="table")
    p.add_argument("--jobs", type=int, default=1, help="parallel Smith reductions")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("chromatic", help="chromatic polynomial, coefficients low to high")
    add_common(p, algebra=False)
    p.set_defaults(fn=cmd_chromatic)

    p = sub.add_parser("bases", help="dump enhanced-state bases and differential triplets")
    add_common(p, memory_cap=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.set_defaults(fn=cmd_bases)

    p = sub.add_parser("verify", help="run verification checks (JSON report stream)")
    # optional here: only some single checks read them
    p.add_argument("--graph", help=graph_help)
    p.add_argument("--algebra", help=algebra_help)
    p.add_argument("--suite", help="'paper' runs the whole fixture suite")
    p.add_argument("--check", help="run one named check")
    p.add_argument("--edge", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--p", default="0,0,1", help="polynomial coefficients, low to high")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MemoryCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # GraphFormatError and WindowError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

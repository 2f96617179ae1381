import json

import pytest

from chromhom.cli import main, parse_graph_spec, render_table
from chromhom.graph import complete, cycle
from chromhom.homology import BigradedHomology, compute_all
from chromhom.algebra import make_truncated


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_specs(tmp_path):
    assert parse_graph_spec("gen:cycle:6") == cycle(6)
    assert parse_graph_spec("gen:complete:4") == complete(4)
    assert parse_graph_spec("gen:vgon:4:0-2").edge_count == 5
    p = tmp_path / "g.txt"
    p.write_text("vertices 3\n0 1\n1 2\n2 0\n")
    assert parse_graph_spec(f"file:{p}") == cycle(3)
    pj = tmp_path / "g.json"
    pj.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    assert parse_graph_spec(f"file:{pj}") == cycle(3)
    pj.write_text(json.dumps({"vertices": None, "edges": []}))
    assert main(["chromatic", "--graph", f"file:{pj}"]) == 2
    with pytest.raises(ValueError):
        parse_graph_spec("nonsense")


def test_compute_table(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "gen:cycle:6", "--algebra", "trunc:2",
        "--format", "table",
    )
    assert code == 0
    assert "[1_2]" in out  # bracketed torsion marker


def test_compute_table_loop_graph(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "gen:cycle:1", "--algebra", "trunc:2",
    )
    assert code == 0
    assert "trivial" in out


def test_compute_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "trunc:3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    h = BigradedHomology.from_json_dict(data)
    assert h == compute_all(cycle(3), make_truncated(3))


def test_chromatic_coefficients(capsys):
    code, out, _ = run_cli(capsys, "chromatic", "--graph", "gen:complete:4")
    assert code == 0
    assert out.strip() == "0 -6 11 -6 1"


def test_bases_dump(capsys):
    code, out, _ = run_cli(
        capsys, "bases", "--graph", "gen:cycle:3", "--algebra", "trunc:2",
        "--i", "0", "--j", "2",
    )
    assert code == 0
    assert "state#0: subset=0b000" in out


def test_bases_partitions_each_subset_at_most_once(capsys, monkeypatch):
    # the censuses for the memory check and the dump partition nothing;
    # the dump's one partition pass does
    import chromhom.complexes as complexes
    import chromhom.graph as graph

    calls = []
    original = graph.components

    def counted(g, subset):
        calls.append(subset)
        return original(g, subset)

    monkeypatch.setattr(graph, "components", counted)
    monkeypatch.setattr(complexes, "components", counted)
    code, out, _ = run_cli(
        capsys, "bases", "--graph", "gen:complete:4", "--algebra", "trunc:3"
    )
    assert code == 0 and out.count("slice i=") > 1
    assert len(calls) <= 2 ** 6


def test_bases_dump_enumerates_each_basis_once(capsys, monkeypatch):
    # each slice's target basis is the next slice's source
    import chromhom.cli as cli
    import chromhom.complexes as complexes

    seen = []
    original = complexes.enumerate_basis

    def counted(cube, i, j):
        seen.append((i, j))
        return original(cube, i, j)

    monkeypatch.setattr(complexes, "enumerate_basis", counted)
    monkeypatch.setattr(cli, "enumerate_basis", counted, raising=False)
    code, out, _ = run_cli(
        capsys, "bases", "--graph", "gen:complete:4", "--algebra", "trunc:2"
    )
    assert code == 0 and out.count("slice i=") > 1
    assert len(seen) == len(set(seen))


def test_bases_refuses_the_degrees_compute_refuses(capsys):
    for algebra, j, says in (
        ("window:1", "3", "window"),  # Z[x] has states there; the window has fewer
        ("poly:-1,0,0,1", "1", "ungraded"),
        ("trunc:2", "-1", "nonnegative"),
    ):
        argv = ["--graph", "gen:cycle:3", "--algebra", algebra]
        code, out, err = run_cli(capsys, "bases", *argv, "--i", "0", "--j", j)
        assert code == 2 and not out and says in err, (algebra, j)
        code, out, err = run_cli(capsys, "compute", *argv, f"--jrange={j}:{j}")
        assert code == 2 and not out and says in err, (algebra, j)


def test_verify_single_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "polygon", "--n", "5",
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["check"] == "polygon-closed-form" and rec["passed"]


def test_verify_vgon_and_exactness_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "vgon",
        "--graph", "gen:vgon:4:0-2", "--algebra", "trunc:2",
    )
    assert code == 0 and json.loads(out.splitlines()[0])["passed"]
    code, out, _ = run_cli(
        capsys, "verify", "--check", "exactness",
        "--graph", "gen:cycle:4", "--algebra", "trunc:3", "--edge", "1",
    )
    assert code == 0 and json.loads(out.splitlines()[0])["passed"]


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "frob:1",
    )
    assert code == 2 and "error" in err
    code, _, err = run_cli(
        capsys, "compute", "--graph", "gen:zzz:3", "--algebra", "trunc:2",
    )
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--suite", "unknown")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--check", "unknown")
    assert code == 2 and "known" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    for jobs in ("0", "-1"):
        # refused before the memory guard could price zero processes
        code, _, err = run_cli(
            capsys, "compute", "--graph", "gen:complete:5", "--algebra", "trunc:2",
            "--memory-cap", "1000", "--jobs", jobs,
        )
        assert code == 2 and "jobs" in err
    for flag in ("--i", "--j"):
        # one coordinate of a slice is not a slice
        code, out, err = run_cli(
            capsys, "bases", "--graph", "gen:cycle:3", "--algebra", "trunc:2", flag, "1",
        )
        assert code == 2 and not out and "--i" in err
    for argv in (
        ["compute", "--algebra", "trunc:2"],
        ["compute", "--graph", "gen:cycle:3"],
        ["chromatic"],
        ["bases", "--graph", "gen:cycle:3"],
        ["bases", "--algebra", "trunc:2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out and "required" in err, argv
    for check in ("vanishing", "thickness", "pendant", "exactness", "dichotomy", "vgon"):
        code, out, err = run_cli(capsys, "verify", "--check", check, "--algebra", "trunc:2")
        assert code == 2 and not out and "--graph" in err, check
        if check != "dichotomy":
            code, out, err = run_cli(capsys, "verify", "--check", check, "--graph", "gen:cycle:3")
            assert code == 2 and not out and "--algebra" in err, check
    for check in ("exactness", "pendant"):
        for edge in ("-1", "5"):
            # the path has edges 0 and 1, both pendant
            code, out, err = run_cli(
                capsys, "verify", "--check", check, "--graph", "gen:path:3",
                "--algebra", "trunc:2", "--edge", edge,
            )
            assert code == 2 and not out and "edge" in err, (check, edge)
    from chromhom.graph import Graph
    from chromhom.homology import estimate_peak_bytes

    for call in (compute_all, estimate_peak_bytes):
        with pytest.raises(ValueError):
            call(cycle(3), make_truncated(2), jobs=0)
    with pytest.raises(ValueError):
        estimate_peak_bytes(Graph(2, ((0, 1),) * 64), make_truncated(2))


def test_more_single_checks(capsys):
    for argv in (
        ["verify", "--check", "vanishing", "--graph", "gen:cycle:4",
         "--algebra", "trunc:2"],
        ["verify", "--check", "thickness", "--graph", "gen:cycle:4",
         "--algebra", "trunc:3"],
        ["verify", "--check", "p3-am", "--m", "3"],
        ["verify", "--check", "fixtures"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out.splitlines()[0])["passed"]


def test_window_compute_passes_the_euler_check(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "window:3",
    )
    assert code == 0 and out and not err


def test_window_violation_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "window:3",
        "--jrange", "0:9",
    )
    assert code == 2 and "window" in err


def test_memory_cap_only_where_it_is_priced(capsys):
    for argv in (
        ["chromatic", "--graph", "gen:cycle:3"],
        ["verify", "--check", "dichotomy"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--memory-cap", "1000"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_memory_cap_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--graph", "gen:complete:5", "--algebra", "trunc:2",
        "--memory-cap", "1000",
    )
    assert code == 3 and "cap" in err


def test_memory_cap_prices_every_pool_process(capsys, monkeypatch):
    import os

    from chromhom.homology import estimate_peak_bytes

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g, a = cycle(5), make_truncated(2)
    one, pool = estimate_peak_bytes(g, a), estimate_peak_bytes(g, a, jobs=2)
    assert pool > one
    args = ["compute", "--graph", "gen:cycle:5", "--algebra", "trunc:2",
            "--memory-cap", str((one + pool) // 2)]
    assert run_cli(capsys, *args, "--jobs", "2")[0] == 3
    assert run_cli(capsys, *args, "--jobs", "1")[0] == 0


def test_memory_estimate_refuses_what_compute_all_refuses(capsys, monkeypatch):
    import chromhom.cli as cli
    from chromhom.algebra import make_deformed, make_poly_window
    from chromhom.homology import WindowError, estimate_peak_bytes, peak_bytes_floor

    g = cycle(3)
    for estimate in (estimate_peak_bytes, peak_bytes_floor):
        with pytest.raises(WindowError):
            estimate(g, make_poly_window(2), range(5, 10))
        with pytest.raises(ValueError, match="ungraded"):
            estimate(g, make_deformed([-1, 0, 0, 1]), [1])
        with pytest.raises(ValueError, match="nonnegative"):
            estimate(g, make_truncated(2), [-1])

    def priced(*args):
        raise AssertionError("priced a degree range compute_all refuses")

    monkeypatch.setattr(cli, "estimate_peak_bytes", priced)
    code, _, err = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "window:2",
        "--jrange", "5:9",
    )
    assert code == 2 and "window" in err


def test_memory_estimate_holds_no_per_subset_data():
    import tracemalloc

    from chromhom.homology import estimate_peak_bytes

    tracemalloc.start()
    try:
        assert estimate_peak_bytes(complete(6), make_truncated(2)) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024**2


def test_memory_estimate_of_complete7_partitions_nothing(monkeypatch):
    import chromhom.graph as graph
    from chromhom.homology import estimate_peak_bytes

    def refuse(g, subset):
        raise AssertionError("the estimate partitioned an edge subset")

    monkeypatch.setattr(graph, "components", refuse)
    assert estimate_peak_bytes(complete(7), make_truncated(2)) == 3_251_125_427


def test_memory_cap_refuses_large_graphs_instantly(capsys, monkeypatch, tmp_path):
    # 39 and 59 edges are legal but their subset bookkeeping floor alone
    # exceeds the default cap; the refusal must not count the subsets, which
    # on the 4x9 grid (a wide graph) takes seconds and hundreds of MiB
    import time

    import chromhom.complexes

    def refuse(g):
        raise AssertionError("the memory guard counted the subsets")

    monkeypatch.setattr(chromhom.complexes, "subset_census", refuse)
    grid = tmp_path / "grid.txt"
    edges = [(9 * r + c, 9 * r + c + 1) for r in range(4) for c in range(8)]
    edges += [(9 * r + c, 9 * r + c + 9) for r in range(3) for c in range(9)]
    grid.write_text("vertices 36\n" + "".join(f"{u} {w}\n" for u, w in edges))
    assert len(edges) == 59
    for argv in (
        ["compute", "--graph", "gen:path:40", "--algebra", "trunc:2"],
        ["compute", "--graph", f"file:{grid}", "--algebra", "trunc:2"],
        ["bases", "--graph", f"file:{grid}", "--algebra", "trunc:3"],
    ):
        t0 = time.time()
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and "cap" in err and time.time() - t0 < 2, argv


def test_jrange_restriction(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "trunc:2",
        "--jrange", "2:2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert {e["j"] for e in data["groups"]} == {2}


def test_empty_jrange_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "trunc:2",
        "--jrange", "5:3",
    )
    assert code == 2 and "jrange" in err and not out


def test_render_table_orientation():
    h = compute_all(cycle(3), make_truncated(2))
    table = render_table(h)
    lines = table.splitlines()
    assert lines[0].split()[0] == "j\\i"
    assert "[1_2]" in table


def test_triplets_format(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "gen:cycle:3", "--algebra", "trunc:2",
        "--format", "triplets",
    )
    assert code == 0
    assert "slice i=0 j=0" in out or "slice i=0 j=1" in out


def test_edge_cap_exit_2(capsys, tmp_path):
    lines = ["vertices 65"] + [f"{i} {i + 1}" for i in range(64)]
    p = tmp_path / "big.txt"
    p.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "compute", "--graph", f"file:{p}", "--algebra", "trunc:2",
    )
    assert code == 2 and "63" in err


def test_verify_paper_suite_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert "0 hard failures" in err
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert all(r["passed"] or r["soft"] for r in records)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "chromhom", "chromatic", "--graph", "gen:cycle:3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "0 2 -3 1"


def test_hard_failure_exit_1(capsys, monkeypatch):
    from chromhom.cli import _SINGLE_CHECKS
    from chromhom.theorems import CheckReport

    monkeypatch.setitem(
        _SINGLE_CHECKS, "dichotomy",
        lambda args, g, a: CheckReport("torsion-dichotomy", {}, False, witness="forced"),
    )
    code, out, err = run_cli(
        capsys, "verify", "--check", "dichotomy", "--graph", "gen:cycle:3",
    )
    assert code == 1 and "1 hard failures" in err

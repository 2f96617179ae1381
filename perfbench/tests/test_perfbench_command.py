"""The benchmark command fails loudly: on a wrong reference and without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def copy_benchmark(root: Path) -> Path:
    copy = root / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("results", "__pycache__"))
    return copy


def test_wrong_reference_fails_the_command(tmp_path):
    path = copy_benchmark(tmp_path) / "references" / "deformed-snf.json"
    (tmp_path / "src").symlink_to(BENCH.parent / "src", target_is_directory=True)
    data = json.loads(path.read_text())
    label = "cycle(3)/poly:0,0,1"
    data["groups"][label] = [[0, 0, 2, []], [1, 0, 1, [4]]]
    path.write_text(json.dumps(data))

    done = run(tmp_path, "--workload", "deformed-snf", "--seed", "0",
               "--seconds", "0", "--trace", "0")
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 11
    assert label in done.stderr


def test_no_result_without_engine_sources(tmp_path):
    copy_benchmark(tmp_path)
    done = run(tmp_path, "--workload", "dense-k6", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert done.returncode == 2
    assert '"correct"' not in done.stdout

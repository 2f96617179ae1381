"""Shared fixtures: the compiled Smith kernel built from its tracked C source."""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

SNFCORE_C = Path(__file__).resolve().parents[1] / "src" / "chromhom" / "_snfcore.c"


@pytest.fixture(scope="session")
def compiled_snfcore(tmp_path_factory):
    """``chromhom._snfcore`` compiled from ``_snfcore.c`` into a temporary directory.

    The package's own import may have no extension to load, so the tests
    that exercise the compiled kernel build it here.  Skips only when no C
    compiler or no Python headers are present.
    """
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    paths = sysconfig.get_paths()
    if cc is None or not Path(paths["include"], "Python.h").is_file():
        pytest.skip("needs a C compiler and the Python headers")
    out = tmp_path_factory.mktemp("snfcore") / (
        "_snfcore" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        [
            cc, "-O2", "-shared", "-fPIC",
            f"-I{paths['include']}", f"-I{paths['platinclude']}",
            str(SNFCORE_C), "-o", str(out),
        ],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("chromhom._snfcore", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

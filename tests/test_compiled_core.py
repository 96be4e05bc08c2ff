"""Compiled/fallback split: both cores must produce bit-identical tables.

Each leg runs a quick golden grid in a subprocess with REPRO_SIM_CORE
forced, so core selection (an import-time decision) is exercised for
real.  The compiled leg is skipped when no C toolchain can build the
extension; the pure-python leg always runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Figures chosen for coverage-per-second: fig5 exercises the RDMA
# read/write data plane, fig11 the SRQ/credit scaling path.  The rest
# of the grid is covered by the golden tests plus `repro check`.
GRID_SNIPPET = """
from repro.sim.engine import ACTIVE_CORE
from repro.experiments.registry import run
assert ACTIVE_CORE == {core!r}, f"wanted {core} core, got {{ACTIVE_CORE}}"
print(run("fig5", scale="quick"))
print(run("fig11", scale="quick"))
"""


def _cengine_available() -> bool:
    try:
        from repro.sim._build import load_cengine

        return load_cengine() is not None
    except ImportError:
        return False


def _run_grid(core: str) -> str:
    env = dict(os.environ, REPRO_SIM_CORE=core,
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", GRID_SNIPPET.format(core=core)],
        capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, f"{core} core grid failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


def test_python_core_runs_grid():
    out = _run_grid("python")
    assert "fig5" in out.lower() or out.strip(), "grid produced no output"


@pytest.mark.skipif(not _cengine_available(),
                    reason="compiled sim core unavailable (no C toolchain?)")
def test_compiled_core_bit_identical_to_python():
    py_out = _run_grid("python")
    c_out = _run_grid("c")
    assert c_out == py_out, (
        "compiled core diverged from pure-python core on the quick grid")


@pytest.mark.skipif(not _cengine_available(),
                    reason="compiled sim core unavailable (no C toolchain?)")
def test_compiled_resources_selected_with_c_core():
    """The resource layer follows the core: compiled classes under the C
    core, its own python classes under the python core."""
    expected = {"c": "repro.sim._cengine", "python": "repro.sim.resources"}
    for core, module in expected.items():
        env = dict(os.environ, REPRO_SIM_CORE=core,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        snippet = (
            "from repro.sim import resources\n"
            "for cls in (resources.Resource, resources.Request, resources.Store):\n"
            f"    assert cls.__module__ == {module!r}, cls\n"
            "print('ok')\n")
        proc = subprocess.run([sys.executable, "-c", snippet],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "ok"

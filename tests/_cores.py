"""Run a snippet under each simulation core, in a fresh subprocess.

``REPRO_SIM_CORE`` selects the core once, at import, so a test that
pins model behaviour under both cores runs its snippet in a subprocess
per core.  Set in the test's own environment, the variable narrows the
run to the core it names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cengine_available() -> bool:
    try:
        from repro.sim._build import load_cengine

        return load_cengine() is not None
    except ImportError:
        return False


def _cores() -> list:
    """Both cores; only the one ``REPRO_SIM_CORE`` names when it names one.

    A named compiled core is required, never skipped: CI runs the
    per-core files once per core, so a broken build fails instead of
    passing silently.
    """
    requested = os.environ.get("REPRO_SIM_CORE", "auto").strip().lower()
    if requested in ("python", "c"):
        return [requested]
    return ["python", pytest.param("c", marks=pytest.mark.skipif(
        not _cengine_available(), reason="compiled sim core unavailable"))]


CORES = _cores()


def run_json(core: str, snippet: str, timeout: float = 600):
    """Run ``snippet`` under ``core``; the JSON on its last stdout line."""
    env = dict(os.environ, REPRO_SIM_CORE=core,
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True, timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])

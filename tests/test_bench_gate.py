"""tools/bench_gate.py must fail on regressions and read only schema v2."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_gate  # noqa: E402


def _write(directory: Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


def _v2(name: str, eps: int, events: int = 1_000_000) -> dict:
    return {
        "schema_version": 2,
        "experiment": name,
        "scale": "quick",
        "jobs": 1,
        "core": "c",
        "wall_seconds": round(events / eps, 3),
        "events": events,
        "events_per_sec": eps,
        "points": 4,
    }


def _v1(name: str, eps: int, events: int = 1_000_000) -> dict:
    # the unversioned shape: no schema_version or core, and the event
    # count under its old key instead of "events"
    payload = _v2(name, eps, events)
    del payload["schema_version"], payload["core"]
    payload["steps"] = payload.pop("events")
    return payload


def test_gate_passes_when_fresh_is_fast_enough(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 95_000))  # -5% < 15%
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"),
                          "--max-regress", "15"])
    assert rc == 0


def test_gate_fails_on_synthetic_regression(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 80_000))  # -20% > 15%
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"),
                          "--max-regress", "15"])
    assert rc != 0


def test_gate_fails_on_missing_figure(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "base", "fig6", _v2("fig6", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 100_000))
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base")])
    assert rc != 0


def test_gate_refuses_v1_baselines(tmp_path):
    """Unversioned v1 files are not read."""
    _write(tmp_path / "base", "fig5", _v1("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 200_000))
    with pytest.raises(ValueError, match="not a BENCH schema v2 file"):
        bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                         "--baseline", str(tmp_path / "base")])


def test_gate_refuses_file_without_events_per_sec(tmp_path):
    payload = _v2("fig5", 100_000)
    del payload["events_per_sec"]
    _write(tmp_path / "base", "fig5", payload)
    with pytest.raises(ValueError, match="missing events_per_sec"):
        bench_gate.load_bench(tmp_path / "base" / "BENCH_fig5.json")


def test_gate_faster_than_baseline_always_passes(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 1_000_000))  # 10x faster
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"),
                          "--max-regress", "0"])
    assert rc == 0

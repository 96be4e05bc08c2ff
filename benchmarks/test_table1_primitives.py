"""Table 1: communication-primitive properties, probed from the verbs layer."""

from repro.experiments.registry import run


def test_table1_primitive_properties(benchmark, bench_scale, record_result):
    result = benchmark.pedantic(run, args=("table1", bench_scale),
                                rounds=1, iterations=1)
    record_result(result)
    by_primitive = {row[0]: row[1:] for row in result.rows}
    # The paper's matrix: channel = pre-posted only; memory = exposed +
    # steering tag + rendezvous.
    assert by_primitive["channel"] == ["", "X", "", ""]
    assert by_primitive["memory"] == ["X", "", "X", "X"]

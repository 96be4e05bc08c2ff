"""Fig 6: IOzone Write bandwidth on Solaris + client CPU utilization."""

from repro.experiments.registry import run


def _series(result, name):
    return {row[1]: row for row in result.rows if row[0] == name}


def test_fig6_write_bandwidth_and_client_cpu(benchmark, bench_scale, record_result):
    result = benchmark.pedantic(run, args=("fig6", bench_scale),
                                rounds=1, iterations=1)
    record_result(result)

    rr = _series(result, "RR-128K")
    rw = _series(result, "RW-128K")
    # Write paths are near-identical: both designs move WRITE data by
    # server-issued RDMA Read.
    assert abs(rr[8][2] - rw[8][2]) < 0.15 * rw[8][2]
    # Paper's CPU story: RR's bounce-buffer copies push client CPU toward
    # ~24% at 8 threads; RW's zero-copy path stays in single digits.
    assert rr[8][3] > 15.0
    assert rw[8][3] < 10.0
    # CPU grows with threads for RR, stays flat-ish for RW.
    assert rr[8][3] > 2 * rr[1][3]
    assert rw[8][3] < 3 * max(rw[1][3], 1.0)

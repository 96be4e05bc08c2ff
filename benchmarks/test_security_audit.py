"""§4.1 security comparison: server attack surface under load."""

from repro.experiments.registry import run


def test_security_exposure_rr_vs_rw(benchmark, bench_scale, record_result):
    result = benchmark.pedantic(run, args=("security", bench_scale),
                                rounds=1, iterations=1)
    record_result(result)
    by_design = {row[0]: row for row in result.rows}
    rr = by_design["rdma-rr"]
    rw = by_design["rdma-rw"]
    # Read-Read handed out a server steering tag for every bulk reply.
    assert rr[1] > 0
    # Read-Write never exposed a single server stag.
    assert rw[1] == 0
    assert rw[2] == 0 and rw[3] == 0

"""Fig 7: registration strategies on OpenSolaris (read + write bandwidth)."""

from repro.experiments.registry import run


def _sat(result, series, column):
    return max(row[column] for row in result.rows if row[0] == series)


def test_fig7_registration_strategies_solaris(benchmark, bench_scale, record_result):
    result = benchmark.pedantic(run, args=("fig7", bench_scale),
                                rounds=1, iterations=1)
    record_result(result)

    reg_read = _sat(result, "RW-Register-Solaris", 2)
    fmr_read = _sat(result, "RW-FMR-Solaris", 2)
    cache_read = _sat(result, "RW-Cache-Solaris", 2)
    # Paper Fig 7a: Register ~350 < FMR ~400 << Cache ~730.
    assert reg_read < fmr_read < cache_read
    assert 330 <= reg_read <= 440
    assert 380 <= fmr_read <= 480
    assert 650 <= cache_read <= 820

    reg_write = _sat(result, "RW-Register-Solaris", 3)
    cache_write = _sat(result, "RW-Cache-Solaris", 3)
    fmr_write = _sat(result, "RW-FMR-Solaris", 3)
    # Paper Fig 7b: cache lifts write to ~515; FMR's gain is modest; the
    # RDMA Read serialization bounds all of them below the read numbers.
    assert 460 <= cache_write <= 570
    assert cache_write > fmr_write >= reg_write
    assert cache_write < cache_read  # reads (RDMA Write path) go faster

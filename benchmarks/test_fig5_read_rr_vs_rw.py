"""Fig 5: IOzone Read bandwidth on Solaris — Read-Read vs Read-Write."""

from repro.experiments.registry import run


def _series_max(result, prefix):
    return max(row[2] for row in result.rows if row[0].startswith(prefix))


def _at(result, series, threads):
    return next(row[2] for row in result.rows
                if row[0] == series and row[1] == threads)


def test_fig5_read_bandwidth_rr_vs_rw(benchmark, bench_scale, record_result):
    result = benchmark.pedantic(run, args=("fig5", bench_scale),
                                rounds=1, iterations=1)
    record_result(result)

    rr_sat = _series_max(result, "RR-128K")
    rw_sat = _series_max(result, "RW-128K")
    # Paper: RR saturates ~375 MB/s, RW ~400 MB/s.
    assert 330 <= rr_sat <= 420
    assert 360 <= rw_sat <= 440
    assert rw_sat >= rr_sat
    # Paper: RW leads substantially at one thread...
    assert _at(result, "RW-128K", 1) > 1.15 * _at(result, "RR-128K", 1)
    # ...and the lead shrinks as threads pile up.
    gain_1 = _at(result, "RW-128K", 1) / _at(result, "RR-128K", 1)
    gain_8 = _at(result, "RW-128K", 8) / _at(result, "RR-128K", 8)
    assert gain_8 < gain_1
    # Record size barely matters at saturation.
    assert abs(_series_max(result, "RW-1024K") - rw_sat) < 0.25 * rw_sat

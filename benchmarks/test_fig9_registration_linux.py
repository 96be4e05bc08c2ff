"""Fig 9: registration strategies on Linux (read + write bandwidth)."""

from repro.experiments.registry import run


def _sat(result, series, column):
    return max(row[column] for row in result.rows if row[0] == series)


def _at_max_threads(result, series, column):
    rows = [row for row in result.rows if row[0] == series]
    return max(rows, key=lambda r: r[1])[column]


def test_fig9_registration_strategies_linux(benchmark, bench_scale, record_result):
    result = benchmark.pedantic(run, args=("fig9", bench_scale),
                                rounds=1, iterations=1)
    record_result(result)

    reg_read = _sat(result, "RW-Register-Linux", 2)
    fmr_read = _sat(result, "RW-FMR-Linux", 2)
    phys_read = _sat(result, "RW-All-Physical-Linux", 2)
    # Paper Fig 9a: Register < FMR < All-Physical, with all-physical
    # pushing ~900 MB/s (the headline Linux Read number).
    assert reg_read < fmr_read < phys_read
    assert phys_read >= 820

    fmr_write = _at_max_threads(result, "RW-FMR-Linux", 3)
    phys_write = _at_max_threads(result, "RW-All-Physical-Linux", 3)
    # Paper Fig 9b: at saturation, all-physical *degrades* Write versus
    # FMR — without client scatter/gather each write fragments into
    # multiple RDMA Reads and runs into the IRD/ORD-capped, serialized
    # read engine.
    assert phys_write < 0.9 * fmr_write
